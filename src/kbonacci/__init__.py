"""Exact-arithmetic toolkit for k-step Fibonacci stride identities.

The library certifies, for every order k >= 2, the self-similarity
identity F(n) = sum_i C[k][i] * F(n - k*i) satisfied by any sequence
obeying the order-k all-ones recurrence, where C is a Pascal-like
coefficient triangle.  Certification is symbolic (exact polynomial
divisibility, cross-checked by a product matrix with per-column
closed-form arguments), numeric (big-integer identity checks on concrete
sequences, including negative indices), and independent (decimation by
power sums and Newton's identities, which never touches the triangles).
"""

from .decimation import decimated_charpoly, recurrence_coefficients
from .errors import (
    BadCompositionPower,
    BadStride,
    ColumnOutOfRange,
    EmptyCoefficients,
    NegativePower,
    NegativeRow,
    NonIntegralBackwardStep,
    NonIntegralQuotient,
    NotAnEColumn,
    NotMonic,
    NotSolvableBackward,
    OrderTooSmall,
    WindowTooNarrow,
    WindowTooSmall,
    ZeroPolynomialDegree,
)
from .intpoly import IntPoly
from .prover import (
    CASE_LABELS,
    CaseTally,
    Certificate,
    ProductMatrix,
    base_charpoly,
    build_matrix,
    case_e_group_sums,
    certify_divisibility,
    classify_column,
    expected_column_sum,
    identity_charpoly,
    identity_coefficients,
    quotient_poly,
    stride_charpoly,
    verify_case_sums,
)
from .sequences import (
    IdentityReport,
    LinearRecurrence,
    SequenceWindow,
    check_identity,
    kbonacci,
    random_kbonacci,
)
from .triangles import (
    coeff_entry,
    coeff_row,
    coeff_row_from_charpoly,
    coeff_rows,
    column_one_closed_form,
    diff_entry,
    diff_row,
    diff_row_from_binomial,
    diff_rows,
)

__all__ = [
    "BadCompositionPower",
    "BadStride",
    "CASE_LABELS",
    "CaseTally",
    "Certificate",
    "ColumnOutOfRange",
    "EmptyCoefficients",
    "IdentityReport",
    "IntPoly",
    "LinearRecurrence",
    "NegativePower",
    "NegativeRow",
    "NonIntegralBackwardStep",
    "NonIntegralQuotient",
    "NotAnEColumn",
    "NotMonic",
    "NotSolvableBackward",
    "OrderTooSmall",
    "ProductMatrix",
    "SequenceWindow",
    "WindowTooNarrow",
    "WindowTooSmall",
    "ZeroPolynomialDegree",
    "base_charpoly",
    "build_matrix",
    "case_e_group_sums",
    "certify_divisibility",
    "check_identity",
    "classify_column",
    "coeff_entry",
    "coeff_row",
    "coeff_row_from_charpoly",
    "coeff_rows",
    "column_one_closed_form",
    "decimated_charpoly",
    "diff_entry",
    "diff_row",
    "diff_row_from_binomial",
    "diff_rows",
    "expected_column_sum",
    "identity_charpoly",
    "identity_coefficients",
    "kbonacci",
    "quotient_poly",
    "random_kbonacci",
    "recurrence_coefficients",
    "stride_charpoly",
    "verify_case_sums",
]
