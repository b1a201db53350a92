"""Exact-arithmetic toolkit for k-step Fibonacci stride identities.

The library certifies, for every order k >= 2, the self-similarity
identity F(n) = sum_i C[k][i] * F(n - k*i) satisfied by any sequence
obeying the order-k all-ones recurrence, where C is a Pascal-like
coefficient triangle.  Certification is symbolic (exact polynomial
divisibility, cross-checked by a product matrix with per-column
closed-form arguments), numeric (big-integer identity checks on concrete
sequences, including negative indices), and independent (decimation by
power sums and Newton's identities, which never touches the triangles).

A polynomial is a plain tuple of ints, its coefficients in ascending
exponent order with the nonzero leading one last; the zero polynomial is
().  The package root exports nothing; every name lives in a submodule:

* kbonacci.triangles: the coefficient and difference triangles;
* kbonacci.prover: the divisibility certificate and its product matrix;
* kbonacci.sequences: recurrences, windows and numeric identity checks;
* kbonacci.decimation: the power-sum decimation oracle;
* kbonacci.errors: the exception types;
* kbonacci.jsontext: JSON text in the bytes json.dumps(indent=2) gives;
* kbonacci.cli: the command-line front end (python -m kbonacci).
"""
