"""Exception types raised by the library.

Everything here derives from ValueError or ArithmeticError so callers who
do not care about the distinction can catch the builtin bases.
"""


class OrderTooSmall(ValueError):
    """Recurrence order below 2; the stride identities start at order 2."""


class NegativeRow(ValueError):
    """Triangle row index below 0; the triangles are not extended upward."""


class InexactNewtonStep(ArithmeticError):
    """A Newton's-identity step of stride decimation left a remainder."""


class WindowTooNarrow(ValueError):
    """Empty index range: lo > hi for a window or an identity check."""


class BelowBase(ValueError):
    """A forward walk of a recurrence asked to start below its seeds."""


class NotSolvableBackward(ValueError):
    """A recurrence runs backward only with a trailing coefficient of +-1."""


class BadStride(ValueError):
    """Decimation or identity stride below 1."""


class EmptyCoefficients(ValueError):
    """A recurrence needs at least one coefficient."""


class SeedCountMismatch(ValueError):
    """A recurrence given a number of seed values other than its order."""


class BadModulus(ValueError):
    """Residue classes asked for a modulus below 1."""


class NotMonic(ValueError):
    """Operation requires a monic polynomial (leading coefficient 1)."""
