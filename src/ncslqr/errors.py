"""Exception hierarchy shared across the package."""


class NcslqrError(Exception):
    """Base class for all package errors."""


class ParseError(NcslqrError):
    """Config file is malformed or missing required fields."""


class ShapeError(NcslqrError):
    """A matrix or vector has the wrong dimensions; message names the field."""


class ProbabilityError(NcslqrError):
    """A probability vector is negative or does not sum to one."""


class DefinitenessError(NcslqrError):
    """A matrix fails its required PSD/PD test."""

    def __init__(self, msg, min_eig=None):
        if min_eig is not None:
            msg = f"{msg} (min eigenvalue {min_eig:.3e})"
        super().__init__(msg)
        self.min_eig = min_eig


class DimensionError(NcslqrError):
    """Operands passed to a matrix utility do not agree in size."""


class SingularBlockError(NcslqrError):
    """A trailing block that must be PD for a Schur complement is not.

    `index` locates the first failing block in a stacked input (() for a
    single matrix).
    """

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


class NonFiniteError(NcslqrError):
    """A number that must be finite is not: an H block of the backward
    recursion, a simulated state, action or stage cost, a Monte Carlo mean
    or standard error, or a solution table being saved."""


class OutputError(NcslqrError):
    """An output file could not be written."""


class UnsupportedPolicyError(NcslqrError):
    """The exact evaluator was handed a policy it cannot express."""
