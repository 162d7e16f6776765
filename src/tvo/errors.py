"""Exception hierarchy shared across the package."""


class TvoError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TvoError):
    """A data file could not be parsed; the message names the line or missing entry."""


class StructureError(TvoError):
    """Structurally invalid input: shape mismatch, broken gluing, non-tree edge set."""


class PreconditionError(TvoError):
    """An operation's documented precondition was violated."""


class DegenerateDataError(TvoError):
    """Modular data is degenerate for the requested operation (e.g. S_00 ~ 0)."""


class FusionIntegralityError(TvoError):
    """A Verlinde sum is not within tolerance of a non-negative integer."""

    def __init__(self, i, j, k, value):
        self.indices = (i, j, k)
        self.value = value
        super().__init__(
            f"fusion coefficient N[{i},{j}]^{k} = {value} is not a non-negative "
            f"integer within tolerance"
        )


class ConjugationError(TvoError):
    """S^2 is not within tolerance of a permutation matrix."""


class CapacityError(TvoError):
    """A search or an array would exceed its configured size cap."""


class GeneratorError(TvoError):
    """A built-in data generator was asked for degenerate parameters."""


class UnsupportedFeatureError(TvoError):
    """Input is valid but outside the implemented scope (e.g. non-pointed 6j data)."""


class DecompositionError(TvoError):
    """Numerical algebra decomposition failed to meet tolerance."""
