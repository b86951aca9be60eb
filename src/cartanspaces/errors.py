"""Exception hierarchy shared across the package."""


class CartanError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(CartanError):
    """Vector or subspace dimensions do not match."""


class ConstraintError(CartanError):
    """Parameters violate a rank constraint or a table row's admissible range."""


class ContractError(CartanError):
    """Stored table data is internally inconsistent (data corruption signal)."""


class OutsideCatalogError(CartanError):
    """The pair is not covered by the encoded classification tables.

    The computation is refused rather than extrapolated; the message names
    the offending summand and the closest violated constraint.
    """


class InternalConsistencyError(CartanError):
    """A derived quantity came out impossible (e.g. negative complexity)."""


class TableFormatError(CartanError):
    """A catalog data file could not be parsed; carries the line number."""


class PairSyntaxError(CartanError):
    """A pair expression could not be parsed; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset
