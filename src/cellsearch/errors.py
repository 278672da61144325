"""Exception types shared across the package."""


class CellSearchError(Exception):
    """Base class for all package errors."""


class InvalidSpecError(CellSearchError):
    """A spec failed a precondition (not pruned, bad terminals, bad labels)."""


class ExhaustedError(CellSearchError):
    """Rejection sampling hit its attempt cap; limits are likely misconfigured."""


class ParseError(CellSearchError):
    """A data file failed to parse; message carries line number and reason."""


class DuplicateHashError(CellSearchError):
    """Two benchmark records share one canonical hash."""


class UnknownArchitectureError(CellSearchError):
    """A file-backed benchmark table has no record for the queried hash."""


class ShapeError(CellSearchError):
    """Parameter or input shapes are inconsistent."""


class DegenerateDataError(CellSearchError):
    """A labeled dataset is missing one of the two classes."""


class ConfigError(CellSearchError):
    """An experiment configuration is internally inconsistent."""
