"""Exception types shared across the package, and the config type check
that raises one."""

import numbers


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


def require_field_types(config, kinds: dict, optional: tuple = ()) -> None:
    """Raise ConfigError unless each named field of `config` holds its kind,
    int or numbers.Real, and is no bool; a field named in `optional` may
    also hold None. Run before range checks, so that they compare numbers."""
    for name, kind in kinds.items():
        value = getattr(config, name)
        typed = isinstance(value, kind) and not isinstance(value, bool)
        if not typed and not (value is None and name in optional):
            what = "an integer" if kind is int else "a finite real number"
            raise ConfigError(f"{name} must be {what}, got {value!r}")
