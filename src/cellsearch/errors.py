"""Exception types shared across the package, and the config type check
that raises one."""

import dataclasses
import functools
import numbers
import typing


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


class ConfigError(CellSearchError, ValueError):
    """A config value has the wrong type or range, or configs disagree."""


def check_value(name: str, value, hint) -> None:
    """Raise ConfigError unless `value` has the type `hint`: an int or a
    real that is no bool, a non-empty str, one of a Literal's values (by
    type and value), X or None for `X | None`, or an instance of a class."""
    if type(None) in typing.get_args(hint):
        if value is None:
            return
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(hint) is typing.Literal:
        choices = typing.get_args(hint)
        ok = any(type(value) is type(c) and value == c for c in choices)
        what = f"one of {choices}"
    elif hint is int:
        ok, what = isinstance(value, int) and not isinstance(value, bool), "an integer"
    elif hint is float:
        # finiteness is left to the range checks
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        what = "a finite real number"
    elif hint is str:
        ok, what = isinstance(value, str) and value != "", "a non-empty string"
    else:
        ok, what = isinstance(value, hint), f"a {hint.__name__}"
    if not ok:
        raise ConfigError(f"{name} must be {what}, got {value!r}")


_type_hints = functools.cache(typing.get_type_hints)


def check_fields(config) -> None:
    """check_value on each field of the dataclass `config` against its
    annotation; __post_init__ runs it first, so range checks see numbers."""
    hints = _type_hints(type(config))
    for f in dataclasses.fields(config):
        check_value(f.name, getattr(config, f.name), hints[f.name])
