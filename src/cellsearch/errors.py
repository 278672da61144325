"""Exception types shared across the package, the one type check of config
and file values, and the one path from a read failure to a ParseError."""

import contextlib
import functools
import math
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
    """Two records of one benchmark or labeled file share a canonical hash."""


class UnknownArchitectureError(CellSearchError):
    """A file-backed benchmark table has no record for the queried hash."""


class ShapeError(CellSearchError):
    """Parameter or input shapes are inconsistent."""


class DegenerateDataError(CellSearchError):
    """A labeled dataset is missing one of the two classes."""


class ConfigError(CellSearchError, ValueError):
    """A config value has the wrong type or range, or configs disagree."""


class In:
    """An interval written as in mathematics, "(0, 1]" or "[1, inf)": a
    field annotated `Annotated[T, In(...)]` is a T that lies in it."""

    def __init__(self, text: str):
        self.text = text
        self.low, self.high = map(float, text[1:-1].split(","))

    def __contains__(self, value) -> bool:
        above = self.low <= value if self.text[0] == "[" else self.low < value
        return above and (value <= self.high if self.text[-1] == "]" else value < self.high)

    def __repr__(self) -> str:
        return self.text


def check_value(name: str, value, hint) -> None:
    """Raise ConfigError unless `value` has the type `hint`: an int or a
    finite real that is no bool, a non-empty str, one of a Literal's values
    (by type and value), X or None for `X | None`, a T that lies in the
    interval for `Annotated[T, In(...)]`, a tuple of the items
    `tuple[X, Y]` or `tuple[X, ...]` names, a dict whose keys and values
    `dict[K, V]` names, or an instance of a class."""
    if type(None) in typing.get_args(hint):
        if value is None:
            return
        (hint,) = set(typing.get_args(hint)) - {type(None)}
    if typing.get_origin(hint) is typing.Annotated:
        hint, interval = typing.get_args(hint)
        check_value(name, value, hint)
        ok, what = value in interval, f"lie in {interval}"
    elif typing.get_origin(hint) is typing.Literal:
        choices = typing.get_args(hint)
        ok = any(type(value) is type(c) and value == c for c in choices)
        what = f"be one of {choices}"
    elif hint is int:
        ok, what = isinstance(value, int) and not isinstance(value, bool), "be an integer"
    elif hint is float:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
        ok, what = ok and math.isfinite(value), "be a finite real number"
    elif typing.get_origin(hint) is tuple:
        items = typing.get_args(hint)
        if items[1:] == (Ellipsis,) and isinstance(value, tuple):
            items = items[:1] * len(value)
        ok, what = isinstance(value, tuple) and len(value) == len(items), f"be a {hint}"
        for k, (item, item_hint) in enumerate(zip(value, items) if ok else ()):
            check_value(f"{name}[{k}]", item, item_hint)
    elif typing.get_origin(hint) is dict:
        key_hint, item_hint = typing.get_args(hint)
        ok, what = isinstance(value, dict), f"be a {hint}"
        for key, item in value.items() if ok else ():
            check_value(f"{name}[{key}]", key, key_hint)
            check_value(f"{name}[{key}]", item, item_hint)
    elif hint is str:
        ok, what = isinstance(value, str) and value != "", "be a non-empty string"
    else:
        ok, what = isinstance(value, hint), f"be a {hint.__name__}"
    if not ok:
        raise ConfigError(f"{name} must {what}, got {value!r}")


_type_hints = functools.cache(functools.partial(typing.get_type_hints, include_extras=True))


def check_fields(record) -> None:
    """check_value on each field of `record`, a dataclass or named tuple,
    against its annotation. A config's __post_init__ runs it first, so range
    checks see numbers; a file reader runs it on the record it built."""
    for name, hint in _type_hints(type(record)).items():
        check_value(name, getattr(record, name), hint)


def json_tuples(value):
    """`value` with every JSON array in it, at any depth, made a tuple, so
    that check_value can hold it to a tuple annotation."""
    return tuple(map(json_tuples, value)) if isinstance(value, list) else value


@contextlib.contextmanager
def parsing(path, lineno=None, field=None):
    """Raise a failure to read `path` in the block (a missing key, a bad
    value, a spec that breaks a cell rule) as a ParseError naming the file,
    the line where there is one, and `field` where the failure does not."""
    try:
        yield
    except (KeyError, TypeError, ValueError, InvalidSpecError) as exc:
        where = path if lineno is None else f"{path}:{lineno}"
        if field is not None:
            where = f"{where}: {field}"
        reason = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ParseError(f"{where}: {reason}") from exc
