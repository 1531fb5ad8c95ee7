"""Exception types shared across the package.

Every class derives from VoaleakError, a ValueError, so callers that
only care about "bad input" can catch a single familiar type. Each
category the CLI prints has exactly one class:

    internal  VoaleakError           the base class
    domain    DomainError            an argument outside its domain
    data      InsufficientDataError  data that do not determine the result
    config    ConfigurationError     a bad config or command line
    parse     TraceParseError        a file row that does not parse
    schema    TraceSchemaError       a file that breaks its schema

Only `scenario` and `cli` raise ConfigurationError; each layer below
them checks its own arguments and raises DomainError. `check_range` is
the one place where an input, a float or a numpy array, is checked
against its interval, and `check_scan` the one where the two columns
of a voltage scan are checked. `unchecked` builds a record from the
package's own results without checking them again, and `plain` hands
a 0-d numpy result back as a Python number.
"""

import math

import numpy as np


class VoaleakError(ValueError):
    """Base class for all errors raised by this package."""

    category = "internal"


class DomainError(VoaleakError):
    """An argument lies outside the physically meaningful domain."""

    category = "domain"


class InsufficientDataError(VoaleakError):
    """The data do not determine the result: too few samples, no fringe,
    an extremum at the scan boundary or a degenerate reference."""

    category = "data"


class ConfigurationError(VoaleakError):
    """Scenario configuration is missing, inconsistent, or malformed."""

    category = "config"


class TraceParseError(VoaleakError):
    """A trace file row could not be parsed."""

    category = "parse"

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class TraceSchemaError(VoaleakError):
    """A trace file violates the expected column schema or ordering."""

    category = "schema"


def check_range(name: str, value, lo: float, hi: float = math.inf, *,
                lo_open: bool = False, hi_open: bool = False) -> None:
    """Raise DomainError unless value is finite and lies between lo and hi.

    Each end is closed unless its `*_open` flag is set. NaN and +-inf
    are always rejected, so an infinite end reads as "finite and
    beyond the other end". A numpy array passes when every element
    does, and the message quotes an element that fails.
    """
    if isinstance(value, np.ndarray):
        # Checked through a NaN it holds, or else its least and greatest
        # elements. Python's min and max over a list cost less than two
        # numpy reductions on the few-element arrays a sweep passes, and
        # stay linear in the size of a distance grid.
        values = value.ravel().tolist()
        if values:
            nan = next(filter(math.isnan, values), None)
            for end in (min(values), max(values)) if nan is None else (nan,):
                check_range(name, end, lo, hi, lo_open=lo_open, hi_open=hi_open)
        return
    if (math.isfinite(value)
            and (lo < value if lo_open else lo <= value)
            and (value < hi if hi_open else value <= hi)):
        return
    if hi < math.inf:
        rule = (f"lie in {'(' if lo_open else '['}{lo:g}, "
                f"{hi:g}{')' if hi_open else ']'}")
    elif lo > -math.inf:
        rule = f"be finite and {'>' if lo_open else '>='} {lo:g}"
    else:
        rule = "be finite"
    raise DomainError(f"{name} must {rule}, got {value!r}")


def check_scan(trace: str, voltages, name: str, values
               ) -> tuple[np.ndarray, np.ndarray]:
    """The voltages and the named sample column of a trace as float arrays.

    Raises DomainError unless both are non-empty, finite 1-D arrays of
    equal length and the voltages strictly increase. trace names the
    trace in the messages.
    """
    v = np.asarray(voltages, dtype=float)
    y = np.asarray(values, dtype=float)
    if v.ndim != 1 or y.ndim != 1 or v.size != y.size:
        raise DomainError(f"voltages and {name} must be 1-D arrays of equal length")
    if v.size == 0:
        raise DomainError(f"{trace} is empty")
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(y)):
        raise DomainError(f"{trace} contains non-finite samples")
    if np.any(np.diff(v) <= 0.0):
        raise DomainError("voltages must be strictly increasing")
    return v, y


def unchecked(cls, **values):
    """An instance of the frozen dataclass cls, built without its checks.

    For records the package fills with its own results, which lie in
    range by construction (clamped bounds, gains of checked inputs).
    Every field must be given. A record built from a caller's values
    goes through its constructor and is checked as usual.
    """
    record = object.__new__(cls)
    record.__dict__.update(values)
    return record


def plain(value):
    """A 0-d numpy value as the Python number it holds; arrays unchanged.

    The elementwise formulas run floats and arrays through one numpy
    body; this is how a float argument comes back as a float.
    """
    return value.item() if value.ndim == 0 else value
