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
against its interval. An interval is declared once, as text such as
"(0, 1]" that `interval` parses: a record's fields in its `_intervals`,
each config key in `scenario`'s per-mode table, and a channel key by
the `ChannelParams` field it sets. `check_scan` is the one place where
the two columns of a voltage scan are converted, checked and stored.
`Record` is the base of the package's frozen records, which bind their
arguments and defaults in one step, `ArrayRecord` that of the records
whose fields are arrays, `unchecked` builds a record from the package's
own results without checks, taking each left-out field's default,
`replace` copies a record with some fields changed through `unchecked`,
and `plain` hands a 0-d numpy result back as a Python number.
"""

import math

import numpy as np

__all__ = ["VoaleakError", "DomainError", "InsufficientDataError",
           "ConfigurationError", "TraceParseError", "TraceSchemaError"]


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


# int (a bool too) and numpy's integer types, but not np.timedelta64.
_INT_TYPES = (int, *{np.dtype(code).type for code in np.typecodes["AllInteger"]})
# The scalar types check_range and check_intensities take as numbers.
_REAL_TYPES = (float, *_INT_TYPES)


def _real_array(value) -> bool:
    # Whether value is an array of numbers: of an integer dtype or float64.
    return isinstance(value, np.ndarray) and (value.dtype.kind in "iu"
                                              or value.dtype == np.float64)


def check_range(name: str, value, lo: float, hi: float = math.inf,
                lo_open: bool = False, hi_open: bool = False) -> None:
    """Raise DomainError unless value is finite and lies between lo and hi.

    Each end is closed unless its `*_open` flag is set. NaN, +-inf and
    an int too large for a double are always rejected, so an infinite
    end reads as "finite and beyond the other end". A number is an int (a
    Python bool too), a float (a numpy float64 too), a numpy integer, or an
    array of an integer dtype or float64, so floats stay float64; anything
    else is rejected like NaN: text, a Decimal or Fraction, a numpy float32,
    timedelta64 or bool_, a bool array. An array passes when every element
    does, and the message quotes an element that fails.
    """
    # A float skips the isinstance tests, a third of a scalar check's cost.
    if value.__class__ is float or isinstance(value, _REAL_TYPES):
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int beyond a double
            finite = False
    elif _real_array(value):
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
    else:
        finite = False
    if (finite
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


def interval(text: str) -> tuple[float, float, bool, bool]:
    """check_range's lo, hi, lo_open and hi_open for an interval text.

    The text is written as in mathematics, "[lo, hi]" with a round
    bracket at an open end; either end may be inf or -inf.
    """
    if text[0] not in "[(" or text[-1] not in "])":
        raise ValueError(f"an interval must be bracketed, got {text!r}")
    lo, hi = map(float, text[1:-1].split(","))
    return lo, hi, text[0] == "(", text[-1] == ")"


def check_scan(record, trace: str) -> None:
    """Store a scan record's voltages and samples (its second field) as floats.

    Raises DomainError unless both are non-empty, finite 1-D arrays of
    integers or float64 (not copied) of equal length and the voltages
    strictly increase. trace names the trace in the messages.
    """
    name = record._fields[1]
    v, y = np.asarray(record.voltages), np.asarray(record.__dict__[name])
    if not (_real_array(v) and _real_array(y)):
        raise DomainError(f"voltages and {name} must hold integers or float64")
    v, y = v.astype(float, copy=False), y.astype(float, copy=False)
    if v.ndim != 1 or y.ndim != 1 or v.size != y.size:
        raise DomainError(f"voltages and {name} must be 1-D arrays of equal length")
    if v.size == 0:
        raise DomainError(f"{trace} is empty")
    if not np.all(np.isfinite(v)) or not np.all(np.isfinite(y)):
        raise DomainError(f"{trace} contains non-finite samples")
    if np.any(np.diff(v) <= 0.0):
        raise DomainError("voltages must be strictly increasing")
    record.__dict__.update({"voltages": v, name: y})


class Record:
    """Base of a frozen record whose fields are its annotated names.

    A subclass lists its fields as annotations, in order, each with an
    optional default in the class body; the defaults stay readable as
    class attributes. A class-level `_intervals` maps some fields to
    interval texts such as "(0, 1]" (see `interval`). Its instances bind
    the defaults, positional values and keywords into one dict; arguments
    that do not give each field once raise one TypeError naming the
    missing, unexpected and repeated fields. Each field of `_intervals`
    is then checked in order with `check_range`, and `__post_init__`,
    where a subclass checks its other rules, runs last.
    A field cannot be assigned or deleted afterwards. Two records are
    equal when they are of the same class and their fields are equal in
    order, and the hash is that of the tuple of fields. So a record
    holding arrays in fields declared as floats raises ValueError on
    `==`, as a dataclass would; a record whose fields are always arrays
    derives from `ArrayRecord`.

    The fields and intervals are read once per subclass, in
    `__init_subclass__`, so no method is generated for it.
    """

    _intervals = {}  # not annotated, so not a field

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        cls._field_set = frozenset(cls._fields)
        body = vars(cls)
        cls._defaults = {name: body[name] for name in cls._fields if name in body}
        cls._ranges = tuple((name, *interval(text))
                            for name, text in cls._intervals.items())

    def __init__(self, *args, **kwargs):
        # The defaults, the positional values and the keywords bind in one
        # dict, and one test of it catches every fault in the arguments.
        fields = self._fields
        named = dict(zip(fields, args))
        values = {**self._defaults, **named, **kwargs}
        if (len(args) > len(fields) or values.keys() != self._field_set
                or not named.keys().isdisjoint(kwargs)):
            raise TypeError(
                f"{type(self).__name__}() takes {len(fields)} fields, got {len(args)} "
                f"by position; missing {[n for n in fields if n not in values]}, "
                f"unexpected {sorted(values.keys() - self._field_set)}, "
                f"given twice {sorted(named.keys() & kwargs.keys())}")
        self.__dict__.update(values)
        for name, lo, hi, lo_open, hi_open in self._ranges:
            check_range(name, values[name], lo, hi, lo_open, hi_open)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value
                           in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


class ArrayRecord(Record):
    """A record of arrays, equal only to itself (`==` on arrays has no
    single truth value) and as long as its first field."""

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __len__(self) -> int:
        return len(self.__dict__[self._fields[0]])


def unchecked(cls, values):
    """An instance of the record class cls, built without its checks.

    For records the package fills with its own results, which lie in
    range by construction (clamped bounds, gains of checked inputs).
    values maps fields to values, a field it leaves out takes its default
    as in the constructor, and it is read, not kept. A record built from a
    caller's values goes through its constructor and is checked as usual.
    """
    record = object.__new__(cls)
    record.__dict__.update(cls._defaults)
    record.__dict__.update(values)
    return record


def replace(record, **changes):
    """A copy of the record with changes, not checked.

    A copy made through the constructor, `type(record)(**fields)`, runs
    the record's checks; this one skips them, as `unchecked` does: for
    a checked record whose changed fields the package has checked
    already.
    """
    return unchecked(type(record), {**record.__dict__, **changes})


def plain(value):
    """A 0-d numpy value as the Python number it holds; arrays unchanged.

    The elementwise formulas run floats and arrays through one numpy
    body; this is how a float argument comes back as a float.
    """
    return value.item() if value.ndim == 0 else value
