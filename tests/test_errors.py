"""The shared range and scan checks: interval ends, non-finite values,
malformed voltage scans."""

import math

import numpy as np
import pytest

from voaleak import DomainError, FringeTrace, IvCurve
from voaleak.errors import check_range

INF = math.inf
NAN = math.nan
TINY = 5e-324

# (value, lo, hi, lo_open, hi_open, accepted)
TABLE = [
    (0.0, 0.0, 1.0, False, False, True),
    (1.0, 0.0, 1.0, False, False, True),
    (0.5, 0.0, 1.0, False, False, True),
    (-TINY, 0.0, 1.0, False, False, False),
    (math.nextafter(1.0, 2.0), 0.0, 1.0, False, False, False),
    (0.0, 0.0, 1.0, True, False, False),
    (TINY, 0.0, 1.0, True, False, True),
    (1.0, 0.0, 1.0, False, True, False),
    (math.nextafter(1.0, 0.0), 0.0, 1.0, False, True, True),
    (0.0, 0.0, 1.0, True, True, False),
    (1.0, 0.0, 1.0, True, True, False),
    (1e308, 0.0, INF, False, False, True),
    (1e308, 0.0, INF, True, True, True),
    (-1e308, -INF, INF, True, True, True),
    (math.nan, 0.0, 1.0, False, False, False),
    (math.nan, -INF, INF, False, False, False),
    (INF, 0.0, INF, False, False, False),
    (-INF, -INF, 0.0, False, False, False),
    (INF, -INF, INF, True, True, False),
    (-INF, -INF, INF, False, False, False),
    (2, 1.0, INF, False, False, True),
]


@pytest.mark.parametrize("value, lo, hi, lo_open, hi_open, ok", TABLE)
def test_table(value, lo, hi, lo_open, hi_open, ok):
    if ok:
        check_range("x", value, lo, hi, lo_open=lo_open, hi_open=hi_open)
    else:
        with pytest.raises(DomainError):
            check_range("x", value, lo, hi, lo_open=lo_open, hi_open=hi_open)


@pytest.mark.parametrize("kwargs, message", [
    (dict(lo=0.0, hi=0.5), "y must lie in [0, 0.5], got 0.75"),
    (dict(lo=0.0, hi=0.5, lo_open=True, hi_open=True),
     "y must lie in (0, 0.5), got 0.75"),
    (dict(lo=1.0), "y must be finite and >= 1, got 0.75"),
    (dict(lo=1.0, lo_open=True), "y must be finite and > 1, got 0.75"),
])
def test_message_states_the_interval(kwargs, message):
    with pytest.raises(DomainError) as info:
        check_range("y", 0.75, **kwargs)
    assert str(info.value) == message


def test_infinite_interval_message():
    with pytest.raises(DomainError, match=r"^u must be finite, got nan$"):
        check_range("u", math.nan, -INF)


# Arrays pass when every element does; a failing array's message quotes
# one element that fails. (id, values, shape, lo, hi, lo_open, hi_open,
# the elements that fail)
ARRAYS = [
    ("empty", [], (0,), 0.0, 1.0, False, False, []),
    ("one_in", [0.5], (1,), 0.0, 1.0, False, False, []),
    ("one_out", [1.5], (1,), 0.0, 1.0, False, False, [1.5]),
    ("three_in", [0.0, 0.5, 1.0], (3,), 0.0, 1.0, False, False, []),
    ("three_low", [0.5, -TINY, 0.25], (3,), 0.0, 1.0, False, False, [-TINY]),
    ("three_both", [1.5, 0.5, -0.5], (3,), 0.0, 1.0, False, False, [1.5, -0.5]),
    ("column_in", [0.25, 0.75], (2, 1), 0.0, 1.0, False, False, []),
    ("column_out", [0.25, 2.0], (2, 1), 0.0, 1.0, False, False, [2.0]),
    ("nan_first", [NAN, 0.5, 0.25], (3,), 0.0, 1.0, False, False, [NAN]),
    ("nan_middle", [0.5, NAN, 0.25], (3,), 0.0, 1.0, False, False, [NAN]),
    ("nan_last", [0.5, 0.25, NAN], (3,), 0.0, 1.0, False, False, [NAN]),
    ("nan_column", [0.5, NAN], (2, 1), -INF, INF, False, False, [NAN]),
    ("plus_inf", [0.5, INF, 0.25], (3,), 0.0, INF, False, False, [INF]),
    ("minus_inf", [0.5, -INF, 0.25], (3,), -INF, 1.0, False, False, [-INF]),
    ("both_infs", [-INF, 0.5, INF], (3,), -INF, INF, True, True, [-INF, INF]),
    ("lo_closed", [0.0, 0.5], (2,), 0.0, 1.0, False, False, []),
    ("lo_open", [0.5, 0.0], (2,), 0.0, 1.0, True, False, [0.0]),
    ("hi_closed", [1.0, 0.5], (2,), 0.0, 1.0, False, False, []),
    ("hi_open", [0.5, 1.0], (2,), 0.0, 1.0, False, True, [1.0]),
    ("both_open_in", [TINY, 0.5, math.nextafter(1.0, 0.0)], (3,), 0.0, 1.0,
     True, True, []),
]


@pytest.mark.parametrize("values, shape, lo, hi, lo_open, hi_open, bad",
                         [case[1:] for case in ARRAYS],
                         ids=[case[0] for case in ARRAYS])
def test_array(values, shape, lo, hi, lo_open, hi_open, bad):
    value = np.array(values, dtype=float).reshape(shape)
    if not bad:
        check_range("x", value, lo, hi, lo_open=lo_open, hi_open=hi_open)
        return
    with pytest.raises(DomainError) as info:
        check_range("x", value, lo, hi, lo_open=lo_open, hi_open=hi_open)
    # The message is the one a failing element gives as a float.
    messages = set()
    for element in bad:
        with pytest.raises(DomainError) as alone:
            check_range("x", element, lo, hi, lo_open=lo_open, hi_open=hi_open)
        messages.add(str(alone.value))
    assert str(info.value) in messages


# Both trace records run their columns through errors.check_scan; each
# keeps its own nouns in the messages.
RECORDS = {
    FringeTrace: dict(trace="fringe trace", column="counts"),
    IvCurve: dict(trace="I-V trace", column="currents"),
}
# (id, voltages, samples, message template)
BAD_SCANS = [
    ("2d_voltages", [[0.0, 0.1], [0.2, 0.3]], [1.0, 1.0, 1.0, 1.0],
     "voltages and {column} must be 1-D arrays of equal length"),
    ("2d_samples", [0.0, 0.1], [[1.0, 1.0]],
     "voltages and {column} must be 1-D arrays of equal length"),
    ("unequal_length", [0.0, 0.1, 0.2], [1.0, 1.0],
     "voltages and {column} must be 1-D arrays of equal length"),
    ("empty", [], [], "{trace} is empty"),
    ("nan_voltage", [0.0, NAN, 0.2], [1.0, 1.0, 1.0],
     "{trace} contains non-finite samples"),
    ("inf_sample", [0.0, 0.1, 0.2], [1.0, INF, 1.0],
     "{trace} contains non-finite samples"),
    ("descending", [0.2, 0.1, 0.3], [1.0, 1.0, 1.0],
     "voltages must be strictly increasing"),
    ("repeated_voltage", [0.0, 0.1, 0.1], [1.0, 1.0, 1.0],
     "voltages must be strictly increasing"),
]


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
@pytest.mark.parametrize("voltages, samples, message",
                         [case[1:] for case in BAD_SCANS],
                         ids=[case[0] for case in BAD_SCANS])
def test_bad_scan_message(record, voltages, samples, message):
    with pytest.raises(DomainError) as info:
        record(np.array(voltages), np.array(samples))
    assert str(info.value) == message.format(**RECORDS[record])
