"""The shared range and scan checks: interval ends, non-finite values,
malformed voltage scans."""

import math

import numpy as np
import pytest

from voaleak import DomainError, FringeTrace, IvCurve
from voaleak.errors import check_range

INF = math.inf
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


# Both trace records run their columns through errors.check_scan; each
# keeps its own nouns in the messages.
RECORDS = {
    FringeTrace: dict(trace="fringe trace", column="counts"),
    IvCurve: dict(trace="I-V trace", column="currents"),
}
NAN = math.nan
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
