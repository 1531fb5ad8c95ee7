"""The shared range and scan checks: interval ends, non-finite values,
malformed voltage scans; and the frozen-record contract."""

import math
import os
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from voaleak import (
    CarrierState,
    ChannelParams,
    ConfigurationError,
    DecoyObservations,
    DomainError,
    EmissionSpec,
    ExtremaPair,
    FringeTrace,
    IvCurve,
    LeakageResult,
    ScenarioConfig,
    SinglePhotonBounds,
    SweepResult,
    VoaleakError,
    attenuation_db,
    attenuation_from_counts,
    bandgap_wavelength,
    calibrated_intensity,
    center_wavelength,
    dual_source_key_rate,
    find_extrema_pair,
    fit_ideality,
    gllp_key_rate,
    load_trace,
    observables_for_intensity,
    phase_error_with_tha,
    plasma_dispersion_general,
    single_photon_bounds,
)
from voaleak.decoy import check_intensities
from voaleak.errors import check_range, interval, replace, unchecked
from voaleak.scenario import (_KEYS, config_from_mapping, parse_config_text,
                              result_to_text, run_scenario)
from voaleak.security import binary_entropy, coin_imbalance

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = CONFIGS.parent / "data"

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
    # An int beyond the largest double fails as inf does.
    (10 ** 400, 1.0, INF, False, False, False),
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


@pytest.mark.parametrize("text, parsed", [
    ("[0, 1]", (0.0, 1.0, False, False)),
    ("(0, 1]", (0.0, 1.0, True, False)),
    ("[0, 0.5)", (0.0, 0.5, False, True)),
    ("(-inf, inf)", (-INF, INF, True, True)),
    ("[1, inf)", (1.0, INF, False, True)),
    ("(-inf,2]", (-INF, 2.0, True, False)),
])
def test_interval_text(text, parsed):
    assert interval(text) == parsed


@pytest.mark.parametrize("text", ["{0, 1]", "0, 1", "[0, 1}", "[0; 1]", "[0, 1, 2]"])
def test_malformed_interval_text(text):
    with pytest.raises(ValueError):
        interval(text)


def test_declared_intervals_keep_the_record_messages():
    with pytest.raises(DomainError) as info:
        ChannelParams(y0=5.0)
    assert str(info.value) == "y0 must lie in [0, 1), got 5.0"
    # The declared fields are checked in field order, before __post_init__.
    with pytest.raises(DomainError, match=r"^y0 must"):
        ChannelParams(y0=5.0, e0=2.0)
    with pytest.raises(DomainError, match=r"^q_s must lie in \(0, 1\], got 0.0$"):
        DecoyObservations(s=0.1, nu=0.2, omega=0.3, q_s=0.0, q_nu=0.1,
                          q_omega=0.1, e_s=0.1, e_nu=0.1, e_omega=0.1)


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


# ============================================================
# Records
# ============================================================

def test_record_binds_by_position_keyword_and_default():
    pair = ExtremaPair(1.0, u_min=2.0)
    assert (pair.u_max, pair.u_min) == (1.0, 2.0)
    bounds = SinglePhotonBounds(0.5, 0.1, 0.2, 1e-6)
    assert bounds.clamp_events == 0
    assert SinglePhotonBounds(0.5, 0.1, 0.2, 1e-6, 3).clamp_events == 3
    config = ScenarioConfig("passive_tha", step=2.0)
    assert config.channel == ChannelParams()
    assert config.channel is ScenarioConfig.channel
    assert (config.mode, config.step, config.s) == ("passive_tha", 2.0, 0.48)
    # The defaults stay readable as class attributes.
    assert ChannelParams.alpha_sig == ChannelParams().alpha_sig == 0.2


@pytest.mark.parametrize("args, kwargs, match", [
    ((1.0,), {}, r"missing \['u_min'\]"),
    ((), {"u_max": 1.0}, r"missing \['u_min'\]"),
    ((1.0, 2.0), {"u_mid": 1.5}, r"unexpected \['u_mid'\]"),
    ((1.0, 2.0), {"u_max": 1.0}, r"given twice \['u_max'\]"),
    ((1.0, 2.0, 3.0), {}, "takes 2 fields, got 3 by position"),
], ids=["missing", "missing-keyword", "unknown", "repeated", "too-many"])
def test_record_rejects_bad_arguments(args, kwargs, match):
    with pytest.raises(TypeError, match=match):
        ExtremaPair(*args, **kwargs)


def test_scenario_config_needs_its_mode():
    with pytest.raises(TypeError, match="'mode'"):
        ScenarioConfig(step=1.0)


@pytest.mark.parametrize("build, error, message", [
    (lambda: ScenarioConfig(mode="passive_tha", step="1"), ConfigurationError,
     "invalid configuration fields: sweep.step must be finite and > 0, got '1'"),
    (lambda: ChannelParams(y0="0"), DomainError, "y0 must lie in [0, 1), got '0'"),
    (lambda: EmissionSpec(1.0, "5", 1e-9), DomainError,
     "count_rate must be finite and >= 0, got '5'"),
    (lambda: ScenarioConfig(mode="passive_tha", nu="x"), ConfigurationError,
     "invalid configuration fields: intensities (s, nu, omega must satisfy "
     "709 >= s > nu > omega >= 0 and nu + omega < s, got s=0.48, nu='x', "
     "omega=0.001)"),
    # Numbers of other types, which arithmetic on floats does not take.
    (lambda: ScenarioConfig(mode="passive_tha", s=Decimal("0.5")), ConfigurationError,
     "invalid configuration fields: intensities.s must lie in (0, 100], "
     "got Decimal('0.5')"),
    (lambda: ScenarioConfig(mode="passive_tha", step=Decimal("1")), ConfigurationError,
     "invalid configuration fields: sweep.step must be finite and > 0, "
     "got Decimal('1')"),
    (lambda: ScenarioConfig(mode="passive_tha", s=Fraction(12, 25)), ConfigurationError,
     "invalid configuration fields: intensities.s must lie in (0, 100], "
     "got Fraction(12, 25)"),
    (lambda: ScenarioConfig(mode="passive_tha", nu=Fraction(1, 50)), ConfigurationError,
     "invalid configuration fields: intensities (s, nu, omega must satisfy "
     "709 >= s > nu > omega >= 0 and nu + omega < s, got s=0.48, "
     "nu=Fraction(1, 50), omega=0.001)"),
    # Arrays whose elements are not numbers.
    (lambda: ChannelParams(y0=np.array(["0"])), DomainError,
     "y0 must lie in [0, 1), got array(['0'], dtype='<U1')"),
    (lambda: ChannelParams(y0=np.array([None])), DomainError,
     "y0 must lie in [0, 1), got array([None], dtype=object)"),
    (lambda: coin_imbalance(Decimal("0.1")), DomainError,
     "mu must be finite and >= 0, got Decimal('0.1')"),
    # numpy floats other than float64, which would run the chain in
    # their own precision; numpy's repr of a scalar differs by version.
    (lambda: run_scenario(ScenarioConfig(mode="passive_tha", s=np.longdouble("0.48"))),
     ConfigurationError, "invalid configuration fields: intensities.s must lie in "
     f"(0, 100], got {np.longdouble('0.48')!r}"),
    (lambda: ScenarioConfig(mode="passive_tha", distance_max=np.float16(20.0)),
     ConfigurationError, "invalid configuration fields: sweep.distance_max must "
     f"be finite and >= 0, got {np.float16(20.0)!r}"),
    (lambda: binary_entropy(np.longdouble(0.1)), DomainError,
     f"binary_entropy argument must lie in [0, 1], got {np.longdouble(0.1)!r}"),
    (lambda: coin_imbalance(np.float32(0.1)), DomainError,
     f"mu must be finite and >= 0, got {np.float32(0.1)!r}"),
    (lambda: ChannelParams(distance=np.zeros(2, np.float32)), DomainError,
     "distance must be finite and >= 0, got array([0., 0.], dtype=float32)"),
    # A numpy timedelta64 subclasses np.integer, but is no number.
    (lambda: check_intensities(np.timedelta64(1), 0.02, 0.001), DomainError,
     "s, nu, omega must satisfy 709 >= s > nu > omega >= 0 and nu + omega < s, "
     f"got s={np.timedelta64(1)!r}, nu=0.02, omega=0.001"),
    (lambda: ScenarioConfig(mode="passive_tha", s=np.timedelta64(1)), ConfigurationError,
     "invalid configuration fields: intensities.s must lie in (0, 100], "
     f"got {np.timedelta64(1)!r}"),
    (lambda: CarrierState(np.timedelta64(1), 0), DomainError,
     f"delta_n_e must be finite and >= 0, got {np.timedelta64(1)!r}"),
    (lambda: fit_ideality(IvCurve(**IV), np.timedelta64(0), 0.3), DomainError,
     f"v_lo must be finite, got {np.timedelta64(0)!r}"),
    (lambda: find_extrema_pair(FringeTrace(np.arange(7), np.ones(7)), np.timedelta64(5)),
     DomainError, "smooth_window must be an odd integer >= 1, "
     f"got {np.timedelta64(5)!r}"),
    (lambda: ScenarioConfig(mode="iv_fit", iv_trace="x", windows=(("0", "1"),)),
     ConfigurationError, "invalid configuration fields: ivfit.windows "
     "(v_lo must be finite, got '0')"),
    # Ints beyond a double, which no config text gives.
    (lambda: ScenarioConfig(mode="iv_fit", iv_trace="x", windows=((0, 10**400),)),
     ConfigurationError, "invalid configuration fields: ivfit.windows "
     f"(v_hi must be finite and > 0, got {10**400!r})"),
    (lambda: ScenarioConfig(mode="iv_fit", iv_trace="x", windows=((-10**400, 0),)),
     ConfigurationError, "invalid configuration fields: ivfit.windows "
     f"(v_lo must be finite, got {-10**400!r})"),
], ids=["config-step", "channel-y0", "emission-count-rate", "config-nu",
        "config-s-decimal", "config-step-decimal", "config-s-fraction",
        "config-nu-fraction", "channel-y0-text-array", "channel-y0-object-array",
        "coin-imbalance-decimal", "config-s-longdouble", "config-distance-max-float16",
        "binary-entropy-longdouble", "coin-imbalance-float32",
        "channel-distance-float32-array", "intensities-timedelta64",
        "config-s-timedelta64", "carrier-state-timedelta64",
        "fit-ideality-timedelta64", "smooth-window-timedelta64", "config-window-text",
        "config-window-huge-hi", "config-window-huge-lo"])
def test_a_non_number_is_named_by_its_key(build, error, message):
    # Given through the Python API, where no config text parses it first.
    with pytest.raises(VoaleakError) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


# A scan column is converted only from integers or float64: text, Decimal,
# object, complex, float32 and timedelta64 columns are refused.
@pytest.mark.parametrize("record", list(RECORDS), ids=lambda r: r.__name__)
@pytest.mark.parametrize("voltages, samples", [
    (["a", "1", "2"], [1, 2, 3]),
    ([object(), 1, 2], [1, 2, 3]),
    ([0, 1j], [1, 2]),
    ([Decimal(0), Decimal(1)], [1, 2]),
    ([0.0, 1.0], np.array([1, 2], np.float32)),
    (np.array([0, 1], "m8[s]"), [1.0, 2.0]),
], ids=["text", "object", "complex", "decimal", "float32", "timedelta64"])
def test_a_trace_of_non_numbers_is_refused(record, voltages, samples):
    with pytest.raises(DomainError) as info:
        record(voltages, samples)
    column = RECORDS[record]["column"]
    assert str(info.value) == f"voltages and {column} must hold integers or float64"


def test_a_float64_trace_is_stored_as_given():
    voltages, counts = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0])
    trace = FringeTrace(voltages, counts)
    assert trace.voltages is voltages and trace.counts is counts
    assert IvCurve([0, 1, 2], [1, 2, 3]).voltages.dtype == np.float64


@pytest.mark.parametrize("record", [
    ExtremaPair(1.0, 2.0),
    ChannelParams(),
    unchecked(ExtremaPair, {"u_max": 1.0, "u_min": 1.0}),
], ids=["checked", "defaults", "unchecked"])
def test_record_fields_cannot_change(record):
    with pytest.raises(AttributeError):
        record.u_max = 3.0
    with pytest.raises(AttributeError):
        record.extra = 3.0
    with pytest.raises(AttributeError):
        del record.u_max
    assert not hasattr(record, "extra")


def test_record_eq_and_hash_follow_the_field_order():
    a = ExtremaPair(1.0, 2.0)
    b = ExtremaPair(u_min=2.0, u_max=1.0)
    swapped = ExtremaPair(2.0, 1.0)
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((1.0, 2.0))
    assert a != swapped
    assert a != (1.0, 2.0)
    # Same fields, another class: not equal.
    assert CarrierState(1.0, 2.0) != ExtremaPair(1.0, 2.0)
    assert ScenarioConfig("device", emission=(
        EmissionSpec(2.0, 5.82e7, 1.6e-9),)) == ScenarioConfig(
        emission=(EmissionSpec(pulse_width=1.6e-9, count_rate=5.82e7,
                               drive_voltage=2.0),), mode="device")
    assert len({a, b, swapped}) == 2


@pytest.mark.parametrize("cls", [SweepResult, LeakageResult, FringeTrace, IvCurve])
def test_array_results_compare_by_identity(cls):
    # Each record's array fields, equal in both instances.
    arrays = ((np.zeros((2, 3)),) if cls in (SweepResult, LeakageResult)
              else (np.array([0.0, 1.0]), np.array([1.0, 2.0])))
    first, second = cls(*arrays), cls(*arrays)
    assert first == first
    assert first != second
    assert hash(first) == object.__hash__(first)
    assert len({first, second}) == 2
    assert first in [second, first] and second not in [first]


@pytest.mark.parametrize("cls", [SweepResult, LeakageResult, FringeTrace, IvCurve])
def test_array_record_length_is_its_row_count(cls):
    arrays = ((np.zeros((3, 2)),) if cls in (SweepResult, LeakageResult)
              else (np.array([0.0, 1.0, 2.0]), np.array([1.0, 2.0, 3.0])))
    assert len(cls(*arrays)) == 3


# repr of the records the shipped configs give, as the dataclass repr
# printed them; the trace paths are relative to base_dir "configs".
CHANNEL = ("ChannelParams(distance=0.0, alpha_sig=0.2, alpha_par=0.8, "
           "eta_bob_sig=0.78, eta_bob_par=0.25, y0=2e-08, e_d=0.0061, e0=0.5)")
TAIL = "windows=((0.0, 0.45), (0.5, 0.8), (0.85, 0.9)))"
REPRS = {
    "passive_tha.cfg": (
        f"ScenarioConfig(mode='passive_tha', channel={CHANNEL}, s=0.48, nu=0.02, "
        "omega=0.001, p_z=1.0, q_proto=0.5, f_ec=1.2, mu_leak=0.09774514191987614, "
        "distance_min=0.0, distance_max=400.0, step=1.0, emission=(), "
        "reference_trace=None, unknown_trace=None, lambda_ref_nm=None, "
        f"smooth_window=5, iv_trace=None, temperature=300.0, {TAIL}"),
    "dual_source.cfg": (
        f"ScenarioConfig(mode='dual_source', channel={CHANNEL}, s=0.48, nu=0.02, "
        "omega=0.001, p_z=1.0, q_proto=0.5, f_ec=1.2, mu_leak=0.09774514191987614, "
        "distance_min=0.0, distance_max=60.0, step=1.0, emission=(), "
        "reference_trace=None, unknown_trace=None, lambda_ref_nm=None, "
        f"smooth_window=5, iv_trace=None, temperature=300.0, {TAIL}"),
    "fringe.cfg": (
        f"ScenarioConfig(mode='fringe', channel={CHANNEL}, s=0.48, nu=0.02, "
        "omega=0.001, p_z=1.0, q_proto=0.5, f_ec=1.2, mu_leak=0.0, "
        "distance_min=0.0, distance_max=0.0, step=1.0, emission=(), "
        "reference_trace=PosixPath('configs/../data/fringe_reference.csv'), "
        "unknown_trace=PosixPath('configs/../data/fringe_voa.csv'), "
        "lambda_ref_nm=1550.82, smooth_window=5, iv_trace=None, "
        f"temperature=300.0, {TAIL}"),
    "ivfit.cfg": (
        f"ScenarioConfig(mode='iv_fit', channel={CHANNEL}, s=0.48, nu=0.02, "
        "omega=0.001, p_z=1.0, q_proto=0.5, f_ec=1.2, mu_leak=0.0, "
        "distance_min=0.0, distance_max=0.0, step=1.0, emission=(), "
        "reference_trace=None, unknown_trace=None, lambda_ref_nm=None, "
        "smooth_window=5, iv_trace=PosixPath('configs/../data/iv_trace.csv'), "
        f"temperature=300.0, {TAIL}"),
    "device.cfg": (
        f"ScenarioConfig(mode='device', channel={CHANNEL}, s=0.48, nu=0.02, "
        "omega=0.001, p_z=1.0, q_proto=0.5, f_ec=1.2, mu_leak=0.0, "
        "distance_min=0.0, distance_max=0.0, step=1.0, emission=("
        "EmissionSpec(drive_voltage=1.4, count_rate=23800000.0, pulse_width=2e-10), "
        "EmissionSpec(drive_voltage=1.4, count_rate=23800000.0, pulse_width=1.6e-09), "
        "EmissionSpec(drive_voltage=2.0, count_rate=58200000.0, pulse_width=1.6e-09)), "
        "reference_trace=None, unknown_trace=None, lambda_ref_nm=None, "
        f"smooth_window=5, iv_trace=None, temperature=300.0, {TAIL}"),
}


def _shipped(name):
    text = (CONFIGS / name).read_text()
    return config_from_mapping(parse_config_text(text), base_dir="configs")


@pytest.mark.skipif(os.name != "posix", reason="the pinned paths are POSIX paths")
@pytest.mark.parametrize("name", list(REPRS))
def test_record_repr_of_the_shipped_configs(name):
    assert repr(_shipped(name)) == REPRS[name]


def test_wavelength_result_repr(monkeypatch):
    monkeypatch.chdir(CONFIGS.parent)
    assert repr(run_scenario(_shipped("fringe.cfg"))) == (
        "WavelengthResult(wavelength_nm=1077.8549864253391, "
        "reference=ExtremaPair(u_max=0.9500000000000001, u_min=1.6), "
        "unknown=ExtremaPair(u_max=0.66, u_min=1.26))")


SCAN = dict(voltages=np.array([0.0, 0.5, 1.0]), counts=np.array([1.0, 2.0, 3.0]))
IV = dict(voltages=np.array([0.0, 0.5, 1.0]), currents=np.array([0.0, 1e-6, 1e-3]))
# (record class, valid fields, one bad field)
CHECKED = [
    (ChannelParams, {}, {"e_d": 0.75}),
    (DecoyObservations,
     dict(s=0.48, nu=0.02, omega=0.001, q_s=0.01, q_nu=5e-4, q_omega=2e-5,
          e_s=0.01, e_nu=0.03, e_omega=0.5),
     {"q_s": 0.0}),
    (SinglePhotonBounds,
     dict(y1_lower=0.5, e1_upper=0.1, q1_lower=0.15, y0_lower=1e-6),
     {"e1_upper": 0.6}),
    (FringeTrace, SCAN, {"counts": np.array([1.0, -2.0, 3.0])}),
    (ExtremaPair, dict(u_max=1.0, u_min=2.0), {"u_min": 1.0}),
    (EmissionSpec, dict(drive_voltage=2.0, count_rate=5.82e7, pulse_width=1.6e-9),
     {"pulse_width": 0.0}),
    (ScenarioConfig, dict(mode="passive_tha"), {"f_ec": 0.5}),
    (CarrierState, dict(delta_n_e=1e17, delta_n_h=1e17), {"delta_n_h": -1.0}),
    (IvCurve, IV, {"voltages": np.array([0.0, 1.0, 0.5])}),
]


@pytest.mark.parametrize("cls, fields, bad", CHECKED,
                         ids=[case[0].__name__ for case in CHECKED])
def test_constructor_checks_and_unchecked_paths_do_not(cls, fields, bad):
    good = cls(**fields)
    with pytest.raises(VoaleakError):
        cls(**{**fields, **bad})
    (name, value), = bad.items()
    # The checked copy the tests use goes through the constructor too.
    with pytest.raises(VoaleakError):
        type(good)(**{**vars(good), **bad})
    built = unchecked(cls, {**vars(good), **bad})
    copied = replace(good, **bad)
    assert getattr(built, name) is value
    assert getattr(copied, name) is value
    assert getattr(good, name) is not value


# ============================================================
# Numbers enter once: one non-float64 value in one numeric argument
# ============================================================

# Values that are not float64 numbers. A Python bool is an int, and
# passes where its 0 or 1 lies in range; every other kind is refused.
NON_FLOATS = st.one_of(
    st.decimals(), st.fractions(), st.text(max_size=4), st.none(),
    st.complex_numbers(), st.booleans(),
    st.floats(width=32).map(np.float32), st.floats(width=16).map(np.float16),
    st.floats().map(np.longdouble), st.integers(-2 ** 62, 2 ** 62).map(np.timedelta64),
    st.integers(-2 ** 40, 2 ** 40).map(lambda n: np.datetime64(n, "s")),
    st.booleans().map(np.bool_),
    st.lists(st.floats(), min_size=1, max_size=4).map(lambda xs: np.array(xs, object)),
    st.lists(st.text(max_size=3), min_size=1, max_size=4).map(np.array))


def _run(**fields):
    # Rendered, so that a result of the wrong shape cannot pass as returned.
    return result_to_text(run_scenario(ScenarioConfig(**fields)))


def _run_window(lo, hi, **fields):
    return _run(windows=((lo, hi),), **fields)


DECOY = dict(s=0.48, nu=0.02, omega=0.001, q_s=0.01, q_nu=5e-4, q_omega=2e-5,
             e_s=0.01, e_nu=0.03, e_omega=0.5)
OBS = DecoyObservations(**DECOY)
# Each public callable and record with a numeric argument, with valid
# arguments: (name, callable, arguments). Every int, float or list among
# the arguments is a numeric argument; a list is a scan column.
CALLS = [
    ("ChannelParams", ChannelParams, vars(ChannelParams())),
    ("CarrierState", CarrierState, dict(delta_n_e=1e17, delta_n_h=1e17)),
    ("EmissionSpec", EmissionSpec,
     dict(drive_voltage=2.0, count_rate=5.82e7, pulse_width=1.6e-9)),
    ("DecoyObservations", DecoyObservations, DECOY),
    ("SinglePhotonBounds", SinglePhotonBounds,
     dict(y1_lower=0.5, e1_upper=0.1, q1_lower=0.15, y0_lower=1e-6, clamp_events=0)),
    ("ExtremaPair", ExtremaPair, dict(u_max=1.0, u_min=2.0)),
    ("ScenarioConfig-passive_tha", _run,
     dict(mode="passive_tha", s=0.48, nu=0.02, omega=0.001, p_z=1.0, f_ec=1.2,
          mu_leak=0.01, distance_min=0.0, distance_max=2.0, step=1.0)),
    ("ScenarioConfig-dual_source", _run, dict(mode="dual_source", q_proto=0.5)),
    ("ScenarioConfig-fringe", _run,
     dict(mode="fringe", reference_trace=DATA / "fringe_reference.csv",
          unknown_trace=DATA / "fringe_voa.csv", lambda_ref_nm=1550.82, smooth_window=5)),
    ("ScenarioConfig-iv_fit", _run_window,
     dict(mode="iv_fit", iv_trace=DATA / "iv_trace.csv", temperature=300.0,
          lo=0.0, hi=0.45)),
    ("FringeTrace", FringeTrace, dict(voltages=[0.0, 0.5, 1.0], counts=[1.0, 2.0, 3.0])),
    ("IvCurve", IvCurve, dict(voltages=[0.0, 0.5, 1.0], currents=[0.0, 1e-6, 1e-3])),
    ("observables_for_intensity", observables_for_intensity,
     dict(gamma=0.48, mu_el=0.01, ch=ChannelParams())),
    ("binary_entropy", binary_entropy, dict(x=0.1)),
    ("coin_imbalance", coin_imbalance, dict(mu=0.1)),
    ("phase_error_with_tha", phase_error_with_tha, dict(e_x=0.02, delta_prime=0.1)),
    ("gllp_key_rate", gllp_key_rate,
     dict(obs=OBS, bounds=single_photon_bounds(OBS), mu_eve=0.1, p_z=1.0, f_ec=1.2)),
    ("dual_source_key_rate", dual_source_key_rate,
     dict(obs=OBS, bounds=single_photon_bounds(OBS), q_proto=0.5, f_ec=1.2)),
    ("calibrated_intensity", calibrated_intensity,
     dict(q_observed=0.01, eta=0.1, y0=1e-6)),
    ("plasma_dispersion_general", plasma_dispersion_general,
     dict(carriers=CarrierState(1e17, 1e17), wavelength=1550.0)),
    ("attenuation_db", attenuation_db, dict(delta_alpha=1.0, length=0.1)),
    ("attenuation_from_counts", attenuation_from_counts,
     dict(counts_on=1e5, counts_off=2e5)),
    ("bandgap_wavelength", bandgap_wavelength, dict(e_g=1.12)),
    ("fit_ideality", fit_ideality,
     dict(iv=load_trace(DATA / "iv_trace.csv", "iv"), v_lo=0.0, v_hi=0.45,
          temperature=300.0)),
    ("find_extrema_pair", find_extrema_pair,
     dict(trace=load_trace(DATA / "fringe_reference.csv", "fringe"), smooth_window=5)),
    ("center_wavelength", center_wavelength,
     dict(lambda_ref=1550.82, reference=ExtremaPair(0.95, 1.6),
          unknown=ExtremaPair(0.66, 1.26))),
]
ARGUMENTS = [(name, call, fields, arg) for name, call, fields in CALLS
             for arg, value in fields.items() if isinstance(value, (int, float, list))]


def _with(fields, arg, value):
    # The arguments with value in arg: a scalar in the middle of a scan
    # column, an array in place of it.
    column = fields[arg]
    if isinstance(column, list) and not isinstance(value, np.ndarray):
        value = [*column[:1], value, *column[2:]]
    return {**fields, arg: value}


@pytest.mark.parametrize("name, call, fields", CALLS, ids=[c[0] for c in CALLS])
def test_each_baseline_call_returns(name, call, fields):
    call(**fields)


@pytest.mark.parametrize("call, fields, arg", [a[1:] for a in ARGUMENTS],
                         ids=[f"{a[0]}.{a[3]}" for a in ARGUMENTS])
@settings(max_examples=20, deadline=None)
@given(value=NON_FLOATS)
@example(value=Decimal("0.5"))
@example(value=Fraction(1, 2))
@example(value="0.5")
@example(value=None)
@example(value=0.5 + 0j)
@example(value=True)
@example(value=np.float32(0.5))
@example(value=np.float16(0.5))
@example(value=np.longdouble(0.5))
@example(value=np.timedelta64(1))
@example(value=np.datetime64(1, "s"))
@example(value=np.bool_(True))
@example(value=np.array([0.5], object))
@example(value=np.array(["0.5"]))
def test_a_non_float_argument_returns_or_raises_a_voaleak_error(call, fields, arg, value):
    try:
        call(**_with(fields, arg, value))
    except VoaleakError:
        pass


# The config key each numeric argument of a ScenarioConfig call sets.
CONFIG_KEYS = {field: key for rows in _KEYS.values() for key, field, *_ in rows}
CONFIG_KEYS.update(lo="ivfit.windows", hi="ivfit.windows")


@pytest.mark.parametrize("call, fields, arg",
                         [a[1:] for a in ARGUMENTS if a[0].startswith("ScenarioConfig")],
                         ids=[f"{a[0]}.{a[3]}" for a in ARGUMENTS
                              if a[0].startswith("ScenarioConfig")])
@settings(max_examples=10, deadline=None)
@given(value=arrays(st.sampled_from([np.float64, np.int64]), st.integers(2, 4)))
@example(value=np.array([0.5, 1.0]))
@example(value=np.array([1, 3, 5]))
def test_an_array_in_a_config_number_is_named_by_its_key(call, fields, arg, value):
    # A config field takes one number; an array of them is refused by key.
    with pytest.raises(ConfigurationError, match=re.escape(CONFIG_KEYS[arg])):
        call(**_with(fields, arg, value))


IV_FIT = dict(mode="iv_fit", iv_trace=DATA / "iv_trace.csv")
FRINGE = dict(mode="fringe", reference_trace=DATA / "fringe_reference.csv",
              unknown_trace=DATA / "fringe_voa.csv", lambda_ref_nm=1550.82)
SPEC = EmissionSpec(count_rate=1.0, pulse_width=1e-9)


@pytest.mark.parametrize("fields, message", [
    (dict(mode="passive_tha", channel=ChannelParams(alpha_sig=np.array([0.2, 0.3]))),
     "channel.alpha_sig: expected a number, got array([0.2, 0.3])"),
    (dict(mode="passive_tha", channel=ChannelParams(y0=np.array([1e-6, 2e-6]))),
     "channel.y0: expected a number, got array([1.e-06, 2.e-06])"),
    (dict(IV_FIT, windows=((np.array([0.0, 0.1]), np.array([0.45, 0.5])),)),
     "ivfit.windows (v_lo and v_hi must be numbers, got array([0. , 0.1]) "
     "and array([0.45, 0.5 ]))"),
    (dict(mode="passive_tha", channel=None),
     "channel: expected a ChannelParams, got None"),
    (dict(mode="dual_source", channel={"y0": 0.1}),
     "channel: expected a ChannelParams, got {'y0': 0.1}"),
    (dict(mode="device", emission=(1,)),
     "emission (at least one emission.N.* block or EmissionSpec)"),
    (dict(mode="device", emission=SPEC),
     "emission (at least one emission.N.* block or EmissionSpec)"),
    (dict(IV_FIT, windows=5), "ivfit.windows: expected lo:hi pairs, got 5"),
    (dict(IV_FIT, windows=((1,),)), "ivfit.windows: expected lo:hi pairs, got ((1,),)"),
    (dict(IV_FIT, iv_trace=5), "ivfit.trace: expected a file path, got 5"),
    (dict(FRINGE, reference_trace=5), "fringe.reference_trace: expected a file path, got 5"),
], ids=["channel-alpha-array", "channel-y0-array", "window-edge-arrays", "channel-none",
        "channel-dict", "emission-int", "emission-bare", "windows-int", "window-one-edge",
        "iv-trace-int", "reference-trace-int"])
def test_a_field_of_the_wrong_kind_is_named(fields, message):
    # Given through the Python API: refused at construction, not in the run.
    with pytest.raises(ConfigurationError) as info:
        ScenarioConfig(**fields)
    assert str(info.value) == f"invalid configuration fields: {message}"


@pytest.mark.parametrize("fields", [
    dict(mode="passive_tha", step=np.array(1.0), distance_max=np.array(2.0)),
    dict(IV_FIT, iv_trace=str(DATA / "iv_trace.csv"), windows=[[0.0, 0.45], [0.5, 0.8]]),
    dict(FRINGE, reference_trace=str(DATA / "fringe_reference.csv")),
    dict(mode="device", emission=[SPEC, SPEC]),
], ids=["0-d-arrays", "str-path-window-lists", "str-path", "emission-list"])
def test_the_kinds_each_field_takes_run(fields):
    _run(**fields)
