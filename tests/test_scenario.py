"""Config parsing, scenario evaluation, trace IO, and the CLI."""

import io
import math
import os
import re
import sys
import tempfile
import threading
import urllib.request
from contextlib import redirect_stderr, redirect_stdout
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import voaleak.scenario as scenario
from voaleak import (
    ChannelParams,
    ConfigurationError,
    DecoyObservations,
    DomainError,
    FringeTrace,
    InsufficientDataError,
    IvCurve,
    ScenarioConfig,
    SweepResult,
    TraceParseError,
    TraceSchemaError,
    dual_source_key_rate,
    emit_results,
    find_extrema_pair,
    fit_ideality,
    gllp_key_rate,
    load_config,
    load_trace,
    observables_for_intensity,
    read_results,
    run_scenario,
    save_trace,
    single_photon_bounds,
)
from voaleak.cli import main
from voaleak.errors import unchecked
from voaleak.scenario import (
    FRINGE_HEADER,
    IV_HEADER,
    MAX_SWEEP_POINTS,
    RESULT_HEADER,
    WAVELENGTH_HEADER,
    apply_overrides,
    config_from_mapping,
    parse_config_text,
    result_to_text,
    sweep_distances,
    sweep_to_text,
)
from helpers import (
    VERDICTS,
    _ref_passive_rate,
    parse_config_text_reference,
    passive_cutoff,
    passive_mu_max,
    read_table_reference,
    render_reference,
    scalar_reference_sweep,
    shockley_curve,
    synthetic_fringe,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = CONFIGS.parent / "data"
# Column numbers of the results table.
BASELINE, CONTAMINATED, Q_S, E_S = (
    RESULT_HEADER.split(",").index(name)
    for name in ("rate_baseline", "rate_contaminated", "q_s", "e_s"))


def _no_cell(text):
    # In place of scenario._cell where the exact reader must read the
    # table: the line reader reads every cell through _cell.
    raise AssertionError(f"the line reader read the cell {text!r}")


def _cell_spy(monkeypatch) -> list[str]:
    """The cells the line reader reads from now on, in order."""
    cells, cell = [], scenario._cell

    def spy(text):
        cells.append(text)
        return cell(text)

    monkeypatch.setattr(scenario, "_cell", spy)
    return cells


def _config_text():
    """Config text from blank, whitespace-only and comment lines (with and
    without '='), key=value lines with '=' or '#' in the value, lines
    without '=' or with an empty key, and keys drawn from a few names, so
    that some repeat."""
    pad = st.sampled_from(["", " ", "\t", " \t", "\xa0"])
    key = st.sampled_from(["", "a", "b", "mode", "channel.y0", "a b", "#a"])
    value = st.sampled_from(["", "1", "x=y", "=", "#c", "a = b", "1 # 2"])
    pair = st.builds(lambda *parts: "".join(parts), pad, key, pad,
                     st.sampled_from(["=", ""]), pad, value, pad)
    comment = st.builds(lambda p, body: f"{p}#{body}", pad,
                        st.sampled_from(["", " note", "a=1", "=", "#", " a = b"]))
    lines = st.lists(st.one_of(pair, comment, pad), max_size=12)
    return st.builds(lambda ls, end: end.join(ls), lines,
                     st.sampled_from(["\n", "\r\n", "\n\n"]))


class TestParseConfigText:
    def test_skips_blanks_and_comments(self):
        text = "# header comment\n\na = 1\n  # indented comment\nb=2\n"
        assert parse_config_text(text) == {"a": "1", "b": "2"}

    def test_duplicate_key_reports_line(self):
        with pytest.raises(ConfigurationError, match="cfg:3.*duplicate.*'a'"):
            parse_config_text("a=1\nb=2\na=3\n", source="cfg")

    def test_malformed_line_reports_line(self):
        with pytest.raises(ConfigurationError, match=":2.*key=value"):
            parse_config_text("a=1\njust words\n")

    def test_empty_key_rejected(self):
        with pytest.raises(ConfigurationError, match="key=value"):
            parse_config_text("=5\n")

    @settings(max_examples=500, deadline=None)
    @given(text=st.one_of(_config_text(), st.text("ab.=# \t\r\n\x0b\xa0", max_size=40)))
    def test_matches_reference_parser(self, text):
        try:
            expected = parse_config_text_reference(text, source="cfg")
        except ConfigurationError as exc:
            with pytest.raises(ConfigurationError) as info:
                parse_config_text(text, source="cfg")
            assert str(info.value) == str(exc)
            return
        got = parse_config_text(text, source="cfg")
        assert list(got.items()) == list(expected.items())


class TestOverrides:
    def test_replace_and_add(self):
        data = {"a": "1"}
        apply_overrides(data, ["a=2", "b=3"])
        assert data == {"a": "2", "b": "3"}

    def test_malformed_override(self):
        with pytest.raises(ConfigurationError, match="override"):
            apply_overrides({}, ["nonsense"])


class TestConfigFromMapping:
    def test_minimal_defaults(self):
        cfg = config_from_mapping({"mode": "passive_tha"})
        assert cfg.s == 0.48 and cfg.nu == 0.02 and cfg.omega == 0.001
        assert cfg.channel.e_d == 0.0061 and cfg.mu_leak == 0.0

    def test_missing_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            config_from_mapping({})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unrecognized.*sweep.stpe"):
            config_from_mapping({"mode": "passive_tha", "sweep.stpe": "1"})

    def test_e0_from_conventions(self):
        ch = config_from_mapping({"mode": "passive_tha",
                                  "conventions.e0": "0.4"}).channel
        assert ch.e0 == 0.4

    # Each shipped config plus one key, with a value valid where it is
    # read, that its mode does not read; channel.e0 no mode reads.
    @pytest.mark.parametrize("config, key, value", [
        ("passive_tha.cfg", "channel.e0", "0.5"),
        ("passive_tha.cfg", "conventions.q_proto", "0.5"),
        ("passive_tha.cfg", "ivfit.temperature", "300"),
        ("passive_tha.cfg", "emission.1.count_rate", "1e7"),
        ("dual_source.cfg", "channel.e0", "0.5"),
        ("dual_source.cfg", "conventions.p_z", "0.5"),
        ("dual_source.cfg", "fringe.lambda_ref_nm", "1550"),
        ("fringe.cfg", "conventions.e0", "0.5"),
        ("fringe.cfg", "ivfit.windows", "0.1:0.5"),
        ("ivfit.cfg", "fringe.smooth_window", "5"),
        ("ivfit.cfg", "leakage.mu", "0.01"),
        ("device.cfg", "intensities.s", "0.5"),
        ("device.cfg", "conventions.f_ec", "1.2"),
        ("device.cfg", "ivfit.trace", "../data/iv_trace.csv"),
    ])
    def test_key_the_mode_does_not_read(self, config, key, value):
        data = parse_config_text((CONFIGS / config).read_text())
        data[key] = value
        with pytest.raises(ConfigurationError) as info:
            config_from_mapping(data, base_dir=CONFIGS)
        assert str(info.value) == f"unrecognized keys: {key}"

    def test_leakage_mu_direct(self):
        cfg = config_from_mapping({"mode": "passive_tha", "leakage.mu": "0.05"})
        assert cfg.mu_leak == 0.05

    def test_leakage_from_count_rate(self):
        cfg = config_from_mapping({
            "mode": "passive_tha",
            "leakage.drive_voltage": "2.0",
            "leakage.count_rate": "5.82e7",
            "leakage.pulse_width": "1.6e-9",
        })
        assert cfg.mu_leak == pytest.approx(0.09774514191987614, rel=1e-12)

    # A shape error: a leakage.mu that does not parse is still given.
    @pytest.mark.parametrize("mu", ["0.1", "x"])
    def test_leakage_forms_are_exclusive(self, mu):
        with pytest.raises(ConfigurationError, match="not both"):
            config_from_mapping({"mode": "passive_tha", "leakage.mu": mu,
                                 "leakage.count_rate": "1e7"})

    # The drive voltage only labels a block, which still needs both of
    # EmissionSpec's fields without a default.
    @pytest.mark.parametrize("key, value", [("leakage.count_rate", "1e7"),
                                            ("leakage.drive_voltage", "2")])
    def test_count_rate_needs_pulse_width(self, key, value):
        with pytest.raises(ConfigurationError) as info:
            config_from_mapping({"mode": "passive_tha", key: value})
        assert str(info.value) == (
            "leakage.count_rate and leakage.pulse_width must be given together")

    def test_emission_numbering_must_be_contiguous(self):
        with pytest.raises(ConfigurationError, match="1..N"):
            config_from_mapping({
                "mode": "device",
                "emission.1.count_rate": "1e7",
                "emission.1.pulse_width": "1e-9",
                "emission.3.count_rate": "1e7",
                "emission.3.pulse_width": "1e-9",
            })

    # A block number n >= 1 is read only as str(int(n)) writes it, and an error
    # quotes the key as the config wrote it.
    @pytest.mark.parametrize("number", ["0", "01", "00", "\u0661"])
    def test_emission_number_is_written_plainly(self, number):
        key = f"emission.{number}.count_rate"
        with pytest.raises(ConfigurationError) as info:
            config_from_mapping({"mode": "device", key: "1e7",
                                 f"emission.{number}.pulse_width": "1e-9"})
        assert str(info.value) == (
            f"emission keys must look like emission.N.field, got {key!r}")

    # float() ignores the whitespace around each edge.
    @pytest.mark.parametrize("text", ["0.0:0.45, 0.5:0.8", " 0 : 0.45 ,0.5:0.8"])
    def test_windows_parsing(self, text):
        cfg = config_from_mapping({
            "mode": "iv_fit", "ivfit.trace": "t.csv", "ivfit.windows": text,
        })
        assert cfg.windows == ((0.0, 0.45), (0.5, 0.8))

    @pytest.mark.parametrize("text", ["0.0-0.45", "a:b", "0:1:2", "", "0:1,"])
    def test_windows_malformed(self, text):
        with pytest.raises(ConfigurationError) as info:
            config_from_mapping({"mode": "iv_fit", "ivfit.trace": "t.csv",
                                 "ivfit.windows": text})
        assert str(info.value) == ("invalid configuration fields: ivfit.windows: "
                                   f"expected lo:hi pairs, got {text!r}")

    def test_relative_paths_resolve_against_base_dir(self, tmp_path):
        cfg = config_from_mapping(
            {"mode": "fringe", "fringe.reference_trace": "traces/ref.csv",
             "fringe.unknown_trace": "/abs/unk.csv",
             "fringe.lambda_ref_nm": "1550.82"},
            base_dir=tmp_path)
        assert cfg.reference_trace == tmp_path / "traces" / "ref.csv"
        assert cfg.unknown_trace == Path("/abs/unk.csv")

    def test_bad_channel_value_becomes_config_error(self):
        with pytest.raises(ConfigurationError, match="channel"):
            config_from_mapping({"mode": "passive_tha",
                                 "channel.eta_bob_sig": "1.7"})


class TestScenarioConfigValidation:
    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            ScenarioConfig(mode="nope")

    def test_offending_fields_all_reported(self):
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(mode="passive_tha", step=-1.0, mu_leak=-2.0)
        assert "sweep.step" in str(info.value)
        assert "leakage.mu" in str(info.value)

    def test_fringe_mode_requires_traces(self):
        with pytest.raises(ConfigurationError, match="reference_trace"):
            ScenarioConfig(mode="fringe", lambda_ref_nm=1550.0)

    def test_fringe_mode_requires_reference_wavelength(self):
        # Left out, the key is named as required; given, 0 and nan are
        # outside its interval.
        traces = {"reference_trace": Path("r.csv"), "unknown_trace": Path("u.csv")}
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(mode="fringe", **traces)
        assert str(info.value) == ("invalid configuration fields: "
                                   "fringe.lambda_ref_nm (required)")
        for value in (0.0, math.nan):
            with pytest.raises(ConfigurationError, match=re.escape(
                    f"fringe.lambda_ref_nm must be finite and > 0, got {value!r}")):
                ScenarioConfig(mode="fringe", lambda_ref_nm=value, **traces)

    def test_names_keep_their_order_across_numeric_and_trace_keys(self):
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(mode="fringe")
        assert str(info.value) == (
            "invalid configuration fields: fringe.lambda_ref_nm (required); "
            "fringe.reference_trace (required); fringe.unknown_trace (required)")
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(mode="iv_fit", temperature=-1.0)
        assert str(info.value) == (
            "invalid configuration fields: ivfit.temperature must be finite "
            "and > 0, got -1.0; ivfit.trace (required)")
        with pytest.raises(ConfigurationError) as info:
            config_from_mapping({"mode": "fringe", "fringe.reference_trace": "",
                                 "fringe.smooth_window": "x",
                                 "fringe.lambda_ref_nm": "0"})
        assert str(info.value) == (
            "invalid configuration fields: fringe.smooth_window: expected an "
            "integer, got 'x'; fringe.reference_trace: expected a file path, "
            "got ''; fringe.lambda_ref_nm must be finite and > 0, got 0.0; "
            "fringe.unknown_trace (required)")

    def test_iv_fit_mode_requires_a_window(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "ivfit.windows (at least one lo:hi window)")):
            ScenarioConfig(mode="iv_fit", iv_trace=Path("iv.csv"), windows=())

    def test_device_mode_requires_emission(self):
        with pytest.raises(ConfigurationError, match="emission"):
            ScenarioConfig(mode="device")

    def test_interval_messages_name_the_key(self):
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(mode="dual_source", step=-1.0, q_proto=2.0, f_ec=math.nan)
        assert str(info.value) == (
            "invalid configuration fields: "
            "sweep.step must be finite and > 0, got -1.0; "
            "conventions.f_ec must be finite and >= 1, got nan; "
            "conventions.q_proto must lie in (0, 1], got 2.0")

    def test_grid_rules_join_the_other_fields(self):
        # The grid is sized while another field is bad, and both are named.
        with pytest.raises(ConfigurationError) as info:
            ScenarioConfig(mode="passive_tha", distance_max=1e300, p_z=0.0)
        assert "conventions.p_z" in str(info.value)
        assert "grid exceeds" in str(info.value)
        with pytest.raises(ConfigurationError, match=(
                r"sweep\.distance_max \(must be >= sweep\.distance_min\)")):
            ScenarioConfig(mode="passive_tha", distance_min=2.0, distance_max=1.0)

    @pytest.mark.parametrize("distance_min, distance_max, step", [
        # The points 1e16, 1e16 + 2, ..., 1e16 + 8 are five distinct
        # doubles, but a step of 2 is not more than 2 ulp(1e16 + 8) = 4,
        # so points could coincide and the rule rejects it (README).
        (1e16, 1e16 + 8, 2.0),
    ])
    def test_grid_points_must_be_distinct(self, distance_min, distance_max, step):
        with pytest.raises(ConfigurationError, match=re.escape(
                "sweep.step (too small for distinct grid points at these distances)")):
            ScenarioConfig(mode="passive_tha", distance_min=distance_min,
                           distance_max=distance_max, step=step)

    # NaN and +-inf are among the boundary cases of tests/test_boundaries.py.
    @pytest.mark.parametrize("window", [5.0, 4, -3])
    def test_smooth_window_must_be_an_odd_integer(self, window):
        with pytest.raises(ConfigurationError, match=r"fringe\.smooth_window"):
            ScenarioConfig(mode="fringe", reference_trace=Path("r.csv"),
                           unknown_trace=Path("u.csv"), lambda_ref_nm=1550.0,
                           smooth_window=window)

    def test_each_sweep_mode_checks_only_its_convention(self):
        # Neither rate reads the other mode's convention, and
        # config_from_mapping rejects its key, so its value is not checked.
        ScenarioConfig(mode="passive_tha", q_proto=0.0)
        ScenarioConfig(mode="dual_source", p_z=0.0)
        with pytest.raises(ConfigurationError, match=r"conventions\.p_z"):
            ScenarioConfig(mode="passive_tha", p_z=0.0)
        with pytest.raises(ConfigurationError, match=r"conventions\.q_proto"):
            ScenarioConfig(mode="dual_source", q_proto=0.0)


# Smoothing windows and fit-window edges of every kind: Python ints within
# and beyond a double, floats with signed zeros, infinities and nan, numpy
# integer and float scalars, bools, text, Decimals and arrays of floats.
_RULE_VALUES = st.one_of(
    st.integers(-9, 9), st.integers(-10**400, 10**400), st.floats(0.0, 1.0),
    st.floats(), st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
    st.sampled_from([np.int8, np.uint8, np.int64, np.uint64]).flatmap(
        lambda t: st.integers(np.iinfo(t).min, np.iinfo(t).max).map(t)),
    st.floats().map(np.float64), st.floats(width=32).map(np.float32),
    st.booleans(), st.text(max_size=3), st.decimals(),
    st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3).map(np.array))
_IV = IvCurve(*shockley_curve(2.0))
_FRINGE = FringeTrace(*synthetic_fringe(3.0, 0.4))


def _refuses(error, build) -> bool:
    # Whether build() raises error. Too few samples for the window is not
    # a refusal of it, and any other error fails the test.
    try:
        build()
    except error:
        return True
    except InsufficientDataError:
        pass
    return False


class TestConfigRulesAreTheLayers:
    """ScenarioConfig refuses a smoothing window or a fit window exactly
    when the layer that reads it raises DomainError for it."""

    @settings(max_examples=300, deadline=None)
    @given(window=st.tuples(_RULE_VALUES, _RULE_VALUES))
    @example(window=(0, 10**400))
    @example(window=(np.array([0.0, 0.1]), np.array([0.45, 0.5])))
    def test_fit_window(self, window):
        # The trace's currents are positive and its fit slope too, so the
        # window is fit_ideality's only source of a DomainError.
        assert _refuses(ConfigurationError, lambda: ScenarioConfig(
            mode="iv_fit", iv_trace=Path("iv.csv"), windows=(window,))) == \
            _refuses(DomainError, lambda: fit_ideality(_IV, *window))

    @settings(max_examples=300, deadline=None)
    @given(window=_RULE_VALUES)
    def test_smoothing_window(self, window):
        assert _refuses(ConfigurationError, lambda: ScenarioConfig(
            mode="fringe", reference_trace=Path("r.csv"), unknown_trace=Path("u.csv"),
            lambda_ref_nm=1550.0, smooth_window=window)) == \
            _refuses(DomainError, lambda: find_extrema_pair(_FRINGE, window))


@st.composite
def _grids_near_edges(draw):
    # (distance_min, distance_max, step) a few ulps from a binade edge 2**e or
    # below the largest double, with a step of a quarter to four ulps there and
    # up to eight steps from min to max, capped at the largest double.
    edge = draw(st.one_of(st.integers(-30, 1023).map(lambda e: 2.0 ** e),
                          st.just(sys.float_info.max)))
    ulp = math.ulp(edge)
    distance_min = edge + draw(st.integers(-8, 8)) * ulp / 2
    step = draw(st.integers(1, 16)) * ulp / 4
    assume(math.isfinite(distance_min))
    distance_max = min(distance_min + draw(st.integers(0, 8)) * step,
                       sys.float_info.max)
    return distance_min, distance_max, step


class TestGridRule:
    """The grid rule keeps each point of an accepted grid a distinct finite
    double, and accepts every grid whose step is more than twice the spacing
    of the doubles at its last point."""

    @settings(max_examples=300, deadline=None)
    @given(grid=_grids_near_edges())
    # 10 points 5e292 apart below the largest double, where ulp is 2**971.
    @example(grid=(sys.float_info.max - 5e293, sys.float_info.max, 5e292))
    def test_grid_near_binade_edges(self, grid):
        distance_min, distance_max, step = grid
        fields = dict(mode="passive_tha", distance_min=distance_min,
                      distance_max=distance_max, step=step)
        # The grid the config sweeps, built without the config's checks.
        points = sweep_distances(unchecked(ScenarioConfig, fields))
        last = points[-1]
        loss_finite = all(math.isfinite(alpha * last) for alpha in (
            ChannelParams.alpha_sig, ChannelParams.alpha_par))
        try:
            ScenarioConfig(**fields)
        except ConfigurationError:
            assert not (len(points) >= 2 and math.isfinite(last)
                        and step > 2.0 * math.ulp(last) and loss_finite)
            return
        assert np.isfinite(points).all()
        assert (np.diff(points) > 0.0).all()
        assert len(points) <= MAX_SWEEP_POINTS


class TestSweepDistances:
    def test_single_point(self):
        cfg = ScenarioConfig(mode="passive_tha", distance_min=7.0,
                             distance_max=7.0, step=1.0)
        assert sweep_distances(cfg) == [7.0]

    def test_unit_grid(self):
        cfg = ScenarioConfig(mode="passive_tha", distance_max=400.0)
        d = sweep_distances(cfg)
        assert len(d) == 401
        assert d[0] == 0.0 and d[-1] == 400.0

    def test_endpoint_survives_rounding(self):
        cfg = ScenarioConfig(mode="passive_tha", distance_max=0.3, step=0.1)
        d = sweep_distances(cfg)
        assert len(d) == 4
        assert d[-1] == pytest.approx(0.3, rel=1e-12)


class TestSweepEvaluation:
    def test_passive_sweep_deterministic(self):
        cfg = ScenarioConfig(mode="passive_tha", mu_leak=0.0977,
                             distance_max=5.0)
        a = sweep_to_text(run_scenario(cfg))
        b = sweep_to_text(run_scenario(cfg))
        assert a == b

    def test_passive_contamination_never_helps(self):
        cfg = ScenarioConfig(mode="passive_tha", mu_leak=0.0977,
                             distance_max=20.0)
        for row in run_scenario(cfg).rows:
            assert row[CONTAMINATED] <= row[BASELINE]

    def test_dual_sweep_rows_carry_contaminated_observables(self):
        clean = ScenarioConfig(mode="dual_source", mu_leak=0.0,
                               distance_max=0.0)
        dirty = ScenarioConfig(mode="dual_source", mu_leak=0.0977,
                               distance_max=0.0)
        r0 = run_scenario(clean).rows[0]
        r1 = run_scenario(dirty).rows[0]
        assert r1[Q_S] > r0[Q_S]
        assert r1[E_S] > r0[E_S]
        assert r1[CONTAMINATED] < r1[BASELINE]
        assert r0[CONTAMINATED] == r0[BASELINE]


def replace(record, **changes):
    """A copy of record with changes, checked by its constructor."""
    return type(record)(**{**vars(record), **changes})


def _scalar_chain_row(cfg: ScenarioConfig, d: float) -> tuple[float, ...]:
    """The results row at distance d from the public functions on floats."""
    ch = replace(cfg.channel, distance=d)

    def decoy(mu_el):
        o = [observables_for_intensity(x, mu_el, ch) for x in (cfg.s, cfg.nu, cfg.omega)]
        obs = DecoyObservations(cfg.s, cfg.nu, cfg.omega, o[0].gain, o[1].gain,
                                o[2].gain, o[0].qber, o[1].qber, o[2].qber)
        return obs, single_photon_bounds(obs)

    if cfg.mode == "dual_source":
        base = dual_source_key_rate(*decoy(0.0), cfg.q_proto, cfg.f_ec)
        obs, bounds = decoy(cfg.mu_leak)
        leak = dual_source_key_rate(obs, bounds, cfg.q_proto, cfg.f_ec)
    else:
        obs, bounds = decoy(0.0)
        base, leak = (gllp_key_rate(obs, bounds, mu, p_z=cfg.p_z, f_ec=cfg.f_ec)
                      for mu in (0.0, cfg.mu_leak))
    return d, base, leak, obs.q_s, obs.e_s, bounds.y1_lower, bounds.e1_upper


@st.composite
def _sweep_configs(draw):
    """Sweep configs of either mode: 1-50 points, leaks of 0-0.05."""
    d0 = draw(st.floats(0.0, 250.0))
    step = draw(st.floats(0.05, 10.0))
    return ScenarioConfig(
        mode=draw(st.sampled_from(["passive_tha", "dual_source"])),
        s=draw(st.floats(0.2, 0.8)), nu=draw(st.floats(0.01, 0.1)),
        omega=draw(st.floats(0.0, 0.009)), p_z=draw(st.floats(0.5, 1.0)),
        q_proto=draw(st.floats(0.3, 0.6)), f_ec=draw(st.floats(1.0, 1.3)),
        mu_leak=draw(st.one_of(st.just(0.0), st.floats(0.0, 0.05))),
        distance_min=d0, distance_max=d0 + (draw(st.integers(1, 50)) - 1) * step,
        step=step)


class TestOneCodePath:
    """A sweep row is the scalar chain's result, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(cfg=_sweep_configs())
    def test_rows_equal_one_point_sweeps_and_the_scalar_chain(self, cfg):
        rows = run_scenario(cfg).rows
        distances = rows[:, 0].tolist()
        single = [run_scenario(replace(cfg, distance_min=d,
                                       distance_max=d)).rows[0]
                  for d in distances]
        chain = [_scalar_chain_row(cfg, d) for d in distances]
        assert _bits(rows) == _bits(single)
        assert _bits(rows) == _bits(chain)


def _reference_mismatch(cfg: ScenarioConfig) -> tuple[int, int, float]:
    """Compare a sweep with the per-point math reference at 1e-12 relative.

    A clipped rate may also miss by 1e-12 times its privacy term. Returns
    the number of cells that differ at all, the number of cells, and the
    largest relative difference among nonzero reference cells.
    """
    got = np.asarray(run_scenario(cfg).rows)
    rows, privacy = scalar_reference_sweep(cfg)
    want = np.asarray(rows)
    slack = np.zeros_like(want)
    slack[:, 1:3] = 1e-12 * np.asarray(privacy)
    err = np.abs(got - want)
    assert np.all(err <= 1e-12 * np.abs(want) + slack), np.max(err / (np.abs(want) + slack))
    nonzero = want != 0.0
    worst = float(np.max(err[nonzero] / np.abs(want[nonzero]), initial=0.0))
    return int(np.count_nonzero(got != want)), got.size, worst


class TestScalarReference:
    """The array sweep against the per-point `math` chain it replaced."""

    @pytest.mark.parametrize("name", ["passive_tha.cfg", "dual_source.cfg"])
    def test_shipped_configs(self, name):
        differ, cells, worst = _reference_mismatch(load_config(CONFIGS / name))
        VERDICTS.append(f"INFO {name} sweep vs per-point math reference: "
                        f"{differ} of {cells} cells differ, by at most "
                        f"{worst:.2g} relative")

    @settings(max_examples=60, deadline=None)
    @given(cfg=_sweep_configs())
    def test_drawn_configs(self, cfg):
        _reference_mismatch(cfg)

    @pytest.mark.parametrize("mu", [1.380649e-23, 1e-16, 1e-8, 1e-5])
    def test_tiny_passive_leaks(self, mu):
        # Delta' enters the rate through its square root, so even a leak
        # far below a double's epsilon moves the rate by more than 1e-12.
        cfg = replace(load_config(CONFIGS / "passive_tha.cfg"), mu_leak=mu)
        _reference_mismatch(cfg)


class TestPassiveLeakFrontier:
    """The largest leak each distance tolerates, found on the helpers'
    scalar chain, where the package's rate changes sign."""

    @pytest.mark.parametrize("distance, figure", [
        (0.0, 0.1849), (25.0, 0.05166), (50.0, 0.01573), (100.0, 1.548e-3),
        (200.0, 1.520e-5), (300.0, 3.950e-8)])
    def test_rate_changes_sign_at_mu_max(self, distance, figure):
        cfg = replace(load_config(CONFIGS / "passive_tha.cfg"),
                      distance_min=distance, distance_max=distance)
        mu_max = passive_mu_max(cfg, distance)
        assert float(f"{mu_max:.4g}") == figure
        below, above = (
            run_scenario(replace(cfg, mu_leak=mu_max * factor)).rows[0, CONTAMINATED]
            for factor in (1.0 - 1e-6, 1.0 + 1e-6))
        assert below > 0.0 and above == 0.0

    @settings(max_examples=25, deadline=None)
    @given(s=st.floats(0.2, 0.9), nu_share=st.floats(0.02, 0.3),
           omega_share=st.floats(0.0, 0.5), e_d=st.floats(0.0, 0.04),
           y0_decades=st.floats(-9.0, -5.0), reach=st.floats(0.0, 0.99))
    def test_rate_changes_sign_at_mu_max_of_drawn_configs(
            self, s, nu_share, omega_share, e_d, y0_decades, reach):
        # The distance is a share of the leak-free cutoff, where the
        # leak-free rate is positive.
        shipped = load_config(CONFIGS / "passive_tha.cfg")
        cfg = replace(shipped, s=s, nu=s * nu_share, omega=s * nu_share * omega_share,
                      channel=replace(shipped.channel, e_d=e_d, y0=10.0 ** y0_decades),
                      mu_leak=0.0, distance_min=0.0, distance_max=1000.0)
        assume(_ref_passive_rate(cfg, 0.0)(0.0) > 0.0)
        distance = reach * passive_cutoff(cfg)
        mu_max = passive_mu_max(cfg, distance)
        below, above = (
            run_scenario(replace(cfg, mu_leak=mu_max * factor, distance_min=distance,
                                 distance_max=distance)).rows[0, CONTAMINATED]
            for factor in (1.0 - 1e-6, 1.0 + 1e-6))
        assert below > 0.0 and above == 0.0

    def test_shipped_leak_cutoff(self):
        # The exact cutoff of the shipped leak is 12.143 km.
        cfg = load_config(CONFIGS / "passive_tha.cfg")
        before, after = (
            run_scenario(replace(cfg, distance_min=d, distance_max=d)).rows[0, CONTAMINATED]
            for d in (12.14, 12.15))
        assert before > 0.0 and after == 0.0

    def test_shipped_exact_cutoff(self):
        cutoff = passive_cutoff(load_config(CONFIGS / "passive_tha.cfg"))
        assert f"{cutoff:.3f}" == "12.143"

    @pytest.mark.parametrize("block, figure", [(1, 75.64), (2, 30.91), (3, 12.14)])
    def test_device_budget(self, block, figure):
        # The package's rate is positive 10 m before the exact cutoff and
        # zero 10 m past it.
        cfg = _device_leak(block)
        cutoff = passive_cutoff(cfg)
        assert round(cutoff, 2) == figure
        before, after = (
            run_scenario(replace(cfg, distance_min=d, distance_max=d)).rows[0, CONTAMINATED]
            for d in (cutoff - 0.01, cutoff + 0.01))
        assert before > 0.0 and after == 0.0

    def test_device_budget_of_the_gate(self):
        long_gate, short_gate = (passive_cutoff(_device_leak(block)) for block in (2, 1))
        gain = short_gate - long_gate
        VERDICTS.append(f"INFO device budget: the 1.4 V drive reaches {short_gate:.2f} km "
                        f"with a 0.2 ns gate and {long_gate:.2f} km with a 1.6 ns gate; "
                        f"the shorter gate buys {gain:.1f} km")
        assert 44.5 < gain < 45.0


def _device_leak(block: int) -> ScenarioConfig:
    # passive_tha.cfg with emission block N of device.cfg as its leak, set
    # through the overrides a user gives on the command line. Count rates
    # are referred to the chip's output (efficiency 1), as README states.
    spec = load_config(CONFIGS / "device.cfg").emission[block - 1]
    return load_config(CONFIGS / "passive_tha.cfg", [
        f"leakage.drive_voltage={spec.drive_voltage!r}",
        f"leakage.count_rate={spec.count_rate!r}",
        f"leakage.pulse_width={spec.pulse_width!r}"])


class TestTraceIO:
    def test_fringe_round_trip(self, tmp_path):
        u, counts = synthetic_fringe(2.7, 0.4)
        path = tmp_path / "t.csv"
        save_trace(FringeTrace(u, counts), path)
        back = load_trace(path, "fringe")
        assert isinstance(back, FringeTrace)
        assert np.array_equal(back.voltages, u)
        assert np.array_equal(back.counts, counts)

    def test_iv_round_trip(self, tmp_path):
        v = np.linspace(0.1, 0.9, 40)
        i = 1e-12 * np.exp(12.0 * v)
        path = tmp_path / "iv.csv"
        save_trace(IvCurve(v, i), path)
        back = load_trace(path, "iv")
        assert isinstance(back, IvCurve)
        assert np.array_equal(back.voltages, v)
        assert np.array_equal(back.currents, i)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("volts,counts\n0.0,1.0\n")
        with pytest.raises(TraceSchemaError, match="header"):
            load_trace(path, "fringe")

    def test_bad_row_carries_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("heater_voltage_v,count_rate_hz\n0.0,1.0\n0.1\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path, "fringe")
        assert info.value.line == 3

    def test_non_numeric_field(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("voltage_v,current_a\n0.0,banana\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(path, "iv")
        assert info.value.line == 2

    def test_descending_voltages_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("heater_voltage_v,count_rate_hz\n1.0,5.0\n0.5,6.0\n")
        with pytest.raises(TraceSchemaError):
            load_trace(path, "fringe")

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ConfigurationError, match="kind"):
            load_trace(tmp_path / "t.csv", "spectrum")

    def test_save_refuses_a_non_trace(self, tmp_path):
        with pytest.raises(ConfigurationError, match="expected FringeTrace or IvCurve"):
            save_trace(object(), tmp_path / "t.csv")


class TestResultsIO:
    def test_result_to_text_of_a_sweep(self):
        # cli.main writes a sweep with sweep_to_text itself.
        result = run_scenario(ScenarioConfig(mode="passive_tha", distance_max=3.0))
        assert result_to_text(result) == sweep_to_text(result)

    def test_result_to_text_refuses_other_types(self):
        with pytest.raises(TypeError, match="unknown result type object"):
            result_to_text(object())

    def test_round_trip_bit_exact(self, tmp_path):
        cfg = ScenarioConfig(mode="passive_tha", mu_leak=0.0388,
                             distance_max=3.0)
        result = run_scenario(cfg)
        path = tmp_path / "rates.csv"
        emit_results(result, path)
        back = read_results(path)
        assert back.rows.tobytes() == result.rows.tobytes()
        for rows in (result.rows, back.rows):
            assert rows.dtype == np.float64 and rows.shape == (4, 7)
            assert rows.flags.c_contiguous
            with pytest.raises(ValueError):
                rows[0, 1] = 0.0

    @pytest.mark.parametrize("mode", ["passive_tha", "dual_source"])
    @pytest.mark.parametrize("distance_max, points", [(0.0, 1), (4.0, 5)])
    @pytest.mark.parametrize("mu_leak", [0.0, 0.0388])
    def test_rows_layout(self, mode, distance_max, points, mu_leak):
        cfg = ScenarioConfig(mode=mode, mu_leak=mu_leak, distance_min=2.0,
                             distance_max=2.0 + distance_max)
        rows = run_scenario(cfg).rows
        assert rows.dtype == np.float64 and rows.shape == (points, 7)
        assert rows.flags.c_contiguous and not rows.flags.writeable
        with pytest.raises(ValueError):
            rows[-1, 2] = 0.0
        assert rows[:, 0].tolist() == [2.0 + k for k in range(points)]

    def test_device_rows_are_read_only(self):
        rows = run_scenario(load_config(CONFIGS / "device.cfg")).rows
        assert rows.dtype == np.float64 and rows.shape == (3, 4)
        with pytest.raises(ValueError):
            rows[0, 3] = 0.0

    def test_empty_result_is_header_only(self, tmp_path):
        empty = SweepResult(np.empty((0, 7)))
        assert sweep_to_text(empty) == RESULT_HEADER + "\n"
        path = tmp_path / "rates.csv"
        emit_results(empty, path)
        assert read_results(path).rows.shape == (0, 7)

    def test_short_row_rejected(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text(RESULT_HEADER + "\n1.0,0.1,0.1\n")
        with pytest.raises(TraceParseError) as info:
            read_results(path)
        assert info.value.line == 2

    def test_non_numeric_field_carries_line_number(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_text(RESULT_HEADER + "\n\n1,0,0,0,0,0,0\n\n"
                        "2,0,0,0,x,0,0\n")
        with pytest.raises(TraceParseError) as info:
            read_results(path)
        assert info.value.line == 5

    def test_non_utf8_header_is_parse_error(self, tmp_path):
        path = tmp_path / "rates.csv"
        path.write_bytes(b"\xfe" + RESULT_HEADER.encode() + b"\n")
        with pytest.raises(TraceParseError) as info:
            read_results(path)
        assert info.value.line == 1

    @pytest.mark.parametrize("rows, match", [
        (["1,0.1,0.1,0.3,0.01,0.7,0.01", "1,0.1,0.1,0.3,0.01,0.7,0.01"],
         "ascending"),
        (["2,0.1,0.1,0.3,0.01,0.7,0.01", "1,0.1,0.1,0.3,0.01,0.7,0.01"],
         "ascending"),
        (["1,-0.1,0.1,0.3,0.01,0.7,0.01"], ">= 0"),
        (["1,0.1,-0.1,0.3,0.01,0.7,0.01"], ">= 0"),
        (["nan,nan,nan,nan,nan,nan,nan"], "finite"),
        (["1,0.1,0.1,0.3,nan,0.7,0.01"], "finite"),
        (["1,inf,0.1,0.3,0.01,0.7,0.01"], "finite"),
    ])
    def test_invalid_rows_name_the_file(self, tmp_path, rows, match):
        path = tmp_path / "rates.csv"
        path.write_text("\n".join([RESULT_HEADER, *rows]) + "\n")
        with pytest.raises(TraceSchemaError, match=match) as info:
            read_results(path)
        assert str(path) in str(info.value)


def _valid_rows(n_max: int = 50):
    """Rows read_results accepts: finite cells, ascending distances and
    non-negative rates."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rate = st.floats(min_value=0.0, allow_infinity=False)
    distances = st.lists(finite, unique=True, max_size=n_max).map(sorted)
    return distances.flatmap(lambda ds: st.tuples(*(
        st.tuples(st.just(d), rate, rate, finite, finite, finite, finite)
        for d in ds)))


def _bits(rows) -> bytes:
    return np.asarray(rows, dtype=float).tobytes()


class TestResultsRoundTripProperty:
    @settings(max_examples=100, deadline=None)
    @given(rows=_valid_rows())
    def test_any_valid_rows_round_trip_bit_exactly(self, rows):
        result = SweepResult(np.array(rows, dtype=float).reshape(-1, 7))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rates.csv"
            emit_results(result, path)
            back = read_results(path)
        assert len(back) == len(result)
        assert _bits(back.rows) == _bits(result.rows)

    @settings(max_examples=30, deadline=None)
    @given(mode=st.sampled_from(["passive_tha", "dual_source"]),
           s=st.floats(0.1, 1.0), nu=st.floats(0.01, 0.09),
           omega=st.floats(0.0, 0.009), mu_leak=st.floats(0.0, 1.0),
           distance_min=st.floats(0.0, 300.0), step=st.floats(0.5, 20.0),
           points=st.integers(1, 50))
    def test_sweeps_round_trip_bit_exactly(self, mode, s, nu, omega, mu_leak,
                                           distance_min, step, points):
        cfg = ScenarioConfig(mode=mode, s=s, nu=nu, omega=omega,
                             mu_leak=mu_leak, distance_min=distance_min,
                             distance_max=distance_min + (points - 1) * step,
                             step=step)
        result = run_scenario(cfg)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rates.csv"
            emit_results(result, path)
            back = read_results(path)
        assert _bits(back.rows) == _bits(result.rows)


# Every double: nan, infinities, signed zeros and subnormals included.
_CELLS = st.one_of(st.floats(), st.sampled_from(
    [math.nan, -math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]))


class TestRenderProperty:
    """One `%` over the whole table writes what `.17g` per cell did."""

    @settings(max_examples=200, deadline=None)
    @given(table=st.tuples(st.integers(0, 50), st.sampled_from([2, 4, 5, 7])).flatmap(
        lambda shape: arrays(np.float64, shape, elements=_CELLS)))
    def test_render_matches_reference(self, table):
        header = ",".join(f"c{k}" for k in range(table.shape[1]))
        assert (scenario._render(header, table)
                == render_reference(header, table.tolist()))

    # Tables of the least size `_render` does not write with `%`, and
    # tables past a chunk boundary, so that the chunks of whole rows join.
    @settings(max_examples=20, deadline=None)
    @given(table=st.sampled_from([2, 5, 7]).flatmap(lambda cols: arrays(
        np.float64,
        st.one_of(st.just(-(-scenario._VECTOR_MIN_CELLS // cols)),
                  st.integers(scenario._CHUNK_CELLS // cols + 1,
                              scenario._CHUNK_CELLS // cols + 60)).map(
            lambda rows: (rows, cols)),
        elements=_CELLS)))
    def test_large_tables_match_reference(self, table):
        assert table.size >= scenario._VECTOR_MIN_CELLS
        header = ",".join(f"c{k}" for k in range(table.shape[1]))
        assert (scenario._render(header, table)
                == render_reference(header, table.tolist()))


def _format_rows_and_reference(table: np.ndarray) -> tuple[str, str]:
    # The table path of `_render`, whatever the table's size, and the
    # reference, each with a header line.
    header = ",".join(f"c{k}" for k in range(table.shape[1]))
    return (f"{header}\n" + "".join(scenario._format_rows(table)),
            render_reference(header, table.tolist()))


# Raw 64-bit patterns: any sign and mantissa, with the exponent drawn over
# all of its values or near the range `_format_rows` computes itself,
# about 1e-12 to 1e15, so that both sides of both ends occur.
_BITS = st.builds(lambda sign, exponent, mantissa: sign << 63 | exponent << 52 | mantissa,
                  st.integers(0, 1),
                  st.one_of(st.integers(0, 2047), st.integers(985, 1075)),
                  st.integers(0, 2 ** 52 - 1))


def _decade_edges() -> list[float]:
    # Each power of ten from 1e-12 to 1e17 and the doubles on either side.
    edges = []
    for k in range(-12, 18):
        power = float(f"1e{k}")
        edges += [math.nextafter(power, 0.0), power, math.nextafter(power, math.inf)]
    return edges


class TestFormatRows:
    """The numpy path writes the bytes `%.17g` writes, cell by cell."""

    @settings(max_examples=100, deadline=None)
    @given(bits=st.tuples(st.integers(1, 100), st.sampled_from([1, 2, 4, 7])).flatmap(
        lambda shape: arrays(np.uint64, shape, elements=_BITS)))
    def test_bit_patterns(self, bits):
        text, reference = _format_rows_and_reference(bits.view(np.float64))
        assert text == reference

    @pytest.mark.parametrize("cols", [1, 3, 7])
    def test_edge_values(self, cols):
        cells = [
            *_decade_edges(),
            # Written within half a unit of the 17th digit below 10**17
            # and 1: the double 1e17, past the range, and the double
            # below 1.
            99999999999999999.0, 0.99999999999999994,
            # Halfway between two 17-digit decimals, and the double nearest
            # 1e-7, which lies below it.
            1234567890123456.75, 0.5, 9.9999999999999995e-08,
            0.0, math.nan, math.inf, 5e-324, sys.float_info.min,
            sys.float_info.max, 1e-11, 1e15,
        ]
        cells += [-cell for cell in cells]
        cells += [0.0] * (-len(cells) % cols)
        text, reference = _format_rows_and_reference(np.array(cells).reshape(-1, cols))
        assert text == reference

    @pytest.mark.parametrize("config, overrides, rows", [
        ("passive_tha.cfg", ["sweep.step=0.05"], 8001),
        ("dual_source.cfg", ["sweep.distance_max=200", "sweep.step=0.05"], 4001),
    ])
    def test_dense_shipped_sweeps(self, config, overrides, rows):
        result = run_scenario(load_config(CONFIGS / config, overrides))
        assert len(result) == rows
        assert (sweep_to_text(result)
                == render_reference(RESULT_HEADER, result.rows.tolist()))


class TestCli:
    def test_sweep_passive_to_file(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        code = main(["sweep", "--config", str(CONFIGS / "passive_tha.cfg"),
                     "--out", str(out),
                     "--override", "sweep.distance_max=3"])
        assert code == 0
        assert capsys.readouterr().out == ""
        result = read_results(out)
        assert len(result) == 4
        assert result.rows[0, BASELINE] == pytest.approx(
            0.19844441919682251, rel=1e-12)
        # mu_leak comes from the configured count rate and gate width,
        # 5.82e7 Hz * 1.6 ns -> mu = 0.0977451..., not the rounded 0.0977.
        assert result.rows[0, CONTAMINATED] == pytest.approx(
            0.040849751650590946, rel=1e-12)

    def test_sweep_dual_to_stdout(self, capsys):
        code = main(["sweep", "--config", str(CONFIGS / "dual_source.cfg"),
                     "--override", "sweep.distance_max=2"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == RESULT_HEADER
        assert len(lines) == 4

    def test_sweep_dual_vacuum_decoy(self, tmp_path, capsys):
        # With omega = 0 the decoy QBER rounds just above 1/2.
        out = tmp_path / "rates.csv"
        code = main(["sweep", "--config", str(CONFIGS / "dual_source.cfg"),
                     "--override", "intensities.omega=0", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert len(read_results(out)) == 61

    def test_wavelength(self, capsys):
        code = main(["wavelength", "--config", str(CONFIGS / "fringe.cfg")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == WAVELENGTH_HEADER
        wavelength = float(lines[1].split(",")[0])
        assert wavelength == pytest.approx(1077.8549864253392, rel=1e-9)

    def test_ivfit(self, capsys):
        code = main(["ivfit", "--config", str(CONFIGS / "ivfit.cfg")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        betas = [float(line.split(",")[3]) for line in lines[1:]]
        assert betas == pytest.approx([2.6, 1.8, 2.5], rel=1e-6)

    def test_ivfit_temperature_underflow_is_domain_error(self, capsys):
        # slope * k * T rounds to zero on the shipped trace.
        code = main(["ivfit", "--config", str(CONFIGS / "ivfit.cfg"),
                     "--override", "ivfit.temperature=5e-324"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:domain: temperature 5e-324")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("voltage_scale, peak_count_rate, message", [
        (1e155, None, "squared extremum voltages overflow"),
        (1.0, 1e308, "count rates overflow"),
    ])
    def test_wavelength_overflow_is_domain_error(
            self, tmp_path, capsys, voltage_scale, peak_count_rate, message):
        # The shipped traces with their voltages or count rates scaled.
        for name in ("fringe_reference.csv", "fringe_voa.csv"):
            trace = load_trace(DATA / name, "fringe")
            counts = trace.counts
            if peak_count_rate is not None:
                counts = counts * (peak_count_rate / counts.max())
            save_trace(FringeTrace(trace.voltages * voltage_scale, counts),
                       tmp_path / name)
        cfg = tmp_path / "fringe.cfg"
        cfg.write_text((CONFIGS / "fringe.cfg").read_text().replace("../data/", ""))
        code = main(["wavelength", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith(f"error:domain: {message}")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_wavelength_estimate_overflow_is_domain_error(self, capsys):
        # The traces swapped: the estimate is 2.08 lambda_ref, beyond a double.
        code = main(["wavelength", "--config", str(CONFIGS / "fringe.cfg"),
                     "--override", "fringe.reference_trace=../data/fringe_voa.csv",
                     "--override", "fringe.unknown_trace=../data/fringe_reference.csv",
                     "--override", "fringe.lambda_ref_nm=1.5e308"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == ("error:domain: estimated wavelength must be "
                                "finite and > 0, got inf\n")
        assert captured.out == ""

    @pytest.mark.parametrize("voltage_scale", [1e155, 1e-300])
    def test_ivfit_voltage_scale_is_domain_error(self, tmp_path, capsys,
                                                 voltage_scale):
        # Least-squares sums that overflow, or underflow to zero.
        trace = load_trace(DATA / "iv_trace.csv", "iv")
        save_trace(IvCurve(trace.voltages * voltage_scale, trace.currents),
                   tmp_path / "iv.csv")
        cfg = tmp_path / "ivfit.cfg"
        cfg.write_text("mode = iv_fit\nivfit.trace = iv.csv\n"
                       f"ivfit.windows = 0:{voltage_scale!r}\n")
        code = main(["ivfit", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error:domain: voltages in [0.0, ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_options_may_precede_the_command(self, capsys):
        assert main(["leakage", "--config", str(CONFIGS / "device.cfg")]) == 0
        after = capsys.readouterr()
        assert main(["--config", str(CONFIGS / "device.cfg"), "leakage"]) == 0
        assert capsys.readouterr() == after

    def test_leakage(self, capsys):
        code = main(["leakage", "--config", str(CONFIGS / "device.cfg")])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        mus = [float(line.split(",")[3]) for line in lines[1:]]
        assert mus == pytest.approx(
            [0.004771364878891049, 0.03882399185758208, 0.09774514191987614],
            rel=1e-9)

    def test_mode_mismatch_is_config_error(self, capsys):
        code = main(["wavelength",
                     "--config", str(CONFIGS / "passive_tha.cfg")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["sweep", "--config", str(tmp_path / "none.cfg")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:io:")

    def test_bad_override_key(self, capsys):
        code = main(["sweep", "--config", str(CONFIGS / "passive_tha.cfg"),
                     "--override", "sweep.stpe=2"])
        assert code == 2
        assert "unrecognized" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["passive_tha.cfg", "dual_source.cfg"])
    def test_zero_gain_is_domain_error(self, capsys, config):
        # No dark counts and a vacuum decoy without leak: no click to
        # form a QBER from, at any point of the grid.
        argv = ["sweep", "--config", str(CONFIGS / config), "--override",
                "channel.y0=0", "--override", "intensities.omega=0",
                "--override", "leakage.count_rate=0"]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == "error:domain: gain is zero; QBER undefined\n"
        assert captured.out == ""

    def test_wavelength_zero_unknown_span_is_data_error(self, tmp_path, capsys):
        # An unknown fringe with its maximum at -0.5 V and its minimum at
        # +0.5 V: equal squared voltages, which would estimate 0 nm.
        u = np.arange(-20, 21) / 20.0
        save_trace(FringeTrace(u, 100.0 + 50.0 * np.cos(np.pi * (u + 0.5))),
                   tmp_path / "symmetric.csv")
        cfg = tmp_path / "fringe.cfg"
        cfg.write_text(
            "mode = fringe\n"
            f"fringe.reference_trace = {DATA / 'fringe_reference.csv'}\n"
            "fringe.unknown_trace = symmetric.csv\n"
            "fringe.lambda_ref_nm = 1550.82\n")
        code = main(["wavelength", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            "error:data: unknown extrema have equal squared voltages\n")
        assert captured.out == ""

    def test_runtime_data_error(self, tmp_path, capsys):
        u = np.linspace(0.0, 2.0, 50)
        save_trace(FringeTrace(u, 100.0 + 40.0 * u), tmp_path / "mono.csv")
        cfg = tmp_path / "fringe.cfg"
        cfg.write_text(
            "mode = fringe\n"
            "fringe.reference_trace = mono.csv\n"
            "fringe.unknown_trace = mono.csv\n"
            "fringe.lambda_ref_nm = 1550.82\n")
        code = main(["wavelength", "--config", str(cfg)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:data:")


class TestCliErrorContract:
    """Every bad config value ends in one error:config line and exit 2."""

    @pytest.mark.parametrize("command, config, override", [
        ("sweep", "passive_tha.cfg", "sweep.distance_max=inf"),
        ("sweep", "passive_tha.cfg", "conventions.f_ec=nan"),
        ("sweep", "passive_tha.cfg", "conventions.f_ec=inf"),
        ("sweep", "passive_tha.cfg", "intensities.s=inf"),
        ("sweep", "passive_tha.cfg", "intensities.s=1000"),
        ("sweep", "passive_tha.cfg", "leakage.count_rate=nan"),
        ("sweep", "passive_tha.cfg", "leakage.pulse_width=inf"),
        ("sweep", "passive_tha.cfg", "leakage.drive_voltage=nan"),
        ("sweep", "passive_tha.cfg", "sweep.step=1e-9"),
        ("sweep", "passive_tha.cfg", "sweep.distance_max=1e300"),
        ("sweep", "passive_tha.cfg", "sweep.distance_min=1e17 "
                                     "sweep.distance_max=100000000000000032 sweep.step=1"),
        ("sweep", "passive_tha.cfg", "sweep.distance_min=1e16 "
                                     "sweep.distance_max=10000000000000008 sweep.step=2"),
        ("sweep", "dual_source.cfg", "intensities.s=inf"),
        ("sweep", "dual_source.cfg", "leakage.count_rate=nan"),
        # Decoys too close for the Y1 prefactor to exist as a double.
        ("sweep", "passive_tha.cfg", "intensities.nu=5e-324 intensities.omega=0"),
        ("sweep", "passive_tha.cfg", "intensities.nu=1e-320 intensities.omega=0"),
        # Fiber loss alpha * d beyond the largest double.
        ("sweep", "dual_source.cfg", "channel.alpha_par=1e308 sweep.distance_max=2"),
        ("wavelength", "fringe.cfg", "fringe.reference_trace=a\x00b"),
        ("ivfit", "ivfit.cfg", "ivfit.windows=0.5:0.1"),
        ("ivfit", "ivfit.cfg", "ivfit.windows=nan:nan"),
        ("leakage", "device.cfg", "emission.1.drive_voltage=nan"),
        ("leakage", "device.cfg", "emission.\u00b2.count_rate=1"),
        ("leakage", "device.cfg", "emission.\u0663.count_rate=1"),
    ])
    def test_bad_value_is_config_error(self, capsys, command, config,
                                       override):
        argv = [command, "--config", str(CONFIGS / config)]
        for item in override.split():
            argv += ["--override", item]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:config:")
        assert err.count("\n") == 1

    # Line breaks of str.splitlines, in the key and in the value: an
    # override stands for one config line.
    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x85", "\u2028"],
                             ids=["lf", "cr", "crlf", "vt", "nel", "ls"])
    @pytest.mark.parametrize("template", [
        "bogus{}key=1", "sweep.distance_max=5{}0", "sweep.distance_max=50{}",
    ], ids=["key", "value", "value-end"])
    def test_line_break_in_override_is_one_config_error(self, capsys, brk,
                                                         template):
        item = template.format(brk)
        argv = ["sweep", "--config", str(CONFIGS / "passive_tha.cfg"),
                "--override", item]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error:config: override must be key=value, got {item!r}\n")
        assert captured.out == ""

    @pytest.mark.parametrize("command, config, key", [
        ("sweep", "passive_tha.cfg", "fringe.smooth_window"),
        ("sweep", "passive_tha.cfg", "conventions.q_proto"),
        ("sweep", "dual_source.cfg", "conventions.p_z"),
        ("wavelength", "fringe.cfg", "sweep.step"),
    ])
    def test_key_another_mode_reads_is_config_error(self, capsys, command,
                                                    config, key):
        # A valid value for the mode that reads the key; the config's own
        # mode does not read it, so it must not be silently ignored.
        argv = [command, "--config", str(CONFIGS / config),
                "--override", f"{key}=1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error:config: unrecognized keys: {key}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        ["frobnicate"],
        ["sweep", "--config", str(CONFIGS / "passive_tha.cfg"), "--override"],
    ], ids=["no-config", "unknown-command", "override-without-value"])
    def test_usage_error_is_config_error(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:config:")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("mu", ["1e5", "nan", "-1"])
    def test_bad_leak_is_config_error(self, tmp_path, capsys, mu):
        cfg = tmp_path / "leak.cfg"
        cfg.write_text(f"mode = passive_tha\nleakage.mu = {mu}\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_missing_reference_wavelength_is_named_required(self, tmp_path, capsys):
        cfg = tmp_path / "fringe.cfg"
        cfg.write_text("mode = fringe\nfringe.reference_trace = r.csv\n"
                       "fringe.unknown_trace = u.csv\n")
        assert main(["wavelength", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error:config: invalid configuration fields: "
                                "fringe.lambda_ref_nm (required)\n")

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"mode = passive_tha\n# gain \xb5\nleakage.mu = 0.01\n")
        assert main(["sweep", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:") and err.count("\n") == 1

    def test_non_utf8_trace_is_parse_error(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_bytes(FRINGE_HEADER.encode() + b"\n0,1\r\n\n1,\xff\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(trace, "fringe")
        assert info.value.line == 4
        cfg = tmp_path / "fringe.cfg"
        cfg.write_text("mode = fringe\nfringe.reference_trace = trace.csv\n"
                       "fringe.unknown_trace = trace.csv\n"
                       "fringe.lambda_ref_nm = 1550\n")
        assert main(["wavelength", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:parse:") and err.count("\n") == 1

    def test_decoys_too_close_for_the_bound_fail_at_load(self):
        # nu + omega >= s: the two-decoy bound does not apply.
        with pytest.raises(ConfigurationError, match="nu \\+ omega < s"):
            load_config(CONFIGS / "passive_tha.cfg", overrides=[
                "intensities.nu=0.3", "intensities.omega=0.2"])

    def test_grid_cap_is_inclusive(self):
        cfg = ScenarioConfig(mode="passive_tha",
                             distance_max=MAX_SWEEP_POINTS - 1.0)
        assert len(sweep_distances(cfg)) == MAX_SWEEP_POINTS
        with pytest.raises(ConfigurationError, match="grid exceeds"):
            ScenarioConfig(mode="passive_tha", distance_max=MAX_SWEEP_POINTS)

    # distance_max + step overflows a double, yet the points are far apart.
    @pytest.mark.parametrize("overrides, first, last", [
        (["sweep.distance_max=1.5e308", "sweep.step=1e308"], 0.0, 1e308),
        (["sweep.distance_min=1e308", "sweep.distance_max=1.7e308",
          "sweep.step=0.6e308"], 1e308, 1.6e308),
    ])
    def test_grid_past_the_largest_double(self, capsys, overrides, first, last):
        argv = ["sweep", "--config", str(CONFIGS / "passive_tha.cfg")]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        rows = captured.out.splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [first, last]

    def test_channel_keys_join_the_other_bad_keys(self, capsys):
        # Each bad key, a channel key too, is named once by its config key,
        # in the one line.
        argv = ["sweep", "--config", str(CONFIGS / "passive_tha.cfg"),
                "--override", "conventions.e0=2", "--override", "channel.y0=5",
                "--override", "sweep.step=-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error:config: invalid configuration fields: "
                                "sweep.step must be finite and > 0, got -1.0; "
                                "channel.y0 must lie in [0, 1), got 5.0; "
                                "conventions.e0 must lie in [0, 1], got 2.0\n")

    def test_values_that_do_not_parse_join_the_other_bad_keys(self, capsys):
        # Each value that does not parse is named first, and the keys
        # that parse are checked as well, all in the one line.
        argv = ["sweep", "--config", str(CONFIGS / "passive_tha.cfg"),
                "--override", "sweep.step=x", "--override", "channel.y0=y",
                "--override", "conventions.e0=2"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error:config: invalid configuration fields: "
                                "sweep.step: expected a number, got 'x'; "
                                "channel.y0: expected a number, got 'y'; "
                                "conventions.e0 must lie in [0, 1], got 2.0\n")

    # A value that cannot be taken (a number, an emission block, windows
    # or a path) keeps its field's default, which no rule reads: it is
    # named once, beside the other bad keys, and the defaults raise no
    # error of their own.
    @pytest.mark.parametrize("config, overrides, message", [
        ("passive_tha.cfg", {"intensities.nu": "x", "intensities.s": "0.01"},
         "intensities.nu: expected a number, got 'x'"),
        ("dual_source.cfg", {"sweep.step": "x", "sweep.distance_max": "1e300"},
         "sweep.step: expected a number, got 'x'"),
        ("fringe.cfg", {"fringe.lambda_ref_nm": "abc", "fringe.smooth_window": "2.5"},
         "fringe.lambda_ref_nm: expected a number, got 'abc'; "
         "fringe.smooth_window: expected an integer, got '2.5'"),
        ("passive_tha.cfg", {"leakage.count_rate": "x", "sweep.step": "x"},
         "sweep.step: expected a number, got 'x'; "
         "leakage.count_rate: expected a number, got 'x'"),
        ("ivfit.cfg", {"ivfit.windows": "a:b", "ivfit.temperature": "-1"},
         "ivfit.windows: expected lo:hi pairs, got 'a:b'; "
         "ivfit.temperature must be finite and > 0, got -1.0"),
        ("ivfit.cfg", {"ivfit.trace": "", "ivfit.temperature": "-1"},
         "ivfit.trace: expected a file path, got ''; "
         "ivfit.temperature must be finite and > 0, got -1.0"),
    ])
    def test_value_that_does_not_parse_is_named_once(self, config, overrides, message):
        data = parse_config_text((CONFIGS / config).read_text())
        apply_overrides(data, [f"{key}={value}" for key, value in overrides.items()])
        with pytest.raises(ConfigurationError) as info:
            config_from_mapping(data, base_dir=CONFIGS)
        assert str(info.value) == f"invalid configuration fields: {message}"

    def test_emission_values_join_the_other_bad_keys(self, capsys):
        # A value that does not parse and a block that fails its own
        # checks are named in the one line, the block by its prefix.
        argv = ["leakage", "--config", str(CONFIGS / "device.cfg"),
                "--override", "emission.1.count_rate=z",
                "--override", "emission.2.pulse_width=0"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error:config: invalid configuration fields: "
            "emission.1.count_rate: expected a number, got 'z'; "
            "emission.2: pulse_width must be finite and > 0, got 0.0\n")

    # A loss outside its interval is not also reported as overflowing.
    @pytest.mark.parametrize("key", ["channel.alpha_sig", "channel.alpha_par"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1e308"])
    def test_bad_fiber_loss_is_named_once(self, capsys, key, value):
        argv = ["sweep", "--config", str(CONFIGS / "dual_source.cfg"),
                "--override", f"{key}={value}"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == ("error:config: invalid configuration fields: "
                       f"{key} must be finite and >= 0, got {float(value)!r}\n")

    def test_window_outside_its_interval_is_named_once(self, capsys):
        # Named once, by the fringe layer's own rule.
        argv = ["wavelength", "--config", str(CONFIGS / "fringe.cfg"),
                "--override", "fringe.smooth_window=0"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error:config: invalid configuration fields: "
            "fringe.smooth_window (smooth_window must be an odd integer >= 1, "
            "got 0)\n")

    def test_grid_point_beyond_the_largest_double(self, capsys):
        # 3 * step is inf: the last point of the grid does not exist.
        argv = ["sweep", "--config", str(CONFIGS / "passive_tha.cfg"),
                "--override", "sweep.distance_max=1.7976931348623157e308",
                "--override", "sweep.step=5.992310449541053e307"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error:config: invalid configuration fields: "
                                "sweep.distance_max (last grid point overflows "
                                "a double)\n")


# Float text of every kind: huge, tiny, negative, subnormal, nan and inf.
_FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.floats(-1e3, 1e3).map(str),
    st.integers(-10, 500).map(str),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "1e-308",
                     "5e-324", "-0", "1e17", "100000000000000032"]),
)
_SWEEP_KEYS = (
    "sweep.distance_min", "sweep.distance_max", "sweep.step",
    "intensities.s", "intensities.nu", "intensities.omega",
    "leakage.count_rate", "leakage.pulse_width",
    "channel.alpha_sig", "channel.alpha_par", "channel.eta_bob_sig",
    "channel.eta_bob_par", "channel.y0", "channel.e_d", "conventions.e0",
    "conventions.p_z", "conventions.q_proto", "conventions.f_ec",
)


class TestCliErrorContractProperty:
    """Any float text in any sweep field keeps the CLI error contract."""

    @settings(max_examples=150, deadline=None)
    @given(config=st.sampled_from(["passive_tha.cfg", "dual_source.cfg"]),
           overrides=st.dictionaries(st.sampled_from(_SWEEP_KEYS),
                                     _FLOAT_TEXT, min_size=1, max_size=4))
    # A decoy gap that underflows the Y1 prefactor, a fiber loss alpha * d
    # beyond the largest double, and a subnormal Y1 bound that the coin
    # imbalance would overflow.
    @example(config="passive_tha.cfg",
             overrides={"intensities.nu": "5e-324", "intensities.omega": "0",
                        "sweep.distance_max": "0"})
    @example(config="dual_source.cfg",
             overrides={"channel.alpha_par": "1e308", "sweep.distance_max": "2"})
    @example(config="passive_tha.cfg",
             overrides={"channel.y0": "5e-324", "channel.alpha_sig": "100",
                        "sweep.distance_max": "40"})
    def test_sweep_overrides(self, config, overrides):
        argv = ["sweep", "--config", str(CONFIGS / config)]
        for key, value in overrides.items():
            argv += ["--override", f"{key}={value}"]
        out, err = io.StringIO(), io.StringIO()
        # Valid grids stay small, so each drawn sweep runs in milliseconds;
        # larger ones fail the cap as config errors.
        with pytest.MonkeyPatch.context() as mp, \
                redirect_stdout(out), redirect_stderr(err):
            mp.setattr(scenario, "MAX_SWEEP_POINTS", 50)
            code = main(argv)
        err = err.getvalue()
        if code == 0:
            assert err == ""
            assert out.getvalue().startswith(RESULT_HEADER + "\n")
            # The table reads back: every cell finite, rates >= 0.
            with tempfile.TemporaryDirectory() as tmp:
                table = Path(tmp) / "rates.csv"
                table.write_text(out.getvalue())
                read_results(table)
            return
        assert err.startswith("error:") and err.count("\n") == 1, err
        category = err.split(":", 2)[1]
        assert code == (2 if category == "config" else 1), err
        assert out.getvalue() == ""
        _assert_each_key_named_once(err)


def _shipped_lines(name: str) -> list[str]:
    # Trace paths made absolute, so a config written elsewhere finds them,
    # and sweeps cut to 21 points, under the cap the property lowers to 50.
    text = (CONFIGS / name).read_text().replace("../data/", f"{DATA}/")
    return ["sweep.distance_max = 20" if line.startswith("sweep.distance_max")
            else line for line in text.splitlines()]


# Each shipped config with the subcommand that runs it.
_SHIPPED = tuple((command, _shipped_lines(name)) for command, name in (
    ("sweep", "passive_tha.cfg"), ("sweep", "dual_source.cfg"),
    ("wavelength", "fringe.cfg"), ("ivfit", "ivfit.cfg"),
    ("leakage", "device.cfg")))
_INSERT_KEYS = _SWEEP_KEYS + (
    "mode", "emission.1.count_rate", "emission.4.pulse_width",
    "emission.\u00b2.count_rate",
    "fringe.smooth_window", "ivfit.windows", "leakage.mu")
# The keys a config error may name: every key of a shipped config or
# inserted by the fuzzer, and the names of the rules over several keys.
_NAMED_KEYS = frozenset(
    {line.partition("=")[0].strip() for _, lines in _SHIPPED for line in lines}
    | {*_INSERT_KEYS, "intensities", "leakage", "emission"})


def _assert_each_key_named_once(err: str) -> None:
    """No key leads two '; '-separated parts of an `invalid configuration
    fields:` line. A part led by no key is the tail of a message that
    holds '; ' itself, as a saturated emission block's does."""
    head = "error:config: invalid configuration fields: "
    if not err.startswith(head):
        return
    keys = [re.match(r"[^ :(]*", part).group()
            for part in err[len(head):-1].split("; ")]
    keys = [key for key in keys if key in _NAMED_KEYS
            or re.fullmatch(r"emission\.\d+(\.\w+)?", key)]
    assert keys and len(keys) == len(set(keys)), err


_VALUE_TEXT = st.one_of(_FLOAT_TEXT, st.text(max_size=20),
                        st.sampled_from(["", ".", "/", "a\x00b", "0:1, 1:0",
                                         "\u00b2", "\u0663", "\ufeff1"]))


@st.composite
def _fuzzed_config(draw):
    """A subcommand and its shipped config with values replaced, lines
    dropped or added and bytes spliced in: text that is nearly valid as
    well as garbage. Occasionally the subcommand is another one."""
    command, lines = draw(st.sampled_from(_SHIPPED))
    lines = list(lines)
    if draw(st.integers(0, 9)) == 0:
        command = draw(st.sampled_from(["sweep", "wavelength", "ivfit",
                                        "leakage"]))
    for _ in range(draw(st.integers(0, 4))):
        n = draw(st.integers(0, len(lines)))
        action = draw(st.sampled_from(["value", "drop", "insert"]))
        if action == "value" and n < len(lines) and "=" in lines[n]:
            lines[n] = lines[n].split("=")[0] + "= " + draw(_VALUE_TEXT)
        elif action == "drop" and n < len(lines):
            del lines[n]
        elif action == "insert" and draw(st.booleans()):
            lines.insert(n, draw(st.text(max_size=30)))
        elif action == "insert":
            key = draw(st.sampled_from(_INSERT_KEYS))
            lines.insert(n, f"{key} = {draw(_VALUE_TEXT)}")
    data = "\n".join(lines).encode()
    at = draw(st.integers(0, len(data)))
    return command, data[:at] + draw(st.binary(max_size=3)) + data[at:]


class TestWholeConfigProperty:
    """Any config text, valid UTF-8 or not, keeps the CLI error contract."""

    @settings(max_examples=300, deadline=None)
    @given(case=_fuzzed_config())
    # A window that fails its interval is not also named as even.
    @example(case=("wavelength", "\n".join(
        "fringe.smooth_window = 0" if line.startswith("fringe.smooth_window")
        else line for line in dict(_SHIPPED)["wavelength"]).encode()))
    def test_any_config_text(self, case):
        command, text = case
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp, \
                redirect_stdout(out), redirect_stderr(err):
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_bytes(text)
            mp.setattr(scenario, "MAX_SWEEP_POINTS", 50)
            code = main([command, "--config", str(cfg)])
        err = err.getvalue()
        if code == 0:
            assert err == ""
            return
        assert err.startswith("error:") and err.count("\n") == 1, err
        category = err.split(":", 2)[1]
        assert code == (2 if category == "config" else 1), err
        assert out.getvalue() == ""
        _assert_each_key_named_once(err)


_TRACE_LINE = st.lists(_FLOAT_TEXT, min_size=1, max_size=8).map(",".join)


class TestTraceFileProperty:
    """Any bytes under a valid header fail only as parse or schema errors."""

    @settings(max_examples=300, deadline=None)
    @given(kind=st.sampled_from(["fringe", "iv", "results"]),
           body=st.one_of(
               st.binary(max_size=200),
               st.tuples(st.lists(_TRACE_LINE, max_size=8).map("\n".join),
                         st.binary(max_size=3)).map(
                   lambda t: t[0].encode() + t[1])))
    def test_any_bytes_under_a_header(self, kind, body):
        header = {"fringe": FRINGE_HEADER, "iv": IV_HEADER,
                  "results": RESULT_HEADER}[kind]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_bytes(header.encode() + b"\n" + body)
            try:
                if kind == "results":
                    read_results(path)
                else:
                    load_trace(path, kind)
            except (TraceParseError, TraceSchemaError):
                pass


def _grammar_case(cell: str) -> bool:
    """A cell the two readers read differently by design (README): an
    underscore or a non-ASCII digit, which float() took, or a \\x1f,
    which float() refused as padding."""
    return "_" in cell or "\x1f" in cell or any(
        ch.isdecimal() and not ch.isascii() for ch in cell)


_PAD = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\u2003"])
_CELL = st.one_of(
    _FLOAT_TEXT,
    st.tuples(_PAD, _FLOAT_TEXT, _PAD).map("".join),
    st.sampled_from(["", " ", "x", "1e", "--1", "0x10", "1.2.3", "nan(1)",
                     "#1", '"1"', "1 2", "\x00", "\ufeff1"]),
    st.text(max_size=4).filter(lambda cell: not _grammar_case(cell)),
)


_BREAKS = ["\n", "\r\n", "\r", "\v", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
# Mostly well-formed, so that whole tables parse.
_PLAIN_CELL = st.one_of(
    *[_FLOAT_TEXT] * 6,
    st.tuples(_PAD, _FLOAT_TEXT, _PAD).map("".join).filter(str.isascii),
    _CELL.filter(str.isascii))


@st.composite
def _table_text(draw, header):
    """Table text under header: rows of drawn cells, mostly of the right
    width, split by any line break splitlines() knows and padded with
    blank and whitespace-only lines. A break or padding may come before
    the header and after a cell. Two tables in three are ASCII with only
    \\n, \\r\\n and \\r breaks, and some of those are in the fast grammar."""
    width = header.count(",") + 1
    plain = draw(st.sampled_from([True, True, False]))
    breaks = ["\n", "\r\n", "\r"] if plain else _BREAKS
    after = st.sampled_from([""] * (40 if plain else 8) + breaks)
    cell = st.tuples(_PLAIN_CELL if plain else _CELL, after).map("".join)
    pads = ["", "", "", " ", "\t"] if plain else ["", " ", "\t", "\xa0 "]
    lines = [draw(st.sampled_from([""] * 16 + [" ", "\t", "\x1f"] + breaks))
             + header]
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(st.lists(st.sampled_from(pads), max_size=1))
        count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(cell, min_size=count,
                                            max_size=count))))
    return "".join(line + draw(st.sampled_from(["\n"] * 4 + breaks))
                   for line in lines)


def _assert_reads_as_reference(path: Path, header: str) -> None:
    try:
        expected = read_table_reference(path, header)
    except (TraceParseError, TraceSchemaError) as exc:
        with pytest.raises(type(exc)) as info:
            scenario._read_table(path, header)
        assert getattr(info.value, "line", None) == getattr(exc, "line", None)
        return
    got = scenario._read_table(path, header)
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


class TestTableReaderParity:
    """The exact reader and the line reader read every table as the
    per-line float() reader did, outside the documented cell grammar
    cases."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), header=st.sampled_from([FRINGE_HEADER,
                                                   RESULT_HEADER]))
    def test_matches_reference_reader(self, data, header):
        text = data.draw(_table_text(header))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_bytes(text.encode())
            _assert_reads_as_reference(path, header)

    @pytest.mark.parametrize("text", [
        # splitlines() ends a line at \x0c; numpy strips it as padding.
        f"{IV_HEADER}\n0,1\n1\x0c,2\n",
        f"\x0c{IV_HEADER}\n0,1\n",
        f"\r{IV_HEADER}\n0,1\n",
        # A whitespace-only line is blank to the line reader alone.
        f"{IV_HEADER}\n0,1\n \t\n1,2\n",
    ])
    def test_lines_numpy_would_split_otherwise(self, tmp_path, text):
        path = tmp_path / "trace.csv"
        path.write_bytes(text.encode())
        _assert_reads_as_reference(path, IV_HEADER)


class TestCellGrammar:
    """Cells are ASCII floats: the forms float() also took are parse errors."""

    @pytest.mark.parametrize("cell", ["1_000", "\uff11", "\u0663"])
    def test_load_trace(self, tmp_path, capsys, cell):
        trace = tmp_path / "trace.csv"
        trace.write_text(f"{FRINGE_HEADER}\n0,1\n\n1,{cell}\n")
        with pytest.raises(TraceParseError) as info:
            load_trace(trace, "fringe")
        assert info.value.line == 4
        cfg = tmp_path / "fringe.cfg"
        cfg.write_text("mode = fringe\nfringe.reference_trace = trace.csv\n"
                       "fringe.unknown_trace = trace.csv\n"
                       "fringe.lambda_ref_nm = 1550\n")
        assert main(["wavelength", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:parse:") and err.count("\n") == 1

    @pytest.mark.parametrize("cell", ["1_000", "\uff11", "\u0663"])
    def test_read_results(self, tmp_path, cell):
        path = tmp_path / "rates.csv"
        path.write_text(f"{RESULT_HEADER}\n1,0,0,0,0,0,0\n"
                        f"2,0,{cell},0,0,0,0\n")
        with pytest.raises(TraceParseError) as info:
            read_results(path)
        assert info.value.line == 3

    @pytest.mark.parametrize("bad, line", [((8000,), 8002), ((0, 8000), 2),
                                           ((4000, 7999), 4002)])
    def test_first_bad_row_of_many(self, tmp_path, monkeypatch, bad, line):
        # The bad cell fails the byte check, and the line reader names
        # the first bad row of 8001 after reading every cell before it,
        # and none after.
        rows = [f"{k},{'one' if k in bad else 1}" for k in range(8001)]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([IV_HEADER, *rows]) + "\n")
        cells = _cell_spy(monkeypatch)
        with pytest.raises(TraceParseError) as info:
            load_trace(path, "iv")
        assert info.value.line == line
        assert len(cells) == 2 * (line - 1) and cells[-1] == "one"

    def test_cell_forms(self, tmp_path):
        # A \r\n table takes the line reader: each cell reads as float()
        # of the cell stripped, where float() alone refuses \x1f padding.
        cells = ["\x1f1", " +1 ", "1E5", ".5", "5.", "inf", "nan", "-Infinity"]
        path = tmp_path / "trace.csv"
        path.write_bytes("".join(f"{line}\r\n" for line in [
            IV_HEADER, *(f"{k},{cell}" for k, cell in enumerate(cells))]).encode())
        want = [[k, float(cell.strip())] for k, cell in enumerate(cells)]
        got = scenario._read_table(path, IV_HEADER)
        assert got.tobytes() == np.array(want).tobytes()
        for cell in ["0x10", "1e", ""]:
            path.write_bytes(f"{IV_HEADER}\r\n0,1\r\n1,{cell}\r\n".encode())
            with pytest.raises(TraceParseError) as info:
                scenario._read_table(path, IV_HEADER)
            assert info.value.line == 3


def _dense_table(path: Path) -> np.ndarray:
    # A results table as emit_results writes it, and its rows.
    result = run_scenario(ScenarioConfig(mode="passive_tha", mu_leak=0.0388,
                                         distance_max=40.0, step=0.5))
    emit_results(result, path)
    return result.rows


class TestChunkedRead:
    """A results or trace file as the package writes it reads without
    the line reader; every other input reads as the line reader reads
    it."""

    def test_one_chunked_parse(self, tmp_path, monkeypatch):
        rows = _dense_table(tmp_path / "rates.csv")
        monkeypatch.setattr(scenario, "_cell", _no_cell)
        assert read_results(tmp_path / "rates.csv").rows.tobytes() == rows.tobytes()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe(self, tmp_path):
        # numpy, opening the pipe again by name, would wait for a second
        # writer that never comes.
        rows = _dense_table(tmp_path / "rates.csv")
        fifo = tmp_path / "rates.fifo"
        os.mkfifo(fifo)
        got = []

        def write():
            with open(fifo, "wb") as pipe:
                pipe.write((tmp_path / "rates.csv").read_bytes())

        writer = threading.Thread(target=write, daemon=True)
        reader = threading.Thread(
            target=lambda: got.append(read_results(fifo).rows), daemon=True)
        writer.start()
        reader.start()
        reader.join(timeout=60)
        if reader.is_alive():
            # Let the blocked open return before the test fails.
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=60)
            pytest.fail("reading a named pipe did not finish")
        writer.join(timeout=60)
        assert not writer.is_alive()
        assert got and got[0].tobytes() == rows.tobytes()

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_compression_suffix_is_a_name(self, tmp_path, suffix):
        rows = _dense_table(tmp_path / f"rates{suffix}")
        assert read_results(tmp_path / f"rates{suffix}").rows.tobytes() == rows.tobytes()

    def test_url_like_name_is_a_file(self, tmp_path, monkeypatch):
        (tmp_path / "http:" / "x").mkdir(parents=True)
        rows = _dense_table(tmp_path / "http:" / "x" / "t.csv")

        def no_network(*args, **kwargs):
            raise AssertionError("urlopen called")

        monkeypatch.setattr(urllib.request, "urlopen", no_network)
        monkeypatch.chdir(tmp_path)
        assert read_results("http://x/t.csv").rows.tobytes() == rows.tobytes()
        assert sorted(p.relative_to(tmp_path).as_posix()
                      for p in tmp_path.rglob("*")) == [
            "http:", "http:/x", "http:/x/t.csv"]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_dot_dot_after_a_symlink(self, tmp_path):
        # The OS resolves ".." after following the link; a path folded
        # as text would name tmp_path/t.csv instead.
        (tmp_path / "real" / "sub").mkdir(parents=True)
        (tmp_path / "link").symlink_to(tmp_path / "real" / "sub")
        rows = _dense_table(tmp_path / "real" / "t.csv")
        (tmp_path / "t.csv").write_text(f"{RESULT_HEADER}\n0,0,0,0,0,0,0\n")
        got = read_results(tmp_path / "link" / ".." / "t.csv").rows
        assert got.tobytes() == rows.tobytes()

    @pytest.mark.parametrize("body", ["", "\n\n", "\r\n \r\n\t\n"])
    def test_blank_body_takes_no_parse(self, tmp_path, monkeypatch, body):
        # A table with no rows reads no cell.
        path = tmp_path / "rates.csv"
        path.write_text(f"{RESULT_HEADER}\n{body}", newline="")
        monkeypatch.setattr(scenario, "_cell", _no_cell)
        assert read_results(path).rows.shape == (0, 7)



def _near_edges() -> list[float]:
    # 10**k for k = -11..15 and each power of two from 2**-40 to 2**60,
    # with the doubles on either side; zeros, subnormals and the ends of
    # the double range.
    edges = [0.0, -0.0, 5e-324, 1e-323, 2.2250738585072009e-308,
             2.2250738585072014e-308, 1e-300, 1e300, 1e308,
             1.7976931348623157e308, 1e16, 1e17, 123456789012345680.0]
    for x in [float(f"1e{k}") for k in range(-11, 16)] + [
            2.0 ** j for j in range(-40, 61)]:
        edges += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return edges


_EXACT_FLOATS = st.one_of(
    st.sampled_from(_near_edges()),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-12, 1e16),
).flatmap(lambda x: st.sampled_from([x, -x]))


def _decimal_text(value: Decimal, scientific: bool) -> str:
    # value in the fast grammar: plain digits, or one digit, a point
    # and an e+NN or e-NN exponent.
    if scientific:
        text = f"{value:e}"
        return text if "e" in text else text + "e+00"
    return f"{value:f}"


@st.composite
def _long_cells(draw) -> str:
    """Cells only float() reads exactly in one step: a midpoint between
    two doubles (a tie), the 17-digit decimals either side of the lower
    midpoint below a power of two, and exact expansions of doubles with
    more than 17 significant digits."""
    x = abs(draw(st.floats(1e-15, 1e20)))
    kind = draw(st.sampled_from(["tie", "below_power", "expansion"]))
    with localcontext(Context(prec=400)):
        if kind == "tie":
            value = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
        elif kind == "below_power":
            power = Decimal(2) ** draw(st.integers(-36, 49))
            middle = power - power / Decimal(2 ** 54)
            rounding = draw(st.sampled_from([ROUND_FLOOR, ROUND_CEILING]))
            value = middle.quantize(
                Decimal(1).scaleb(middle.adjusted() - 16), rounding=rounding)
        else:
            value = Decimal(x)
        text = _decimal_text(value, draw(st.booleans()))
    return draw(st.sampled_from([text, "-" + text]))


_TIES = ["9007199254740993", "-9007199254740995", "18014398509481990",
         "0", "-0", "0.0", "-0.0e+00", "1e+16", "1e-300", "5e-324", "-1e+300"]


class TestExactReader:
    """Tables as `_render` and `repr` write them, and cells only float()
    reads in one step, read bit for bit as float() reads each cell,
    without the line reader, in chunks of any size."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_reference(self, data, tmp_path_factory):
        values = data.draw(st.lists(_EXACT_FLOATS, min_size=1, max_size=80))
        rows = data.draw(st.integers(100, 150))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        table = rng.choice(np.array(values), (rows, 7))
        writer = data.draw(st.sampled_from(["render", "repr", "cells"]))
        if writer == "render":
            assert table.size >= scenario._VECTOR_MIN_CELLS  # _format_rows
            text = scenario._render(RESULT_HEADER, table)
        else:
            cells = [repr(x) for x in table.ravel().tolist()]
            if writer == "cells":
                extra = data.draw(st.lists(
                    st.one_of(_long_cells(), st.sampled_from(_TIES)),
                    min_size=1, max_size=40))
                for at in rng.choice(len(cells), len(extra), replace=False):
                    cells[at] = extra.pop()
            text = RESULT_HEADER + "\n" + "".join(
                ",".join(cells[k:k + 7]) + "\n" for k in range(0, len(cells), 7))
        chunk = data.draw(st.sampled_from([48, 700, 4096, scenario._READ_BYTES]))
        path = tmp_path_factory.mktemp("exact") / "table.csv"
        path.write_text(text)
        expected = read_table_reference(path, RESULT_HEADER)
        with mock.patch.object(scenario, "_cell", _no_cell), \
                mock.patch.object(scenario, "_READ_BYTES", chunk):
            got = scenario._read_table(path, RESULT_HEADER)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    def test_dense_sweep(self, tmp_path, monkeypatch):
        # 8 001 rows, 56 007 cells, in many chunks.
        result = run_scenario(ScenarioConfig(mode="passive_tha", mu_leak=0.0388,
                                             distance_max=400.0, step=0.05))
        emit_results(result, tmp_path / "rates.csv")
        monkeypatch.setattr(scenario, "_cell", _no_cell)
        got = read_results(tmp_path / "rates.csv").rows
        assert got.tobytes() == result.rows.tobytes()

    @pytest.mark.parametrize("d, k, x, step", [
        # 2**53 + 1 and 2**53 + 3 are midpoints: ties go to the even
        # mantissa, 2**53 and 2**53 + 4.
        (90071992547409930, 1, 2.0 ** 53, 0),
        (90071992547409930, 1, 2.0 ** 53 + 2, -1),
        (90071992547409950, 1, 2.0 ** 53 + 2, 1),
        (90071992547409950, 1, 2.0 ** 53 + 4, 0),
        # Below 1.0 the lower midpoint is 1 - 2**-54: 0.99999999999999994
        # lies under it, 0.99999999999999995 over it.
        (99999999999999994, 17, 1.0, -1),
        (99999999999999995, 17, 1.0, 0),
        (99999999999999994, 17, math.nextafter(1.0, 0.0), 0),
        (99999999999999995, 17, math.nextafter(1.0, 0.0), 1),
    ])
    def test_ulp_steps(self, d, k, x, step):
        got = scenario._ulp_steps(np.array([d], np.uint64), np.array([k], np.uint64),
                                  np.array([x]))
        assert got.tolist() == [step]

    def test_bad_file_takes_no_parse(self, tmp_path, monkeypatch):
        # A bad last row fails the byte check of its chunk, after the
        # chunks before it were parsed, and the line reader names it from
        # the bytes read once, reading every cell.
        path = tmp_path / "trace.csv"
        path.write_text(IV_HEADER + "\n" + "".join(
            f"{k},1.0000000000000001e-05\n" for k in range(8000)) + "8000,one\n")
        monkeypatch.setattr(scenario, "_READ_BYTES", 4096)
        cells = _cell_spy(monkeypatch)
        with pytest.raises(TraceParseError) as info:
            load_trace(path, "iv")
        assert info.value.line == 8002
        assert len(cells) == 2 * 8001

    @pytest.mark.parametrize("blank", ["\n", "\n\n\n"])
    def test_trailing_blank_lines_read_fast(self, tmp_path, monkeypatch, blank):
        # The \n bytes after the last row are dropped before the check,
        # so a table that ends in blank lines takes no line reader.
        table = run_scenario(ScenarioConfig(mode="passive_tha", mu_leak=0.0388,
                                            distance_max=400.0, step=0.05)).rows
        path = tmp_path / "rates.csv"
        path.write_text(scenario._render(RESULT_HEADER, table) + blank)
        expected = read_table_reference(path, RESULT_HEADER)
        monkeypatch.setattr(scenario, "_cell", _no_cell)
        got = scenario._read_table(path, RESULT_HEADER)
        assert got.tobytes() == expected.tobytes() == table.tobytes()

    @pytest.mark.parametrize("text", [
        "0,1\n\n2,3\n", "0,1\n2,3\r\n", "0,1\r\n2,3\n\n", "0,1\n2,3"])
    def test_other_breaks_take_the_line_reader(self, tmp_path, monkeypatch, text):
        # A blank line between rows, a \r\n ending and a last row
        # without its \n are outside the fast grammar.
        path = tmp_path / "trace.csv"
        path.write_text(f"{IV_HEADER}\n{text}", newline="")
        cells = _cell_spy(monkeypatch)
        got = scenario._read_table(path, IV_HEADER)
        assert cells == ["0", "1", "2", "3"]
        assert got.tobytes() == read_table_reference(path, IV_HEADER).tobytes()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_one_step_is_final_below_q_23(self, seed, tmp_path_factory):
        # One step of _ulp_steps lands on the nearest double for every
        # cell with |q| <= 22: no such cell of the fast range reaches
        # float(). Cells with 23 <= -q <= 27 that the step moved do.
        rng = np.random.default_rng(seed)
        cells = [_one_step_cell(rng) for _ in range(7 * 200)]
        path = tmp_path_factory.mktemp("one_step") / "table.csv"
        path.write_text(RESULT_HEADER + "\n" + "".join(
            ",".join(cells[k:k + 7]) + "\n" for k in range(0, len(cells), 7)))
        expected = read_table_reference(path, RESULT_HEADER)
        exponents = []

        def spy(cell):
            _, digits, q = Decimal(cell.decode()).as_tuple()
            value = float(cell)
            assert q < -22 or abs(value) >= 1e15 or len(digits) > 17, \
                f"{cell!r} reached float()"
            exponents.append(q)
            return value

        for chunk in (48, 4096):
            exponents.clear()
            with mock.patch.object(scenario, "_cell", _no_cell), \
                    mock.patch.object(scenario, "_READ_BYTES", chunk), \
                    mock.patch.object(scenario, "float", spy, create=True):
                got = scenario._read_table(path, RESULT_HEADER)
            assert got.tobytes() == expected.tobytes()
            assert any(-27 <= q <= -23 for q in exponents)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_slow_cells_read_by_offset(self, data, tmp_path_factory):
        # Cells out of the fast range go through float() from their own
        # bytes: every row starts and ends with one, so each chunk and
        # the file do too.
        rows = data.draw(st.integers(1, 40))
        cells = []
        for _ in range(rows):
            middle = data.draw(st.lists(st.one_of(_SLOW_CELLS, _FAST_CELLS),
                                        min_size=5, max_size=5))
            cells += [data.draw(_SLOW_CELLS), *middle, data.draw(_SLOW_CELLS)]
        path = tmp_path_factory.mktemp("slow") / "table.csv"
        path.write_text(RESULT_HEADER + "\n" + "".join(
            ",".join(cells[k:k + 7]) + "\n" for k in range(0, len(cells), 7)))
        expected = read_table_reference(path, RESULT_HEADER)
        for chunk in (48, 700, 4096):
            with mock.patch.object(scenario, "_cell", _no_cell), \
                    mock.patch.object(scenario, "_READ_BYTES", chunk):
                got = scenario._read_table(path, RESULT_HEADER)
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("name", [
        *sorted(path.name for path in DATA.glob("*.csv")), "edges.csv"])
    def test_shipped_and_edge_cells(self, tmp_path, monkeypatch, name):
        # Every cell of the shipped traces (repr and %.17g cells), and
        # edge cells: out of the reader's integer range, or currents of
        # data/iv_trace.csv with q = -27 and -26 that the reader's first
        # step moves and so sends to float().
        path = DATA / name
        if name == "edges.csv":
            path = tmp_path / name
            path.write_text(f"{IV_HEADER}\n0,5e-324\n1,1e-300\n2,1e+300\n3,-0.0\n"
                            "4,-0\n5,1.1644126739161805e-11\n6,1.0069056225673148e-10\n")
        kind, header = ("fringe", FRINGE_HEADER) if "fringe" in name else ("iv", IV_HEADER)
        monkeypatch.setattr(scenario, "_cell", _no_cell)
        trace = load_trace(path, kind)
        got = np.column_stack((trace.voltages,
                               trace.counts if kind == "fringe" else trace.currents))
        assert got.tobytes() == read_table_reference(path, header).tobytes()


def _one_step_cell(rng) -> str:
    """A 17-digit decimal d * 10**q with -22 <= q <= 15, a double at or
    on either side of a power of two from 2**-60 to 2**48, or a double in
    [1e-11, 1e-6), whose 17-digit text has 23 <= -q <= 27; the doubles
    written by %.17g or by repr, either sign."""
    kind = rng.integers(3)
    if kind == 0:
        d, q = int(rng.integers(10 ** 16, 10 ** 17)), int(rng.integers(-22, 16))
        text = _decimal_text(Decimal(d).scaleb(q), bool(rng.random() < 0.5))
    else:
        if kind == 1:
            x = 2.0 ** int(rng.integers(-60, 49))
            x = (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))[rng.integers(3)]
        else:
            x = 10.0 ** rng.uniform(-11.0, -6.0)
        text = "%.17g" % x if rng.random() < 0.5 else repr(x)
    return text if rng.random() < 0.5 else "-" + text


@st.composite
def _slow_cell(draw) -> str:
    """A cell of magnitude 1e15 or more, one whose last digit lies below
    1e-27, or one of 18 or more significant digits, either sign."""
    kind = draw(st.sampled_from(["huge", "tiny", "long"]))
    if kind == "huge":
        d, q = draw(st.integers(1, 10 ** 17 - 1)), draw(st.integers(0, 300))
        value = Decimal(d).scaleb(q)
        if value < Decimal("1e15"):
            value = value.scaleb(15 - value.adjusted())
    elif kind == "tiny":
        d, q = draw(st.integers(1, 10 ** 17 - 1)), draw(st.integers(-340, -28))
        value = Decimal(d).scaleb(q)
    else:
        d, q = draw(st.integers(10 ** 17, 10 ** 25)), draw(st.integers(-40, 5))
        value = Decimal(d).scaleb(q)
    text = _decimal_text(value, draw(st.booleans()) or abs(value.adjusted()) > 40)
    return draw(st.sampled_from([text, "-" + text]))


_SLOW_CELLS = _slow_cell()
_FAST_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)


class TestLoadConfig:
    def test_shipped_configs_all_load(self):
        for name in ("passive_tha.cfg", "dual_source.cfg", "device.cfg",
                     "fringe.cfg", "ivfit.cfg"):
            load_config(CONFIGS / name)

    def test_utf8_text_loads(self, tmp_path):
        cfg = tmp_path / "utf8.cfg"
        cfg.write_bytes("mode = passive_tha\n# \u00b5_Eve \u2248 0.01\n"
                        "leakage.mu = 0.01\n".encode())
        assert load_config(cfg).mu_leak == 0.01

    def test_override_applies(self):
        cfg = load_config(CONFIGS / "passive_tha.cfg",
                          overrides=["intensities.s=0.5", "sweep.step=2"])
        assert cfg.s == 0.5
        assert cfg.step == 2.0
