"""Config parsing, scenario evaluation, trace IO, and the CLI."""

import io
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import voaleak.scenario as scenario
from voaleak import (
    ConfigurationError,
    DecoyObservations,
    FringeTrace,
    IvCurve,
    ScenarioConfig,
    SweepResult,
    TraceParseError,
    TraceSchemaError,
    dual_source_key_rate,
    emit_results,
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
from voaleak.scenario import (
    FRINGE_HEADER,
    IV_HEADER,
    MAX_SWEEP_POINTS,
    RESULT_HEADER,
    WAVELENGTH_HEADER,
    apply_overrides,
    config_from_mapping,
    parse_config_text,
    sweep_distances,
    sweep_to_text,
)
from helpers import (
    VERDICTS,
    read_table_reference,
    render_reference,
    scalar_reference_sweep,
    synthetic_fringe,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DATA = CONFIGS.parent / "data"
# Column numbers of the results table.
BASELINE, CONTAMINATED, Q_S, E_S = (
    RESULT_HEADER.split(",").index(name)
    for name in ("rate_baseline", "rate_contaminated", "q_s", "e_s"))


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

    def test_leakage_forms_are_exclusive(self):
        with pytest.raises(ConfigurationError, match="not both"):
            config_from_mapping({"mode": "passive_tha", "leakage.mu": "0.1",
                                 "leakage.count_rate": "1e7"})

    def test_count_rate_needs_pulse_width(self):
        with pytest.raises(ConfigurationError, match="together"):
            config_from_mapping({"mode": "passive_tha",
                                 "leakage.count_rate": "1e7"})

    def test_emission_numbering_must_be_contiguous(self):
        with pytest.raises(ConfigurationError, match="1..N"):
            config_from_mapping({
                "mode": "device",
                "emission.1.count_rate": "1e7",
                "emission.1.pulse_width": "1e-9",
                "emission.3.count_rate": "1e7",
                "emission.3.pulse_width": "1e-9",
            })

    def test_windows_parsing(self):
        cfg = config_from_mapping({
            "mode": "iv_fit", "ivfit.trace": "t.csv",
            "ivfit.windows": "0.0:0.45, 0.5:0.8",
        })
        assert cfg.windows == ((0.0, 0.45), (0.5, 0.8))

    def test_windows_malformed(self):
        with pytest.raises(ConfigurationError, match="lo:hi"):
            config_from_mapping({"mode": "iv_fit", "ivfit.trace": "t.csv",
                                 "ivfit.windows": "0.0-0.45"})

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

    def test_device_mode_requires_emission(self):
        with pytest.raises(ConfigurationError, match="emission"):
            ScenarioConfig(mode="device")

    def test_each_sweep_mode_checks_only_its_convention(self):
        # Neither rate reads the other mode's convention, and
        # config_from_mapping rejects its key, so its value is not checked.
        ScenarioConfig(mode="passive_tha", q_proto=0.0)
        ScenarioConfig(mode="dual_source", p_z=0.0)
        with pytest.raises(ConfigurationError, match=r"conventions\.p_z"):
            ScenarioConfig(mode="passive_tha", p_z=0.0)
        with pytest.raises(ConfigurationError, match=r"conventions\.q_proto"):
            ScenarioConfig(mode="dual_source", q_proto=0.0)


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


class TestResultsIO:
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
                                "finite and >= 0, got inf\n")
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


@st.composite
def _table_text(draw, header):
    """Table text under header: rows of drawn cells, mostly of the right
    width, split by any line break splitlines() knows and padded with
    blank and whitespace-only lines."""
    width = header.count(",") + 1
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(st.lists(st.sampled_from(["", " ", "\t", "\xa0 "]),
                               max_size=1))
        count = draw(st.sampled_from([width] * 4 + [width - 1, width + 1]))
        lines.append(",".join(draw(st.lists(_CELL, min_size=count,
                                            max_size=count))))
    breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85"])
    return "".join(line + draw(breaks) for line in lines)


class TestTableReaderParity:
    """One loadtxt parse reads every table as the per-line float() reader
    did, outside the documented cell grammar cases."""

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), header=st.sampled_from([FRINGE_HEADER,
                                                   RESULT_HEADER]))
    def test_matches_reference_reader(self, data, header):
        text = data.draw(_table_text(header))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "table.csv"
            path.write_bytes(text.encode())
            try:
                expected = read_table_reference(path, header)
            except TraceParseError as exc:
                with pytest.raises(TraceParseError) as info:
                    scenario._read_table(path, header)
                assert info.value.line == exc.line
                return
            got = scenario._read_table(path, header)
        assert got.dtype == np.float64 and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


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

    def test_rescan_ends_in_parse_error(self, tmp_path, monkeypatch):
        # Should the whole-table parse fail where no single line does,
        # the reader still raises its own error, not numpy's.
        loadtxt = np.loadtxt

        def whole_table_fails(rows, **kwargs):
            if len(rows) > 1:
                raise ValueError("table")
            return loadtxt(rows, **kwargs)

        path = tmp_path / "trace.csv"
        path.write_text(f"{IV_HEADER}\n0,1\n1,2\n")
        monkeypatch.setattr(np, "loadtxt", whole_table_fails)
        with pytest.raises(TraceParseError) as info:
            load_trace(path, "iv")
        assert info.value.line is None

    @pytest.mark.parametrize("bad, line", [((8000,), 8002), ((0, 8000), 2),
                                           ((4000, 7999), 4002)])
    def test_rescan_bisects_rows(self, tmp_path, monkeypatch, bad, line):
        # Naming the first bad row of 8001 takes the whole-table parse,
        # about log2(8001) parses of halved spans and one of the row.
        loadtxt = np.loadtxt
        calls = []

        def counted(rows, **kwargs):
            calls.append(len(rows))
            return loadtxt(rows, **kwargs)

        rows = [f"{k},{'one' if k in bad else 1}" for k in range(8001)]
        path = tmp_path / "trace.csv"
        path.write_text("\n".join([IV_HEADER, *rows]) + "\n")
        monkeypatch.setattr(np, "loadtxt", counted)
        with pytest.raises(TraceParseError) as info:
            load_trace(path, "iv")
        assert info.value.line == line
        assert len(calls) <= 16


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
