"""The four benchmark workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned. The seed draws the physical
parameters; the program only sees the generated config text, overrides
and trace files. The shape of a round (how many operations, of which
kind and size) does not depend on the seed, so call counts per
operation repeat exactly from seed to seed.
"""

from __future__ import annotations

import math
import os
import resource
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

import oracles
import tracer

RESULT_HEADER = ("distance_km,rate_baseline,rate_contaminated,"
                 "q_s,e_s,y1_lower,e1_upper")


class CheckFailed(Exception):
    """An output of the program disagrees with an independent check."""


class OperationFailed(Exception):
    """The program reported a failure (exception or non-zero exit)."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def expect_close(got, want, what: str, rel: float = 1e-12) -> None:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = np.abs(got - want) - rel * np.abs(want)
    expect(np.all(err <= 0.0),
           f"{what}: off by {float(np.max(np.abs(got - want) / np.abs(want))):.3g} "
           f"relative, limit {rel:g}")


def num(x: float) -> str:
    # repr round-trips a double exactly through float().
    return repr(float(x))


# ============================================================
# Sweep scenarios (sweep_dense, scan_many)
# ============================================================

@dataclass
class SweepCase:
    """Seeded truth of one sweep scenario, and the text the program sees."""

    mode: str
    alpha_sig: float
    alpha_par: float
    eta_bob_sig: float
    eta_bob_par: float
    y0: float
    e_d: float
    e0: float
    s: float
    nu: float
    omega: float
    p_z: float
    q_proto: float
    f_ec: float
    mu: float
    d0: float
    step: float
    n: int
    text: str = ""
    overrides: tuple[str, ...] = ()
    cutoff_bound: float | None = None


# How the leaked light is given: none (mu = 0), as leakage.mu, or as a
# detected count rate and gate width that the program converts.
LEAK_KINDS = ("zero", "mu", "counts")


def draw_sweep_case(rng, mode: str, n: int, step: float, d0: float,
                    leak: str, override_keys: tuple[str, ...] = ()) -> SweepCase:
    """Draw a physically plausible channel, protocol and leak.

    Keys named in override_keys get a decoy value in the text and their
    real value as a --override style key=value item.
    """
    case = SweepCase(
        mode=mode,
        alpha_sig=rng.uniform(0.18, 0.3),
        alpha_par=rng.uniform(0.4, 1.2),
        eta_bob_sig=rng.uniform(0.3, 0.9),
        eta_bob_par=rng.uniform(0.1, 0.6),
        y0=10.0 ** rng.uniform(-6.0, -4.5),
        e_d=rng.uniform(0.005, 0.03),
        e0=0.5,
        s=rng.uniform(0.4, 0.7),
        nu=rng.uniform(0.01, 0.1),
        omega=rng.uniform(0.0, 0.005),
        p_z=rng.uniform(0.5, 1.0),
        q_proto=rng.uniform(0.3, 0.6),
        f_ec=rng.uniform(1.05, 1.3),
        mu=0.0,
        d0=d0, step=step, n=n,
    )
    # Leaks are log-uniform over 1e-4..0.03 photons per gate; the
    # pre-encoder secure range then runs from near zero to ~150 km.
    leak_lines = ["leakage.mu = 0.0"]
    if leak == "mu":
        case.mu = 10.0 ** rng.uniform(-4.0, -1.5)
        leak_lines = [f"leakage.mu = {num(case.mu)}"]
    elif leak == "counts":
        gate = rng.uniform(0.2e-9, 2e-9)
        rate = 10.0 ** rng.uniform(-4.0, -1.5) / gate
        case.mu = oracles.leak_mu(rate, gate)
        leak_lines = [f"leakage.drive_voltage = {num(rng.uniform(1.0, 2.5))}",
                      f"leakage.count_rate = {num(rate)}",
                      f"leakage.pulse_width = {num(gate)}"]
    values = {
        "channel.alpha_sig": case.alpha_sig,
        "channel.alpha_par": case.alpha_par,
        "channel.eta_bob_sig": case.eta_bob_sig,
        "channel.eta_bob_par": case.eta_bob_par,
        "channel.y0": case.y0,
        "channel.e_d": case.e_d,
        "conventions.e0": case.e0,
        "intensities.s": case.s,
        "intensities.nu": case.nu,
        "intensities.omega": case.omega,
        "conventions.f_ec": case.f_ec,
        "sweep.distance_min": d0,
        "sweep.distance_max": d0 + (n - 1) * step,
        "sweep.step": step,
    }
    if mode == "passive_tha":
        values["conventions.p_z"] = case.p_z
    else:
        values["conventions.q_proto"] = case.q_proto
    lines = [f"mode = {mode}"]
    for key, value in values.items():
        shown = value * 1.5 + 0.125 if key in override_keys else value
        lines.append(f"{key} = {num(shown)}")
    case.text = "\n".join(lines + leak_lines) + "\n"
    case.overrides = tuple(f"{key}={num(values[key])}" for key in override_keys)
    return case


def check_sweep(case: SweepCase, rows) -> None:
    """Check one sweep result against the closed forms of the model."""
    r = np.asarray(rows, dtype=float)
    expect(r.shape == (case.n, 7),
           f"{case.mode}: expected {case.n} rows of 7, got {r.shape}")
    d = r[:, 0]
    grid = case.d0 + np.arange(case.n) * case.step
    expect(np.all(np.abs(d - grid) <= 1e-9 * case.step),
           f"{case.mode}: distances off the generated grid")
    # Pre-encoder light never reaches Bob; post-encoder light does.
    mu_obs = case.mu if case.mode == "dual_source" else 0.0
    eta, eta_p = oracles.transmittances(case, d)
    q = oracles.gain(case.s, mu_obs, eta, eta_p, case.y0)
    eq = oracles.error_gain(case.s, mu_obs, eta, eta_p, case.y0, case.e_d, case.e0)
    expect_close(r[:, 3], q, f"{case.mode} q_s")
    expect_close(r[:, 4], eq / q, f"{case.mode} e_s")
    y1, e1 = oracles.single_photon(mu_obs, eta, eta_p, case.y0, case.e_d, case.e0)
    expect(np.all(r[:, 5] <= y1 * (1.0 + 1e-12)),
           f"{case.mode}: y1_lower exceeds the true Y1")
    expect(np.all(r[:, 6] >= e1 * (1.0 - 1e-12)),
           f"{case.mode}: e1_upper is below the true e1")
    base, cont = r[:, 1], r[:, 2]
    expect(np.all(base >= 0.0) and np.all(cont >= 0.0),
           f"{case.mode}: negative key rate")
    if case.mu == 0.0:
        expect(np.array_equal(cont, base),
               f"{case.mode}: zero leak but contaminated rate != baseline")
    if case.mode != "passive_tha":
        return
    expect(np.all(cont <= base), "passive: contaminated rate above baseline")
    expect(np.all(np.diff(base) <= 0.0) and np.all(np.diff(cont) <= 0.0),
           "passive: rate grows with distance")
    slack = 1e-12 * case.p_z ** 2 * case.s * math.exp(-case.s) * y1
    for mu, rate in ((0.0, base), (case.mu, cont)):
        exact = oracles.exact_passive_rate(case, d, mu)
        expect(np.all(rate <= np.maximum(exact, 0.0) + slack),
               f"passive (mu={mu:.4g}): rate above the exact-statistics rate")


def check_cutoff(case: SweepCase, rows) -> None:
    """The last positive contaminated rate lies within the bisected bound U."""
    if case.cutoff_bound is None:
        case.cutoff_bound = oracles.exact_passive_cutoff(case, case.mu)
    positive = [row[0] for row in rows if row[2] > 0.0]
    cutoff = positive[-1] if positive else 0.0
    expect(cutoff <= case.cutoff_bound,
           f"passive cutoff {cutoff} km beyond the exact-statistics bound "
           f"{case.cutoff_bound:.4f} km")


def check_roundtrip(original, reread, what: str) -> None:
    a = np.asarray(original, dtype=float)
    b = np.asarray(reread, dtype=float)
    expect(a.shape == b.shape and a.tobytes() == b.tobytes(),
           f"{what}: rows differ after the round trip")


def parse_result_text(text: str):
    """The benchmark's own reader of the results CSV text."""
    lines = text.splitlines()
    expect(lines and lines[0] == RESULT_HEADER, "results header")
    return [tuple(float(cell) for cell in line.split(",")) for line in lines[1:]]


# ============================================================
# Workloads
# ============================================================

@dataclass
class Context:
    """Where the benchmark runs and how it starts the program."""

    root: object          # checkout root (pathlib.Path)
    work: object          # scratch directory for files the program writes
    env: dict = field(default_factory=dict)
    python: str = sys.executable


class Workload:
    """One named workload: a fixed round of operations on seeded inputs.

    Attributes:
        ops: the operations of one round, as callables.
        work: work units each operation completes (points, scenarios...).
        median_of_round: op_ms is the median over rounds of the mean
            operation time when the operations of a round differ in size;
            otherwise it is the median over single operations.
    """

    ops: list
    work: list
    median_of_round = False

    def check(self, k: int, out) -> None:
        raise NotImplementedError

    def trace(self, spans) -> None:
        """Route the program's calls through spans from now on."""
        self._undo = tracer.install(spans)

    def untrace(self) -> None:
        tracer.uninstall(self._undo)

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class SweepDense(Workload):
    """One passive sweep (8 001 points) and one dual sweep (4 001 points)."""

    def __init__(self, seed: int, ctx: Context):
        import voaleak.scenario as scenario
        self.sc = scenario
        rng = np.random.default_rng(seed)
        self.cases = [
            draw_sweep_case(rng, "passive_tha", 8001, 0.05, 0.0, "counts"),
            draw_sweep_case(rng, "dual_source", 4001, 0.05, 0.0, "counts"),
        ]
        self.paths = [ctx.work / f"sweep_{k}.csv" for k in range(2)]
        self.ops = [self.op]
        self.work = [sum(c.n for c in self.cases)]

    def op(self):
        sc = self.sc
        out = []
        for case, path in zip(self.cases, self.paths):
            config = sc.config_from_mapping(sc.parse_config_text(case.text))
            result = sc.run_scenario(config)
            sc.emit_results(result, path)
            out.append((result.rows, sc.read_results(path).rows))
        return out

    def check(self, k, out):
        for case, path, (rows, reread) in zip(self.cases, self.paths, out):
            if case.mode == "passive_tha":
                check_cutoff(case, rows)
            check_sweep(case, rows)
            check_roundtrip(rows, reread, f"{case.mode} emit/read")
            with open(path) as f:
                expect(f.readline().rstrip("\n") == RESULT_HEADER,
                       "emitted results header")


class ScanMany(Workload):
    """Many small scenarios (1-5 distance points) from config text.

    A round is 30 scenarios: the mode alternates, the point count cycles
    1..5 and the leak cycles zero / leakage.mu / count rate, so every
    combination occurs once. Each scenario also carries two overrides.
    """

    median_of_round = True
    ROUND = 30
    STEPS = (0.25, 0.5, 1.0, 2.0, 5.0)

    def __init__(self, seed: int, ctx: Context):
        import voaleak.scenario as scenario
        self.sc = scenario
        rng = np.random.default_rng(seed)
        self.cases = []
        for k in range(self.ROUND):
            step = float(rng.choice(self.STEPS))
            d0 = round(float(rng.uniform(0.0, 80.0)), 3)
            self.cases.append(draw_sweep_case(
                rng, ("passive_tha", "dual_source")[k % 2], 1 + k % 5, step, d0,
                LEAK_KINDS[k % 3], override_keys=("sweep.step", "channel.e_d")))
        self.ops = [lambda case=case: self.op(case) for case in self.cases]
        self.work = [1] * self.ROUND

    def op(self, case):
        sc = self.sc
        data = sc.parse_config_text(case.text)
        sc.apply_overrides(data, case.overrides)
        result = sc.run_scenario(sc.config_from_mapping(data))
        return result.rows, sc.sweep_to_text(result)

    def check(self, k, out):
        rows, text = out
        case = self.cases[k]
        check_sweep(case, rows)
        check_roundtrip(rows, parse_result_text(text), f"{case.mode} render")


@dataclass
class FringeCase:
    lambda_ref: float
    c2_ref: float
    c2_unk: float
    h: float
    mapping: dict


@dataclass
class IvCase:
    betas: tuple
    windows: tuple
    mapping: dict


def write_trace(path, header: str, xs, ys) -> None:
    with open(path, "w") as f:
        f.write(header + "\n")
        f.writelines(f"{num(x)},{num(y)}\n" for x, y in zip(xs, ys))


class TraceFit(Workload):
    """Fringe wavelength estimates and I-V ideality fits on seeded traces.

    A round is four operations; operation k runs one fringe scenario on
    reference and unknown scans of SAMPLES[k] samples, then one iv_fit
    scenario with three windows.
    """

    median_of_round = True
    SAMPLES = (2001, 4001, 6001, 8001)
    U_MAX = 2.0  # heater scan 0..2 V
    IV_SAMPLES = 601  # 0..0.9 V

    def __init__(self, seed: int, ctx: Context):
        import voaleak.scenario as scenario
        self.sc = scenario
        rng = np.random.default_rng(seed)
        self.fringes = [self.draw_fringe(rng, n, ctx.work / f"fringe_{k}")
                        for k, n in enumerate(self.SAMPLES)]
        self.ivs = [self.draw_iv(rng, ctx.work / f"iv_{k}.csv")
                    for k in range(len(self.SAMPLES))]
        self.ops = [lambda k=k: self.op(k) for k in range(len(self.SAMPLES))]
        self.work = [2] * len(self.SAMPLES)

    def draw_fringe(self, rng, n: int, stem) -> FringeCase:
        # A fringe's max and the adjacent min are pi apart in phase, so
        # their squared voltages differ by pi/c2, which scales with the
        # wavelength. At least three half-fringes fit in the scan.
        lambda_ref = rng.uniform(1530.0, 1570.0)
        span_ref = rng.uniform(1.0, 1.3)
        span_unk = span_ref * rng.uniform(1000.0, 1200.0) / lambda_ref
        u = np.linspace(0.0, self.U_MAX, n)
        files = {}
        for name, span in (("reference", span_ref), ("unknown", span_unk)):
            counts = oracles.fringe_counts(
                u, math.pi / span, rng.uniform(0.0, 2.0 * math.pi),
                rng.uniform(100.0, 400.0), rng.uniform(2000.0, 6000.0))
            files[name] = f"{stem}_{name}.csv"
            write_trace(files[name], "heater_voltage_v,count_rate_hz", u, counts)
        mapping = {
            "mode": "fringe",
            "fringe.reference_trace": str(files["reference"]),
            "fringe.unknown_trace": str(files["unknown"]),
            "fringe.lambda_ref_nm": num(lambda_ref),
            "fringe.smooth_window": "5",
        }
        return FringeCase(lambda_ref, math.pi / span_ref, math.pi / span_unk,
                          self.U_MAX / (n - 1), mapping)

    def draw_iv(self, rng, path) -> IvCase:
        windows = ((0.0, rng.uniform(0.35, 0.45)),
                   (rng.uniform(0.48, 0.52), rng.uniform(0.75, 0.80)),
                   (rng.uniform(0.83, 0.85), 0.9))
        # Segments join in the gaps, so each window sees one pure slope.
        joins = (0.5 * (windows[0][1] + windows[1][0]),
                 0.5 * (windows[1][1] + windows[2][0]))
        betas = tuple(rng.uniform(1.2, 3.0, size=3))
        temperature = rng.uniform(280.0, 320.0)
        v = np.linspace(0.0, 0.9, self.IV_SAMPLES)
        current = 10.0 ** oracles.iv_log_current(v, joins, betas, temperature)
        write_trace(path, "voltage_v,current_a", v, current)
        mapping = {
            "mode": "iv_fit",
            "ivfit.trace": str(path),
            "ivfit.temperature": num(temperature),
            "ivfit.windows": ", ".join(f"{num(lo)}:{num(hi)}" for lo, hi in windows),
        }
        return IvCase(betas, windows, mapping)

    def op(self, k: int):
        sc = self.sc
        wavelength = sc.run_scenario(sc.config_from_mapping(self.fringes[k].mapping))
        fits = sc.run_scenario(sc.config_from_mapping(self.ivs[k].mapping))
        return wavelength, fits

    def check(self, k, out):
        wl, fits = out
        fr, iv = self.fringes[k], self.ivs[k]
        want = fr.lambda_ref * fr.c2_ref / fr.c2_unk
        tol = oracles.wavelength_tolerance(
            fr.h, wl.reference, wl.unknown, math.pi / fr.c2_ref, math.pi / fr.c2_unk)
        expect(abs(wl.wavelength_nm / want - 1.0) <= tol,
               f"wavelength {wl.wavelength_nm:.4f} nm, generated {want:.4f} nm "
               f"(tolerance {tol:.2g} relative)")
        expect(len(fits.fits) == 3, "expected three ideality fits")
        for fit, beta, (lo, hi) in zip(fits.fits, iv.betas, iv.windows):
            expect((fit.v_lo, fit.v_hi) == (lo, hi), "fit window edges")
            expect(abs(fit.beta / beta - 1.0) <= 1e-6,
                   f"ideality {fit.beta:.9g} in [{lo:.3f}, {hi:.3f}] V, "
                   f"generated {beta:.9g}")


# Subcommand, shipped config, fixed overrides, output header, data rows.
CLI_CALLS = (
    ("sweep", "passive_tha.cfg",
     ("sweep.distance_min=0", "sweep.distance_max=400", "sweep.step=1"),
     RESULT_HEADER, 401),
    ("sweep", "dual_source.cfg",
     ("sweep.distance_min=0", "sweep.distance_max=60", "sweep.step=1"),
     RESULT_HEADER, 61),
    ("wavelength", "fringe.cfg", (),
     "wavelength_nm,ref_u_max_v,ref_u_min_v,unk_u_max_v,unk_u_min_v", 1),
    ("ivfit", "ivfit.cfg", (),
     "v_lo_v,v_hi_v,slope_decades_per_v,beta,temperature_k", 3),
    ("leakage", "device.cfg", (),
     "drive_voltage_v,count_rate_hz,pulse_width_s,mu", 3),
)


class Cli(Workload):
    """One `python -m voaleak.cli` child per operation, spawn to exit.

    A round is the five subcommand calls of CLI_CALLS on the shipped
    configs; the seed draws one or two parameter overrides per call.
    """

    def __init__(self, seed: int, ctx: Context):
        self.ctx = ctx
        rng = np.random.default_rng(seed)
        drawn = (
            (f"leakage.count_rate={num(rng.uniform(1e6, 6e7))}",
             f"channel.e_d={num(rng.uniform(0.003, 0.02))}"),
            (f"leakage.count_rate={num(rng.uniform(1e6, 6e7))}",
             f"channel.alpha_par={num(rng.uniform(0.5, 1.0))}"),
            (f"fringe.lambda_ref_nm={num(rng.uniform(1530.0, 1570.0))}",),
            (f"ivfit.temperature={num(rng.uniform(280.0, 320.0))}",),
            (f"emission.1.count_rate={num(rng.uniform(1e6, 6e7))}",),
        )
        self.argvs = []
        for (command, config, fixed, _, _), seeded in zip(CLI_CALLS, drawn):
            argv = [command, "--config", str(ctx.root / "configs" / config)]
            for item in fixed + seeded:
                argv += ["--override", item]
            self.argvs.append(argv)
        self.spans = None
        self.max_rss_kb = 0
        self.out_path = ctx.work / "cli.out"
        self.err_path = ctx.work / "cli.err"
        self.ops = [lambda k=k: self.op(k) for k in range(len(CLI_CALLS))]
        self.work = [1] * len(CLI_CALLS)

    def op(self, k: int):
        argv = self.argvs[k]
        if self.spans is not None:
            spans_path = self.ctx.work / "child_spans.json"
            cmd = [self.ctx.python, tracer.__file__, str(spans_path),
                   str(self.ctx.root / "src")] + argv
        else:
            cmd = [self.ctx.python, "-m", "voaleak.cli"] + argv
        with open(self.out_path, "wb") as out, open(self.err_path, "wb") as err:
            child = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.ctx.env,
                                     cwd=self.ctx.root)
            _, status, usage = os.wait4(child.pid, 0)
            child.returncode = os.waitstatus_to_exitcode(status)
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        if child.returncode != 0:
            with open(self.err_path) as f:
                raise OperationFailed(
                    f"exit {child.returncode}: {f.read().strip()[-300:]}")
        if self.spans is not None:
            tracer.adopt_child(self.spans, spans_path)
        return k

    def check(self, k, out):
        _, config, _, header, rows = CLI_CALLS[k]
        with open(self.out_path) as f:
            lines = f.read().splitlines()
        expect(lines and lines[0] == header, f"{config}: output header")
        expect(len(lines) - 1 == rows,
               f"{config}: {len(lines) - 1} rows, expected {rows}")
        width = header.count(",") + 1
        expect(all(len(line.split(",")) == width for line in lines[1:]),
               f"{config}: row width")

    def trace(self, spans):
        self.spans = spans

    def untrace(self):
        self.spans = None

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0


WORKLOADS = {
    "cli": Cli,
    "sweep_dense": SweepDense,
    "scan_many": ScanMany,
    "trace_fit": TraceFit,
}
