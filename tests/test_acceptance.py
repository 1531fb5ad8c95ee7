"""End-to-end checks of every quantitative promise the package makes.

Each check records one PASS/FAIL line (printed as a verdict table at
the end of the run) and then asserts. Failures stay plain red;
nothing is skipped or weakened.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from voaleak import (
    RESULT_HEADER,
    ChannelParams,
    EmissionSpec,
    ExtremaPair,
    IvCurve,
    ScenarioConfig,
    bandgap_wavelength,
    binary_entropy,
    center_wavelength,
    coin_imbalance,
    fit_ideality,
    gllp_key_rate,
    load_config,
    mean_photon_number,
    observables_for_intensity,
    phase_error_with_tha,
    run_scenario,
    single_photon_bounds,
)
from voaleak.errors import replace
from helpers import (
    VERDICTS,
    _last_positive,
    _ref_passive_rate,
    brute_force_error_gain,
    brute_force_gain,
    coin_imbalance_reference,
    decoy_observations,
    effective_single_photon,
    exact_statistics_cutoff,
    fidelity_imbalance,
    passive_cutoff,
    random_channel,
    random_decoy_run,
    shockley_curve,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
DRIVE_TABLE = (
    (EmissionSpec(1.4, 2.38e7, 2e-10), 0.0048),
    (EmissionSpec(1.4, 2.38e7, 1.6e-9), 0.0388),
    (EmissionSpec(2.0, 5.82e7, 1.6e-9), 0.0977),
)
LEAK_LEVELS = (0.0048, 0.0388, 0.0977)
# Coin imbalance at the worst-case leak, mu = 0.0977.
REFERENCE_DELTA = 0.029776
# Column numbers of the results table.
DISTANCE, BASELINE, CONTAMINATED = (
    RESULT_HEADER.split(",").index(name)
    for name in ("distance_km", "rate_baseline", "rate_contaminated"))


def check(ok: bool, label: str):
    line = f"{'PASS' if ok else 'FAIL'} {label}"
    VERDICTS.append(line)
    print(line)
    assert ok, label


def last_positive_km(rows, column) -> float:
    dist = -1.0
    for row in rows.tolist():
        if row[column] > 0.0:
            dist = row[DISTANCE]
    return dist


def ordered_everywhere(hi, lo) -> bool:
    # Strict ordering wherever the lower curve is alive; once both
    # curves hit zero they coincide and only >= is meaningful.
    return all(h > l if l > 0.0 else h >= l for h, l in zip(hi, lo))


@pytest.fixture(scope="module")
def passive_sweeps():
    results, elapsed = {}, {}
    for mu in LEAK_LEVELS:
        cfg = ScenarioConfig(mode="passive_tha", mu_leak=mu,
                             distance_min=0.0, distance_max=400.0, step=1.0)
        t0 = time.perf_counter()
        results[mu] = run_scenario(cfg)
        elapsed[mu] = time.perf_counter() - t0
    return results, elapsed


@pytest.fixture(scope="module")
def dual_sweeps():
    results, elapsed = {}, {}
    for mu in LEAK_LEVELS:
        cfg = ScenarioConfig(mode="dual_source", mu_leak=mu,
                             distance_min=0.0, distance_max=60.0, step=1.0)
        t0 = time.perf_counter()
        results[mu] = run_scenario(cfg)
        elapsed[mu] = time.perf_counter() - t0
    return results, elapsed


def test_leakage_photon_numbers():
    errs = [abs(mean_photon_number(spec) - want)
            for spec, want in DRIVE_TABLE]
    check(max(errs) <= 5e-4,
          "leaked photon numbers 0.0048/0.0388/0.0977 within 5e-4")


def test_center_wavelength_from_fringe_extrema():
    lam = center_wavelength(1550.82, ExtremaPair(0.95, 1.60),
                            ExtremaPair(0.66, 1.26))
    check(abs(lam - 1077.85) <= 0.01,
          "emission center wavelength 1077.85 nm within 0.01 nm")


def test_bandgap_cutoff_wavelength():
    check(abs(bandgap_wavelength(1.12) - 1107.0) <= 1.0,
          "1.12 eV bandgap cutoff 1107 nm within 1 nm")


def test_passive_cutoff_leak_free(passive_sweeps):
    results, elapsed = passive_sweeps
    cutoff = last_positive_km(results[0.0977].rows, BASELINE)
    runtime_ok = max(elapsed.values()) < 5.0
    check(300.0 <= cutoff <= 340.0 and runtime_ok,
          f"leak-free range cutoff {cutoff:.0f} km within 320 +/- 20 km "
          f"(sweep < 5 s)")


def test_passive_cutoff_worst_case(passive_sweeps):
    # The two-decoy estimate can never outrange a perfect single-photon
    # estimator, and on the 1 km grid it should lose less than one step.
    # The grid cutoff lies at or below the exact cutoff of the same sweep.
    results, _ = passive_sweeps
    cutoff = last_positive_km(results[0.0977].rows, CONTAMINATED)
    exact = passive_cutoff(ScenarioConfig(mode="passive_tha", mu_leak=0.0977,
                                          distance_max=400.0))
    bound = exact_statistics_cutoff(REFERENCE_DELTA)
    check(bound - 1.0 < cutoff <= exact <= bound,
          f"worst-case leak range cutoff {cutoff:.0f} km <= exact cutoff "
          f"{exact:.3f} km <= exact-statistics bound {bound:.2f} km, "
          f"within one 1 km step")


def test_passive_curves_strictly_ordered(passive_sweeps):
    results, _ = passive_sweeps
    base = results[0.0048].rows[:, BASELINE].tolist()
    for mu in LEAK_LEVELS[1:]:
        other = results[mu].rows[:, BASELINE].tolist()
        assert other == base  # leak-free curve is identical in every sweep
    curves = [base] + [results[mu].rows[:, CONTAMINATED].tolist()
                       for mu in LEAK_LEVELS]
    ok = all(ordered_everywhere(hi, lo)
             for hi, lo in zip(curves, curves[1:]))
    check(ok, "passive key-rate curves strictly ordered by leak intensity")


def test_dual_short_range_reduction(dual_sweeps):
    results, elapsed = dual_sweeps
    ratios = [r[CONTAMINATED] / r[BASELINE]
              for r in results[0.0977].rows.tolist() if r[DISTANCE] <= 5.0]
    runtime_ok = max(elapsed.values()) < 5.0
    check(any(0.35 <= r <= 0.65 for r in ratios) and runtime_ok,
          f"short-range dual-source reduction ratio {min(ratios):.3f} "
          f"within [0.35, 0.65] (sweep < 5 s)")


def test_dual_long_range_recovery(dual_sweeps):
    results, _ = dual_sweeps
    ratios = []
    for mu in LEAK_LEVELS:
        row = next(r for r in results[mu].rows.tolist() if r[DISTANCE] == 30.0)
        ratios.append(row[CONTAMINATED] / row[BASELINE])
    check(min(ratios) >= 0.95,
          f"dual-source penalty gone by 30 km (min ratio {min(ratios):.4f} "
          f">= 0.95)")


def test_dual_curves_strictly_ordered(dual_sweeps):
    results, _ = dual_sweeps
    curves = [results[0.0048].rows[:, BASELINE].tolist()]
    curves += [results[mu].rows[:, CONTAMINATED].tolist()
               for mu in LEAK_LEVELS]
    ok = all(ordered_everywhere(hi, lo)
             for hi, lo in zip(curves, curves[1:]))
    check(ok, "dual-source key-rate curves strictly ordered by contamination")


def test_gain_closed_forms_match_brute_force():
    rng = np.random.default_rng(9021)
    worst = 0.0
    t0 = time.perf_counter()
    for _ in range(100):
        ch, _ = random_channel(rng)
        gamma = float(rng.uniform(0.0, 2.0))
        mu_el = float(rng.uniform(0.0, 1.0))
        obs = observables_for_intensity(gamma, mu_el, ch)
        q_ref = brute_force_gain(gamma, mu_el, ch)
        eq_ref = brute_force_error_gain(gamma, mu_el, ch)
        worst = max(worst,
                    abs(obs.gain - q_ref) / q_ref,
                    abs(obs.gain * obs.qber - eq_ref) / eq_ref)
    runtime = time.perf_counter() - t0
    check(worst <= 1e-10 and runtime < 10.0,
          f"closed-form gains match truncated Poisson sums "
          f"(worst rel err {worst:.1e} <= 1e-10, {runtime:.1f} s < 10 s)")


def test_decoy_bounds_sound_on_random_channels():
    rng = np.random.default_rng(41117)
    violations = 0
    t0 = time.perf_counter()
    for _ in range(100):
        ch, mu_el, obs = random_decoy_run(rng)
        bounds = single_photon_bounds(obs)
        _, y1_true, e1_true = effective_single_photon(ch, mu_el)
        if bounds.y1_lower > y1_true + 1e-12:
            violations += 1
        if bounds.e1_upper < e1_true - 1e-12:
            violations += 1
    runtime = time.perf_counter() - t0
    check(violations == 0 and runtime < 5.0,
          f"decoy bounds enclose the true single-photon statistics on 100 "
          f"random channels ({violations} violations, {runtime:.1f} s < 5 s)")


def test_coin_imbalance_reference_points():
    exact_zero = coin_imbalance(0.0) == 0.0
    near_ref = abs(coin_imbalance(0.0977) - REFERENCE_DELTA) <= 1e-5
    grid = [coin_imbalance(m) for m in np.linspace(0.0, 1.0, 1000)]
    increasing = all(b > a for a, b in zip(grid, grid[1:]))
    check(exact_zero and near_ref and increasing,
          "coin imbalance: 0 at zero leak, 0.029776 +/- 1e-5 at mu=0.0977, "
          "strictly increasing on [0, 1]")


def test_ideality_round_trip():
    errs = []
    for beta in (1.0, 1.8, 2.0, 2.6):
        v, i = shockley_curve(beta)
        fit = fit_ideality(IvCurve(v, i), 0.05, 0.9, temperature=300.0)
        errs.append(abs(fit.beta - beta))
    check(max(errs) <= 1e-4,
          "ideality factors 1.0/1.8/2.0/2.6 recovered within 1e-4")


def test_zero_leak_reduces_to_standard_rate():
    ok = True
    for distance in (0.0, 13.0, 50.0, 100.0):
        ch = ChannelParams(distance=distance)
        obs = decoy_observations(ch, 0.48, 0.02, 0.001, 0.0)
        bounds = single_photon_bounds(obs)
        p1 = obs.s * math.exp(-obs.s)
        priv = 1.0 ** 2 * p1 * bounds.y1_lower * (
            1.0 - binary_entropy(bounds.e1_upper))
        ec = 1.0 ** 2 * obs.q_s * 1.2 * binary_entropy(obs.e_s)
        standard = max(0.0, priv - ec)
        ok = ok and gllp_key_rate(obs, bounds, 0.0) == standard
    check(ok, "zero leak: coin-bound rate equals standard decoy rate "
              "bit-for-bit")


def test_zero_contamination_reduces_to_baseline():
    cfg = ScenarioConfig(mode="dual_source", mu_leak=0.0,
                         distance_min=0.0, distance_max=30.0, step=1.0)
    rows = run_scenario(cfg).rows.tolist()
    ok = all(r[CONTAMINATED] == r[BASELINE] for r in rows)
    check(ok, "zero contamination: dual-source rate equals baseline "
              "bit-for-bit")


def test_zero_imbalance_leaves_phase_error_unchanged():
    grid = np.linspace(0.0, 0.5, 101)
    ok = all(phase_error_with_tha(float(e), 0.0) == float(e) for e in grid)
    check(ok, "zero imbalance: phase error passes through unchanged")


def test_coin_imbalance_of_a_scaled_encoder():
    # ROADMAP item 13, at the shipped leak: the encoder turns the leak's
    # angles by r times its 1550 nm angles. Delta_fid is the
    # fidelity-optimal imbalance, U the exact-statistics cutoff at it.
    mu = load_config(CONFIGS / "passive_tha.cfg").mu_leak
    ratios = (1107 / 1550, 1.0, 1550 / 1107, 1.6, 2.0)
    deltas = [fidelity_imbalance(mu, r) for r in ratios]
    cutoffs = [exact_statistics_cutoff(delta) for delta in deltas]
    VERDICTS.append(
        f"INFO coin imbalance of an encoder scaled by r, at mu = {mu:.6f}: "
        + "; ".join(f"r = {r:.3f}: Delta_fid = {delta:.6f}, U = {u:.2f} km"
                    for r, delta, u in zip(ratios, deltas, cutoffs))
        + f"; pinned coin_imbalance {coin_imbalance(mu):.6f}")
    assert cutoffs == pytest.approx([43.33, 29.71, 16.02, 10.79, 3.01], abs=0.01)


def test_range_loss_ledger():
    # ROADMAP item 11, the rows that need no LP and no finite-size model:
    # the cutoff of the shipped passive config as each assumption changes.
    # "closed form" is the package's two-decoy chain, "true" the channel's
    # own Y1 and e1.
    config = load_config(CONFIGS / "passive_tha.cfg")
    mu = config.mu_leak

    def closed_form(coin):
        return _last_positive(lambda d: _ref_passive_rate(config, d)(coin),
                              config.distance_min, config.distance_max)

    doubled = -math.expm1(-mu) / 2.0  # the coin of an r = 2 encoder
    ledger = (
        ("no leak, closed form",
         passive_cutoff(replace(config, mu_leak=0.0)), 322.006),
        ("the leak, closed form (the package)", passive_cutoff(config), 12.143),
        ("the leak, true Y1 and e1",
         exact_statistics_cutoff(coin_imbalance_reference(mu)), 12.307),
        ("fidelity-optimal coin (r = 1), true Y1 and e1",
         exact_statistics_cutoff(fidelity_imbalance(mu)), 29.710),
        ("mu / 0.8 for eta_meas = 0.8, closed form",
         passive_cutoff(replace(config, mu_leak=mu / 0.8)), 7.795),
        ("r = 2 coin (1 - e^-mu)/2, closed form", closed_form(doubled), 2.888),
        ("r = 2 coin, true Y1 and e1", exact_statistics_cutoff(doubled), 3.013),
    )
    VERDICTS.append(f"INFO range-loss ledger at mu = {mu:.6f}: " + "; ".join(
        f"{label} {km:.3f} km" for label, km, _ in ledger))
    for label, km, figure in ledger:
        assert km == pytest.approx(figure, abs=1e-3), label
