"""Shared oracles and synthetic-data builders for the test suite.

The oracles deliberately take different arithmetic routes than the
library (log-domain per-term yields summed over explicit Poisson
weights, and exhaustive enumeration of click/error outcomes), so
agreement is evidence of correctness rather than repetition.
"""

from __future__ import annotations

import math

import numpy as np

from voaleak import (
    ChannelParams,
    DecoyObservations,
    observables_for_intensity,
)

TRUNCATION = 50

# Exact SI values (2019 redefinition).
ELEMENTARY_CHARGE = 1.602176634e-19  # C
BOLTZMANN = 1.380649e-23  # J/K

# PASS/FAIL lines collected by the acceptance checks; the conftest
# terminal-summary hook prints them once the run finishes.
VERDICTS: list[str] = []


def poisson_weights(mean: float, nmax: int) -> list[float]:
    """P(N = n) for n = 0..nmax, built iteratively (no factorials)."""
    w = [math.exp(-mean)]
    for n in range(1, nmax + 1):
        w.append(w[-1] * mean / n)
    return w


def yield_oracle(i: int, j: int, eta: float, eta_par: float, y0: float) -> float:
    """Y_ij evaluated in the log domain for full relative precision."""
    t = math.log1p(-y0)
    if i:
        t += i * math.log1p(-eta)
    if j:
        t += j * math.log1p(-eta_par)
    return -math.expm1(t)


def error_numerator_oracle(
    i: int, j: int, eta: float, eta_par: float, y0: float,
    e_d: float, e0: float,
) -> float:
    """e_ij Y_ij as 1 - P(no source produces an erroneous click).

    Stabilized product form; independent of the expanded
    inclusion-exclusion polynomial used by the library.
    """
    a = -math.expm1(i * math.log1p(-eta)) if i else 0.0
    b = -math.expm1(j * math.log1p(-eta_par)) if j else 0.0
    t = math.log1p(-a * e_d) + math.log1p(-b * e0) + math.log1p(-y0 * e0)
    return -math.expm1(t)


def error_rate_enumeration(
    i: int, j: int, eta: float, eta_par: float, y0: float,
    e_d: float, e0: float,
) -> float:
    """e_ij by brute-force enumeration of the three click sources.

    Each source is absent, present-and-correct, or present-and-erroneous;
    the detector clicks if any source is present and the click is
    erroneous if any present source erred. 27 outcomes total.
    """
    a = 1.0 - (1.0 - eta) ** i
    b = 1.0 - (1.0 - eta_par) ** j
    sources = ((a, e_d), (b, e0), (y0, e0))
    click = 0.0
    err = 0.0
    for state in range(27):
        digits = (state % 3, state // 3 % 3, state // 9)
        w = 1.0
        present = False
        wrong = False
        for (p, e), d in zip(sources, digits):
            if d == 0:
                w *= 1.0 - p
            elif d == 1:
                w *= p * (1.0 - e)
                present = True
            else:
                w *= p * e
                present = True
                wrong = True
        if present:
            click += w
            if wrong:
                err += w
    if click == 0.0:
        raise ZeroDivisionError("no click outcomes to condition on")
    return err / click


def brute_force_gain(
    gamma: float, mu_el: float, ch: ChannelParams, nmax: int = TRUNCATION
) -> float:
    """Double-Poisson sum of per-photon-number yields."""
    pi = poisson_weights(gamma, nmax)
    pj = poisson_weights(mu_el, nmax)
    eta, etap = ch.eta_signal(), ch.eta_parasitic()
    return math.fsum(
        pi[i] * pj[j] * yield_oracle(i, j, eta, etap, ch.y0)
        for i in range(nmax + 1) for j in range(nmax + 1))


def brute_force_error_gain(
    gamma: float, mu_el: float, ch: ChannelParams, nmax: int = TRUNCATION
) -> float:
    """Double-Poisson sum of per-photon-number error gains."""
    pi = poisson_weights(gamma, nmax)
    pj = poisson_weights(mu_el, nmax)
    eta, etap = ch.eta_signal(), ch.eta_parasitic()
    return math.fsum(
        pi[i] * pj[j]
        * error_numerator_oracle(i, j, eta, etap, ch.y0, ch.e_d, ch.e0)
        for i in range(nmax + 1) for j in range(nmax + 1))


def effective_single_photon(
    ch: ChannelParams, mu_el: float, jmax: int = 60
) -> tuple[float, float, float]:
    """True (Y0_eff, Y1_eff, e1_eff) of the signal-photon-number expansion.

    With an unmodulated parasitic source of intensity mu_el present at
    every signal setting, the gains decompose as
    Q = sum_i P_i(gamma) Y_i_eff with intensity-independent
    Y_i_eff = sum_j P_j(mu_el) Y_ij, which is what decoy estimation
    bounds. Same for the error rates.
    """
    pj = poisson_weights(mu_el, jmax)
    eta, etap = ch.eta_signal(), ch.eta_parasitic()
    y0_eff = math.fsum(pj[j] * yield_oracle(0, j, eta, etap, ch.y0)
                       for j in range(jmax + 1))
    y1_eff = math.fsum(pj[j] * yield_oracle(1, j, eta, etap, ch.y0)
                       for j in range(jmax + 1))
    eq1 = math.fsum(
        pj[j] * error_numerator_oracle(1, j, eta, etap, ch.y0, ch.e_d, ch.e0)
        for j in range(jmax + 1))
    return y0_eff, y1_eff, eq1 / y1_eff


def h2(x: float) -> float:
    """Binary entropy in bits, via natural logs and log1p."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log(x) + (1.0 - x) * math.log1p(-x)) / math.log(2.0)


def exact_statistics_rate(delta: float, ch: ChannelParams) -> float:
    """Pre-encoder GLLP rate (p_z = 1, unclipped) on the true statistics.

    The single-photon yield and error rate are the exact channel values,
    not decoy bounds; Q_s and E_s are the double-Poisson sums. The coin
    imbalance is conditioned on detection (Delta' = Delta / Y1) and the
    phase error is inflated by Lo-Preskill in its angle form,
    sqrt(e') = sqrt(e)(1 - 2 Delta') + 2 sqrt(Delta'(1 - Delta')(1 - e)),
    capped at 1/2. Signal intensity and f_ec are the ScenarioConfig defaults.
    """
    s, f_ec = 0.48, 1.2
    _, y1, e1 = effective_single_photon(ch, 0.0)
    q_s = brute_force_gain(s, 0.0, ch)
    e_s = brute_force_error_gain(s, 0.0, ch) / q_s
    d = delta / y1
    e_ph = 0.5
    if d < 0.5:
        root = (math.sqrt(e1) * (1.0 - 2.0 * d)
                + 2.0 * math.sqrt(d * (1.0 - d) * (1.0 - e1)))
        e_ph = min(root * root, 0.5)
    priv = s * math.exp(-s) * y1 * (1.0 - h2(e_ph))
    return priv - q_s * f_ec * h2(e_s)


def exact_statistics_cutoff(delta: float) -> float:
    """Distance U [km] where the exact-statistics rate reaches zero.

    Decoy bounds satisfy Y1^L <= Y1 and e1^U >= e1, and the rate rises
    with Y1 and falls with e1, so no sound estimator keeps a positive
    rate beyond U on the default channel. Found by bisection on the
    sweep span [0, 400] km.
    """
    def rate(d: float) -> float:
        return exact_statistics_rate(delta, ChannelParams(distance=d))

    lo, hi = 0.0, 400.0
    if rate(lo) <= 0.0 or rate(hi) > 0.0:
        raise ValueError("rate does not change sign on [0, 400] km")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return lo


def basis_fidelity(mu: float, angles: tuple[float, ...]) -> float:
    """Fidelity of the Z- and X-basis averages of the leaked states.

    Each leaked state is the two-mode coherent state
    |sqrt(mu) cos(theta), sqrt(mu) sin(theta)>; angles[0] and angles[2]
    form the Z basis, angles[1] and angles[3] the X basis, each state
    with probability 1/2. For ensembles of pure states the fidelity is
    the trace norm of the matrix of weighted overlaps
    sqrt(p_i q_j) <psi_i|phi_j>.
    """
    def amplitudes(theta: float) -> np.ndarray:
        return math.sqrt(mu) * np.array([math.cos(theta), math.sin(theta)])

    def overlap(a: np.ndarray, b: np.ndarray) -> float:
        # <a|b> of multimode coherent states with real amplitudes.
        return math.exp(-0.5 * (a @ a + b @ b) + a @ b)

    z = [amplitudes(angles[0]), amplitudes(angles[2])]
    x = [amplitudes(angles[1]), amplitudes(angles[3])]
    m = np.array([[0.5 * overlap(a, b) for b in x] for a in z])
    return float(np.linalg.svd(m, compute_uv=False).sum())


def decoy_observations(
    ch: ChannelParams, s: float, nu: float, omega: float, mu_el: float
) -> DecoyObservations:
    """Simulated two-decoy observation set at fixed contamination."""
    qs = observables_for_intensity(s, mu_el, ch)
    qn = observables_for_intensity(nu, mu_el, ch)
    qw = observables_for_intensity(omega, mu_el, ch)
    return DecoyObservations(
        s=s, nu=nu, omega=omega,
        q_s=qs.gain, q_nu=qn.gain, q_omega=qw.gain,
        e_s=qs.qber, e_nu=qn.qber, e_omega=qw.qber)


def random_channel(rng: np.random.Generator, with_leak: bool = True):
    """One physically plausible random channel (and parasitic intensity)."""
    ch = ChannelParams(
        distance=float(rng.uniform(0.0, 100.0)),
        alpha_sig=float(rng.uniform(0.1, 1.0)),
        alpha_par=float(rng.uniform(0.1, 2.0)),
        eta_bob_sig=float(rng.uniform(0.1, 1.0)),
        eta_bob_par=float(rng.uniform(0.05, 1.0)),
        y0=float(10.0 ** rng.uniform(-9.0, -4.0)),
        e_d=float(rng.uniform(0.0, 0.12)),
        e0=0.5,
    )
    mu_el = float(rng.uniform(0.0, 0.5)) if with_leak else 0.0
    return ch, mu_el


def random_decoy_run(rng: np.random.Generator,
                     s: float = 0.48, nu: float = 0.02, omega: float = 0.001):
    """Random channel plus its simulated decoy observations.

    Every draw is kept, including lossy channels where overlapping
    background sources push a QBER slightly beyond 1/2.
    """
    ch, mu_el = random_channel(rng)
    return ch, mu_el, decoy_observations(ch, s, nu, omega, mu_el)


def shockley_curve(beta: float, temperature: float = 300.0,
                   i0: float = 1e-12, v_lo: float = 0.05, v_hi: float = 0.9,
                   n: int = 120) -> tuple[np.ndarray, np.ndarray]:
    """Noise-free exponential diode data with a known ideality factor."""
    v = np.linspace(v_lo, v_hi, n)
    current = i0 * np.exp(ELEMENTARY_CHARGE * v
                          / (beta * BOLTZMANN * temperature))
    return v, current


def synthetic_fringe(c2: float, phi0: float,
                     u: np.ndarray | None = None,
                     peak: float = 4800.0, background: float = 200.0
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Cosine fringe with thermo-optic phase quadratic in voltage."""
    if u is None:
        u = np.linspace(0.0, 2.0, 201)
    counts = background + peak * 0.5 * (1.0 + np.cos(phi0 + c2 * u ** 2))
    return u, counts
