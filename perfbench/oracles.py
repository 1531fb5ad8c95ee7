"""Closed forms that the output checks compare the program against.

Everything here is written from the physics with numpy and the math
module. No function of the package under test is called, and where the
package uses one algebraic form this file uses another (product forms
for the error gains, the angle form of the Lo-Preskill inflation), so
agreement is evidence and not repetition.
"""

from __future__ import annotations

import math

import numpy as np

# Exact since the 2019 SI redefinition.
Q_E = 1.602176634e-19  # C
K_B = 1.380649e-23  # J/K


def transmittances(case, d):
    """End-to-end (signal, parasitic) transmittances at distances d [km]."""
    eta = 10.0 ** (-case.alpha_sig * d / 10.0) * case.eta_bob_sig
    eta_p = 10.0 ** (-case.alpha_par * d / 10.0) * case.eta_bob_par
    return eta, eta_p


def gain(gamma, mu, eta, eta_p, y0):
    """Q = 1 - (1 - Y0) exp(-gamma eta - mu eta')."""
    return -np.expm1(np.log1p(-y0) - gamma * eta - mu * eta_p)


def error_gain(gamma, mu, eta, eta_p, y0, e_d, e0):
    """E Q = 1 - P(no source makes an erroneous click).

    The signal errs with e_d, the parasitic light and dark counts with
    e0; the three sources are independent.
    """
    a = -np.expm1(-gamma * eta)
    b = -np.expm1(-mu * eta_p)
    return -np.expm1(np.log1p(-a * e_d) + np.log1p(-b * e0)
                     + np.log1p(-y0 * e0))


def single_photon(mu, eta, eta_p, y0, e_d, e0):
    """True effective (Y1, e1) with the parasitic light Poisson-averaged.

    Y1 = 1 - (1 - eta)(1 - Y0) exp(-mu eta'), and e1 Y1 is the product
    form of `error_gain` with one signal photon.
    """
    y1 = -np.expm1(np.log1p(-eta) + np.log1p(-y0) - mu * eta_p)
    b = -np.expm1(-mu * eta_p)
    eq1 = -np.expm1(np.log1p(-eta * e_d) + np.log1p(-b * e0)
                    + np.log1p(-y0 * e0))
    return y1, eq1 / y1


def leak_mu(count_rate: float, pulse_width: float) -> float:
    """Poisson mean whose click probability per gate is C dt."""
    return -math.log(1.0 - count_rate * pulse_width)


def coin_imbalance(mu: float) -> float:
    """Delta = 1/2 [1 - e^-mu (cosh(mu/sqrt2) + 1/2 sinh(mu/sqrt2))]."""
    x = mu / math.sqrt(2.0)
    return 0.5 * (1.0 - math.exp(-mu) * (math.cosh(x) + 0.5 * math.sinh(x)))


def h2(x):
    """Binary entropy in bits, 0 at the ends."""
    x = np.asarray(x, dtype=float)
    inner = np.clip(x, 1e-300, 1.0 - 1e-16)
    out = -(inner * np.log(inner) + (1.0 - inner) * np.log1p(-inner)) / math.log(2.0)
    return np.where(x > 0.0, out, 0.0)


def exact_passive_rate(case, d, mu_eve):
    """Pre-encoder GLLP rate fed the true Y1 and e1 instead of decoy bounds.

    Delta' = Delta / Y1 and the phase error is inflated in angle form,
    e' = sin^2(asin sqrt(e1) + 2 asin sqrt(Delta')), capped at 1/2; it
    rises with e1 and with Delta', so the rate rises with Y1 and falls
    with e1. Decoy bounds have Y1_L <= Y1 and e1_U >= e1, so no sound
    estimate exceeds this rate. Not clipped at zero.
    """
    d = np.asarray(d, dtype=float)
    eta, eta_p = transmittances(case, d)
    y1, e1 = single_photon(0.0, eta, eta_p, case.y0, case.e_d, case.e0)
    q_s = gain(case.s, 0.0, eta, eta_p, case.y0)
    e_s = error_gain(case.s, 0.0, eta, eta_p, case.y0, case.e_d, case.e0) / q_s
    dp = coin_imbalance(mu_eve) / y1
    angle = np.arcsin(np.sqrt(e1)) + 2.0 * np.arcsin(np.sqrt(np.minimum(dp, 0.5)))
    e_ph = np.where((dp < 0.5) & (angle < math.pi / 4), np.sin(angle) ** 2, 0.5)
    p1 = case.s * math.exp(-case.s)
    scale = case.p_z ** 2
    return scale * (p1 * y1 * (1.0 - h2(e_ph)) - q_s * case.f_ec * h2(e_s))


def exact_passive_cutoff(case, mu_eve, lo=0.0, hi=400.0):
    """Distance U [km] where `exact_passive_rate` reaches zero, by bisection.

    Returns inf when the rate stays positive over [lo, hi].
    """
    def rate(d):
        return float(exact_passive_rate(case, d, mu_eve))

    if rate(hi) > 0.0:
        return math.inf
    if rate(lo) <= 0.0:
        return lo
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if rate(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def fringe_counts(u, c2, phi0, background, peak):
    """Cosine fringe whose thermo-optic phase is quadratic in voltage."""
    return background + peak * 0.5 * (1.0 + np.cos(phi0 + c2 * u * u))


def wavelength_tolerance(h, ref, unk, span_ref, span_unk):
    """Relative error bound of the squared-voltage ratio on a snapped grid.

    Each returned extremum lies within one grid step h of a true one, so
    a squared-voltage span S = |u_max^2 - u_min^2| is off by at most
    h(2 u_max + h) + h(2 u_min + h), with u the returned voltages.
    """
    def rel(pair, span):
        return (h * (2.0 * abs(pair.u_max) + h)
                + h * (2.0 * abs(pair.u_min) + h)) / span

    r_ref, r_unk = rel(ref, span_ref), rel(unk, span_unk)
    return (r_unk + r_ref) / (1.0 - r_ref)


def iv_log_current(v, joins, betas, temperature, log_i0=-12.0):
    """log10 I of a piecewise-exponential diode curve.

    The log-slope over segment k is q / (ln10 k_B T beta_k); the segments
    meet at the join voltages.
    """
    edges = (0.0,) + tuple(joins) + (math.inf,)
    out = np.full_like(v, log_i0)
    for lo, hi, beta in zip(edges, edges[1:], betas):
        slope = Q_E / (math.log(10.0) * K_B * temperature * beta)
        out = out + slope * np.clip(v - lo, 0.0, hi - lo)
    return out
