"""Asymptotic key-rate bounds under parasitic-emission side channels.

Two attack geometries are modeled:

* Pre-encoder leakage (passive Trojan-horse): the leaked light is
  modulated by the encoder, making the effective source basis-dependent.
  The GLLP/Koashi quantum-coin argument converts the leaked intensity
  mu_eve into a coin imbalance Delta; after conditioning on detection
  (Delta' = Delta / Y1) the single-photon phase error rate is inflated
  by the Lo-Preskill bound before entering the decoy-state GLLP rate.

* Post-encoder leakage (dual-source flaw): the leaked light is not
  modulated but co-propagates with the signal, biasing the decoy
  estimates and the error correction cost. The rate formula keeps the
  standard decoy-BB84 shape evaluated on the contaminated observables.

Conventions: basis probability p_z defaults to 1 (asymptotic efficient
BB84), sifting factor q_proto defaults to 1/2, error-correction
inefficiency f_ec defaults to 1.2.

Both rates, the coin imbalance, the entropy and the phase-error
inflation are elementwise: observables, bounds and the leak intensity
may hold numpy arrays (one protocol run per element), and floats come
back as floats.
"""

from __future__ import annotations

import math

import numpy as np

from .decoy import DecoyObservations, SinglePhotonBounds
from .errors import DomainError, check_range, plain

__all__ = [
    "binary_entropy",
    "coin_imbalance",
    "phase_error_with_tha",
    "gllp_key_rate",
    "dual_source_key_rate",
    "calibrated_intensity",
]

_TINY = math.ulp(0.0)


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h2(x) in bits.

    Args:
        x: Probability, in [0, 1].

    Returns:
        -x log2 x - (1-x) log2(1-x), with h2(0) = h2(1) = 0.

    Raises:
        DomainError: if x lies outside [0, 1].
    """
    check_range("binary_entropy argument", x, 0.0, 1.0)
    return plain(_h2(x))


def _h2(x):
    # x log2 x is 0 at x = 0. Raising the log's argument to the least
    # positive double keeps the log finite there and leaves every other
    # x as it is; the leading 0.0 - makes h2(0) = h2(1) = +0.0.
    y = 1.0 - x
    return 0.0 - (x * np.log2(np.maximum(x, _TINY))
                  + y * np.log2(np.maximum(y, _TINY)))


def coin_imbalance(mu: float) -> float:
    """Quantum-coin imbalance of the four-state leaked source.

    For leaked coherent states of total mean photon number mu carrying
    the four BB84 angles 0, pi/4, pi/2 and 3pi/4 in two quadratures,
    this returns the conservative upper bound

        Delta = 1/2 [1 - e^-mu (cosh(mu/sqrt2) + 1/2 sinh(mu/sqrt2))]
              = -3/8 expm1(-a mu) - 1/8 expm1(-b mu),

    with a = 1 - 1/sqrt2 and b = 1 + 1/sqrt2. It is evaluated in the
    second form, a sum of two non-negative terms, so no digits cancel
    at small mu.

    The bound assumes that the leak carries those four angles exactly.
    For those angles only, it is never below the fidelity-optimal
    imbalance (1 - F)/2 of the basis-averaged states, where

        F = 1/2 e^-mu sqrt(5 e^(sqrt2 mu) + e^(-sqrt2 mu) - 2),

    so the key rate it yields is sound but pessimistic. At mu = 0.0977
    the bound is 0.029781 and the fidelity-optimal value is 0.013095.
    A leak at 1107 nm passes an encoder driven for 1550 nm, whose phase
    there is r times the 1550 nm phase. Scanned over r at mu from 0.0048
    to 0.5, the bound stays above the fidelity-optimal imbalance only
    while r is at most about 1.5.

    Args:
        mu: Mean leaked photon number, >= 0.

    Returns:
        Delta in [0, 1/2]; exactly 0 at mu = 0 and non-decreasing. It
        rounds to 1/2 in double precision from mu ~ 127 on.

    Raises:
        DomainError: if mu is negative or non-finite.
    """
    check_range("mu", mu, 0.0)
    return plain(_coins(mu))


_A = 1.0 - 1.0 / math.sqrt(2.0)
_B = 1.0 + 1.0 / math.sqrt(2.0)


def _coin(mu: float) -> float:
    return -0.375 * math.expm1(-_A * mu) - 0.125 * math.expm1(-_B * mu)


def _coins(mu) -> np.ndarray:
    # _coin of each leak, in an array of mu's shape. A call sees a
    # handful of leaks (two per sweep), for which math per element is
    # cheaper than the same formula in numpy calls.
    mu = np.asarray(mu)
    return np.fromiter(map(_coin, mu.ravel().tolist()), float, mu.size).reshape(mu.shape)


def phase_error_with_tha(e_x: float, delta_prime: float) -> float:
    """Phase error rate inflated by source basis dependence.

    Lo-Preskill bound for a detection-conditioned coin imbalance
    delta_prime:

        e_X' = e_X + 4 d'(1-d')(1-2 e_X)
                   + 4 (1-2 d') sqrt(d'(1-d') e_X (1-e_X))

    Args:
        e_x: Single-photon phase error rate without the side channel,
            in [0, 0.5].
        delta_prime: Detection-conditioned coin imbalance, >= 0.

    Returns:
        Inflated phase error in [e_x, 0.5]; returns e_x exactly when
        delta_prime == 0 and saturates at 0.5 once delta_prime >= 0.5.

    Raises:
        DomainError: if arguments are outside their domains.
    """
    check_range("e_x", e_x, 0.0, 0.5)
    check_range("delta_prime", delta_prime, 0.0)
    return plain(_phase_error(e_x, delta_prime))


def _phase_error(e_x, delta_prime):
    # At d' = 1/2 the bound is 1 - e_x >= 1/2, so capping d' there
    # saturates the result without taking a root of a negative number.
    # Scaling by 4 is exact, so 4 d'(1 - d')(1 - 2 e_X) is
    # d'(1 - d')(4 - 8 e_X) to the bit, and 4 (1 - 2 d') is 4 - 8 d'.
    d = np.minimum(delta_prime, 0.5)
    dd = d * (1.0 - d)
    inflated = (e_x
                + dd * (4.0 - 8.0 * e_x)
                + (4.0 - 8.0 * d) * np.sqrt(dd * e_x * (1.0 - e_x)))
    return np.minimum(inflated, 0.5)


def gllp_key_rate(
    obs: DecoyObservations,
    bounds: SinglePhotonBounds,
    mu_eve: float,
    p_z: float = 1.0,
    f_ec: float = 1.2,
) -> float:
    """Asymptotic GLLP key rate under pre-encoder leakage.

    R = max(0, p_z^2 [Q1^L (1 - h2(e_X')) - Q_s f_ec h2(E_s)])

    with Delta' = coin_imbalance(mu_eve) / Y1^L and e_X' the
    Lo-Preskill inflation of the decoy bound e1_upper. With mu_eve = 0
    this is bit-for-bit `dual_source_key_rate` with q_proto = p_z^2.

    Args:
        obs: Measured observables (only q_s and e_s are read here; the
            decoy bounds were estimated from the full set).
        bounds: Single-photon bounds from the same observations.
        mu_eve: Mean leaked photon number available to Eve, >= 0; an
            array of them gives one key rate per element.
        p_z: Key-basis selection probability, in (0, 1].
        f_ec: Error-correction inefficiency, >= 1.

    Returns:
        Secret key rate per pulse, >= 0: a float, or an array of the
        shape of obs, bounds and mu_eve.

    Raises:
        DomainError: if mu_eve, p_z or f_ec is outside its domain.
    """
    check_range("mu_eve", mu_eve, 0.0)
    check_range("p_z", p_z, 0.0, 1.0, lo_open=True)
    check_range("f_ec", f_ec, 1.0)
    y1 = bounds.y1_lower
    # obs and bounds were checked by their records, so the formula
    # bodies run without the checks of their public entry points. Delta'
    # divides by no less than Delta + 5e-324, which keeps it finite: where
    # Y1^L is below that, Delta' >= 1/2 saturates e_X' as the larger
    # quotient would, and where Y1^L = 0 the privacy term is 0 anyway.
    coins = _coins(mu_eve)
    delta_prime = coins / np.maximum(y1, coins + _TINY)
    ex_prime = _phase_error(bounds.e1_upper, delta_prime)
    return _rate(p_z ** 2, obs, bounds, ex_prime, f_ec)


def dual_source_key_rate(
    obs: DecoyObservations,
    bounds: SinglePhotonBounds,
    q_proto: float = 0.5,
    f_ec: float = 1.2,
) -> float:
    """Asymptotic decoy-BB84 key rate on (possibly contaminated) data.

    R = max(0, q { Q1^L [1 - h2(e1^U)] - Q_s f_ec h2(E_s) })

    When obs comes from a channel carrying unmodulated post-encoder
    leakage, the decoy bounds and the error-correction term silently
    absorb the parasitic clicks; comparing against the clean-channel
    rate quantifies the dual-source penalty. With zero leakage the
    result is bit-for-bit the baseline rate.

    Args:
        obs: Observables measured at the receiver.
        bounds: Single-photon bounds estimated from obs.
        q_proto: Sifting factor of the protocol, in (0, 1].
        f_ec: Error-correction inefficiency, >= 1.

    Returns:
        Secret key rate per pulse, >= 0: a float, or an array of the
        shape of obs and bounds.

    Raises:
        DomainError: if q_proto or f_ec is outside its domain.
    """
    check_range("q_proto", q_proto, 0.0, 1.0, lo_open=True)
    check_range("f_ec", f_ec, 1.0)
    return _rate(q_proto, obs, bounds, bounds.e1_upper, f_ec)


def _rate(k, obs, bounds, e_phase, f_ec):
    # The decoy-BB84 rate of both geometries: only k and e_phase differ.
    priv = bounds.q1_lower * (1.0 - _h2(e_phase))
    ec = obs.q_s * f_ec * _h2(obs.e_s)
    return plain(np.maximum(k * (priv - ec), 0.0))


def calibrated_intensity(q_observed: float, eta: float, y0: float) -> float:
    """Signal intensity an operator would infer from a measured gain.

    Inverts Q = 1 - (1 - Y0) e^(-s eta) for s using the signal path
    transmittance only. If the gain contains parasitic clicks the
    inferred intensity overestimates the true one, which is the
    calibration bias introduced by a post-encoder emitter.

    Args:
        q_observed: Measured per-pulse gain, in (0, 1).
        eta: End-to-end signal transmittance, in (0, 1].
        y0: Background yield assumed by the calibration, in [0, 1).

    Returns:
        Inferred intensity s_cal = -(1/eta) ln((1 - Q)/(1 - Y0)).

    Raises:
        DomainError: if an argument is outside its domain, if
            q_observed <= y0 (below the background), or if the intensity
            overflows a double.
    """
    check_range("q_observed", q_observed, 0.0, 1.0, lo_open=True, hi_open=True)
    check_range("eta", eta, 0.0, 1.0, lo_open=True)
    check_range("y0", y0, 0.0, 1.0, hi_open=True)
    if q_observed <= y0:
        raise DomainError(
            f"gain {q_observed:g} does not exceed the background yield {y0:g}")
    # log1p keeps precision when the gain is close to the background.
    s_cal = -(math.log1p(-q_observed) - math.log1p(-y0)) / eta
    check_range("inferred intensity", s_cal, 0.0)
    return s_cal
