"""Two-weak-decoy bounds on the single-photon contribution.

Given measured gain and QBER at a signal intensity s and two weak decoy
intensities nu > omega, standard decoy-state algebra (Ma-Lo-Qi style
vacuum+weak bounds generalized to two nonzero decoys) yields a lower
bound on the single-photon yield Y1, an upper bound on the
single-photon error rate e1, and from them a lower bound on the
single-photon gain Q1. With omega = 0 the expressions reduce to the
familiar vacuum+weak-decoy forms.

In exact arithmetic the bounds are information-theoretically valid for
any photon-number yield/error structure consistent with the
observations; clamping to physical ranges is counted and reported so
callers can see when the estimator ran out of information. In doubles
they are not, at decoy gaps of about 1e-15 and below: the bounds cross
the true values while clamp_events stays 0. On passive_tha.cfg at 0 km
with omega = 0, nu = 1e-15 gives y1_lower = 0.7800000072, above the
true Y1 of 0.7800000044, and nu = 1e-22 gives e1_upper = 0. ROADMAP
item 3 tracks the fix.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _REAL_TYPES, DomainError, Record, plain, unchecked

__all__ = ["DecoyObservations", "SinglePhotonBounds", "single_photon_bounds"]


def _y1_prefactor(s, nu, om):
    # The factor in front of the Y1 bound, inf where its denominator
    # rounds to 0. nu ** 2, not nu * nu: the two round differently.
    den = s * (nu - om) - nu ** 2 + om ** 2
    return s / den if den else math.inf


def check_intensities(s, nu, omega) -> None:
    """Raise DomainError unless s, nu, omega suit the two-decoy bounds.

    They must be numbers, finite with 709 >= s > nu > omega >= 0 (so
    that e^s is a double) and nu + omega < s, and give a finite, positive
    Y1 prefactor, which decoys too close to tell apart in doubles do not.
    """
    # The comparisons come first: they reject NaN and +-inf and keep
    # nu < 709, so nu ** 2 cannot overflow. A non-number (see `check_range`) fails.
    ordered = (isinstance(s, _REAL_TYPES) and isinstance(nu, _REAL_TYPES)
               and isinstance(omega, _REAL_TYPES)
               and 709.0 >= s > nu > omega >= 0.0 and nu + omega < s)
    if not ordered:
        raise DomainError(
            "s, nu, omega must satisfy 709 >= s > nu > omega >= 0 and "
            f"nu + omega < s, got s={s!r}, nu={nu!r}, omega={omega!r}")
    if not 0.0 < _y1_prefactor(s, nu, omega) < math.inf:
        raise DomainError(f"decoys nu={nu!r} and omega={omega!r} are too "
                          f"close to bound Y1 at s={s!r}")


class DecoyObservations(Record):
    """Measured per-intensity observables of one protocol run.

    Parameters
    ----------
    s, nu, omega : float
        Signal and decoy intensities, as `check_intensities` requires.
    q_s, q_nu, q_omega : float or numpy.ndarray
        Gains at each intensity, in (0, 1]; arrays hold one run per
        element (a distance grid, say) and broadcast together.
    e_s, e_nu, e_omega : float or numpy.ndarray
        QBERs at each intensity, in [0, 1]. A vacuum-like decoy can
        record slightly more than 1/2 (see `channel.Observables`).
    """

    s: float
    nu: float
    omega: float
    q_s: float
    q_nu: float
    q_omega: float
    e_s: float
    e_nu: float
    e_omega: float

    _intervals = {"q_s": "(0, 1]", "q_nu": "(0, 1]", "q_omega": "(0, 1]",
                  "e_s": "[0, 1]", "e_nu": "[0, 1]", "e_omega": "[0, 1]"}

    def __post_init__(self):
        check_intensities(self.s, self.nu, self.omega)


class SinglePhotonBounds(Record):
    """Decoy-estimated bounds entering the key-rate formulas.

    Every field is a float, or an array of the shape of the
    observations the bounds were estimated from.

    Parameters
    ----------
    y1_lower : float
        Lower bound on the single-photon yield, in [0, 1].
    e1_upper : float
        Upper bound on the single-photon error rate, in [0, 0.5].
    q1_lower : float
        Lower bound on the single-photon gain, s e^-s y1_lower.
    y0_lower : float
        Lower bound on the background yield, in [0, 1].
    clamp_events : int
        How many of the raw bound values had to be clamped into their
        physical range (0 means the estimator was fully informative).
    """

    y1_lower: float
    e1_upper: float
    q1_lower: float
    y0_lower: float
    clamp_events: int = 0

    _intervals = {"y1_lower": "[0, 1]", "e1_upper": "[0, 0.5]",
                  "q1_lower": "[0, 1]", "y0_lower": "[0, 1]",
                  "clamp_events": "[0, inf)"}


def single_photon_bounds(obs: DecoyObservations) -> SinglePhotonBounds:
    """All two-decoy bounds for one set of observations.

    With E_x the QBER and Q_x the gain at intensity x:

    Y0 >= (nu Q_omega e^omega - omega Q_nu e^nu) / (nu - omega)
    Y1 >= s / (s (nu - omega) - nu^2 + omega^2)
          * (Q_nu e^nu - Q_omega e^omega
             - (nu^2 - omega^2) / s^2 * (Q_s e^s - Y0_L))
    e1 <= (E_nu Q_nu e^nu - E_omega Q_omega e^omega) / ((nu - omega) Y1_L)
    Q1 >= s e^-s Y1_L

    Y0_L and Y1_L are clamped to [0, 1] and e1_U to [0, 0.5]. When
    Y1_L comes out zero the error bound is undefined and is reported as
    the uninformative 0.5, which zeroes the single-photon key-rate term
    downstream. Each clamp, and that fallback, counts one clamp event.

    Elementwise over the gains and QBERs: when they are arrays (of one
    broadcast shape) every bound is an array of that shape, each element
    bit-identical to the call with that element's floats.

    The intensities passed `check_intensities`, so e^s and the Y1
    prefactor are finite.

    Returns
    -------
    SinglePhotonBounds
        Bounds plus the number of clamping events that occurred.
    """
    s, nu, om = obs.s, obs.nu, obs.omega
    # The intensities are floats, so each weight e^x is one math.exp.
    exp_s, exp_nu, exp_om = math.exp(s), math.exp(nu), math.exp(om)

    y0_raw = (nu * obs.q_omega * exp_om - om * obs.q_nu * exp_nu) / (nu - om)
    y0_l = np.minimum(np.maximum(y0_raw, 0.0), 1.0)

    front = _y1_prefactor(s, nu, om)
    inner = (obs.q_nu * exp_nu - obs.q_omega * exp_om
             - ((nu ** 2 - om ** 2) / s ** 2) * (obs.q_s * exp_s - y0_l))
    y1_raw = front * inner
    y1_l = np.minimum(np.maximum(y1_raw, 0.0), 1.0)

    # Where Y1_L is zero the quotient gives way to the fallback 0.5: its
    # lower clamp is raised to 0.5, and dividing by 1 keeps it finite.
    dead = y1_l == 0.0
    e1_raw = ((obs.e_nu * obs.q_nu * exp_nu - obs.e_omega * obs.q_omega * exp_om)
              / ((nu - om) * y1_l + dead))
    e1_u = np.minimum(np.maximum(e1_raw, 0.5 * dead), 0.5)

    clamps = (np.add(y0_l != y0_raw, y1_l != y1_raw, dtype=int)
              + ((e1_u != e1_raw) | dead))
    # Clamped to their ranges, the bounds need no second check.
    return unchecked(SinglePhotonBounds, {
        "y1_lower": plain(y1_l),
        "e1_upper": plain(e1_u),
        "q1_lower": plain(s * math.exp(-s) * y1_l),
        "y0_lower": plain(y0_l),
        "clamp_events": plain(clamps),
    })
