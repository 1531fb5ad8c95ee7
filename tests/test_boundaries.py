"""Range checks of every checked float parameter of the public API.

Each case names one parameter, the call that receives it (every other
argument valid), its interval and the exception class a value outside
raises. NaN, +inf, -inf and the nearest double just outside each end
must raise exactly that class; every closed end must be accepted.
"""

import math
from typing import Callable, NamedTuple

import pytest

from voaleak import (
    CarrierState,
    ChannelParams,
    DecoyObservations,
    DomainError,
    EmissionSpec,
    ExtremaPair,
    IvCurve,
    SinglePhotonBounds,
    attenuation_db,
    attenuation_from_counts,
    bandgap_wavelength,
    binary_entropy,
    calibrated_intensity,
    center_wavelength,
    coin_imbalance,
    dual_source_key_rate,
    fit_ideality,
    gllp_key_rate,
    observables_for_intensity,
    phase_error_with_tha,
    plasma_dispersion_general,
)
from helpers import shockley_curve

INF = math.inf


class Case(NamedTuple):
    name: str
    call: Callable[[float], object]
    lo: float
    hi: float
    lo_open: bool
    hi_open: bool
    error: type
    # Closed ends that other rules of the same call reject on their own.
    skip_accept: tuple[float, ...] = ()


def closed(lo, hi, error=DomainError):
    return lo, hi, False, False, error


def half_open(lo, hi, error=DomainError):
    # [lo, hi); with hi = inf this is "finite and >= lo".
    return lo, hi, False, True, error


def open_closed(lo, hi, error=DomainError):
    return lo, hi, True, False, error


def open_(lo, hi, error=DomainError):
    return lo, hi, True, True, error


def with_field(record, base, name):
    return lambda v: record(**{**base, name: v})


CHANNEL = dict(distance=10.0, alpha_sig=0.2, alpha_par=0.8,
               eta_bob_sig=0.78, eta_bob_par=0.25, y0=2e-8,
               e_d=0.0061, e0=0.5)
DECOY = dict(s=0.48, nu=0.02, omega=0.001, q_s=0.3, q_nu=0.02,
             q_omega=0.001, e_s=0.01, e_nu=0.02, e_omega=0.2)
BOUNDS = dict(y1_lower=0.5, e1_upper=0.1, q1_lower=0.1, y0_lower=1e-6)
RUN = (DecoyObservations(**DECOY), SinglePhotonBounds(**BOUNDS))
EMISSION = dict(drive_voltage=2.0, count_rate=5.82e7, pulse_width=1.6e-9)
IV = IvCurve(*shockley_curve(2.0))
PAIR = ExtremaPair(1.0, 2.0)

CASES = [
    *(Case(f"ChannelParams.{n}", with_field(ChannelParams, CHANNEL, n), *iv)
      for n, iv in (("distance", half_open(0.0, INF)),
                    ("alpha_sig", half_open(0.0, INF)),
                    ("alpha_par", half_open(0.0, INF)),
                    ("eta_bob_sig", open_closed(0.0, 1.0)),
                    ("eta_bob_par", open_closed(0.0, 1.0)),
                    ("y0", half_open(0.0, 1.0)),
                    ("e_d", closed(0.0, 0.5)),
                    ("e0", closed(0.0, 1.0)))),
    Case("observables_for_intensity.gamma",
         lambda v: observables_for_intensity(v, 0.01, ChannelParams()),
         *half_open(0.0, INF)),
    Case("observables_for_intensity.mu_el",
         lambda v: observables_for_intensity(0.48, v, ChannelParams()),
         *half_open(0.0, INF)),
    # The two-decoy bounds need nu + omega < s, and e^s finite. nu = 0
    # breaks the ordering s > nu > omega, which is checked separately.
    Case("DecoyObservations.s", with_field(DecoyObservations, DECOY, "s"),
         *open_closed(DECOY["nu"] + DECOY["omega"], 709.0)),
    Case("DecoyObservations.nu", with_field(DecoyObservations, DECOY, "nu"),
         *half_open(0.0, INF), skip_accept=(0.0,)),
    Case("DecoyObservations.omega",
         with_field(DecoyObservations, DECOY, "omega"), *half_open(0.0, INF)),
    *(Case(f"DecoyObservations.{n}", with_field(DecoyObservations, DECOY, n),
           *open_closed(0.0, 1.0)) for n in ("q_s", "q_nu", "q_omega")),
    *(Case(f"DecoyObservations.{n}", with_field(DecoyObservations, DECOY, n),
           *closed(0.0, 1.0)) for n in ("e_s", "e_nu", "e_omega")),
    *(Case(f"SinglePhotonBounds.{n}",
           with_field(SinglePhotonBounds, BOUNDS, n), *closed(0.0, hi))
      for n, hi in (("y1_lower", 1.0), ("e1_upper", 0.5),
                    ("q1_lower", 1.0), ("y0_lower", 1.0))),
    Case("gllp_key_rate.mu_eve", lambda v: gllp_key_rate(*RUN, v),
         *half_open(0.0, INF)),
    Case("gllp_key_rate.p_z", lambda v: gllp_key_rate(*RUN, 0.1, p_z=v),
         *open_closed(0.0, 1.0)),
    Case("gllp_key_rate.f_ec", lambda v: gllp_key_rate(*RUN, 0.1, f_ec=v),
         *half_open(1.0, INF)),
    Case("dual_source_key_rate.q_proto",
         lambda v: dual_source_key_rate(*RUN, q_proto=v), *open_closed(0.0, 1.0)),
    Case("dual_source_key_rate.f_ec",
         lambda v: dual_source_key_rate(*RUN, f_ec=v), *half_open(1.0, INF)),
    Case("binary_entropy.x", binary_entropy, *closed(0.0, 1.0)),
    Case("coin_imbalance.mu", coin_imbalance, *half_open(0.0, INF)),
    Case("phase_error_with_tha.e_x", lambda v: phase_error_with_tha(v, 0.01),
         *closed(0.0, 0.5)),
    Case("phase_error_with_tha.delta_prime",
         lambda v: phase_error_with_tha(0.02, v), *half_open(0.0, INF)),
    Case("calibrated_intensity.q_observed",
         lambda v: calibrated_intensity(v, 0.5, 0.0), *open_(0.0, 1.0)),
    Case("calibrated_intensity.eta",
         lambda v: calibrated_intensity(0.5, v, 0.0), *open_closed(0.0, 1.0)),
    Case("calibrated_intensity.y0",
         lambda v: calibrated_intensity(0.5, 0.5, v), *half_open(0.0, 1.0)),
    *(Case(f"EmissionSpec.{n}", with_field(EmissionSpec, EMISSION, n), *iv)
      for n, iv in (("drive_voltage", half_open(0.0, INF)),
                    ("count_rate", half_open(0.0, INF)),
                    ("pulse_width", open_(0.0, INF)))),
    Case("CarrierState.delta_n_e", lambda v: CarrierState(v, 1e17),
         *half_open(0.0, INF)),
    Case("CarrierState.delta_n_h", lambda v: CarrierState(1e17, v),
         *half_open(0.0, INF)),
    Case("plasma_dispersion_general.wavelength",
         lambda v: plasma_dispersion_general(CarrierState(1e17, 1e17),
                                             wavelength=v),
         *open_(0.0, INF)),
    Case("attenuation_db.delta_alpha",
         lambda v: attenuation_db(v, 0.1), *half_open(0.0, INF)),
    Case("attenuation_db.length", lambda v: attenuation_db(1.45, v),
         *open_(0.0, INF)),
    Case("attenuation_from_counts.counts_on",
         lambda v: attenuation_from_counts(v, 1e5), *open_(0.0, INF)),
    Case("attenuation_from_counts.counts_off",
         lambda v: attenuation_from_counts(1e5, v), *open_(0.0, INF)),
    Case("bandgap_wavelength.e_g", bandgap_wavelength, *open_(0.0, INF)),
    # The window edges only need to be finite and ordered.
    Case("fit_ideality.v_lo", lambda v: fit_ideality(IV, v, 0.5),
         *open_(-INF, 0.5)),
    Case("fit_ideality.v_hi", lambda v: fit_ideality(IV, 0.5, v),
         *open_(0.5, INF)),
    Case("fit_ideality.temperature",
         lambda v: fit_ideality(IV, 0.05, 0.9, temperature=v),
         *open_(0.0, INF)),
    Case("ExtremaPair.u_max", lambda v: ExtremaPair(v, 2.0), *open_(-INF, INF)),
    Case("ExtremaPair.u_min", lambda v: ExtremaPair(1.0, v), *open_(-INF, INF)),
    Case("center_wavelength.lambda_ref",
         lambda v: center_wavelength(v, PAIR, PAIR), *open_(0.0, INF)),
]


def rejected(case: Case) -> list[float]:
    values = [math.nan, INF, -INF]
    if math.isfinite(case.lo):
        values.append(case.lo if case.lo_open else math.nextafter(case.lo, -INF))
    if math.isfinite(case.hi):
        values.append(case.hi if case.hi_open else math.nextafter(case.hi, INF))
    return values


def accepted(case: Case) -> list[float]:
    ends = [e for e, is_open in ((case.lo, case.lo_open), (case.hi, case.hi_open))
            if math.isfinite(e) and not is_open]
    return [e for e in ends if e not in case.skip_accept]


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_outside_values_raise_the_parameter_error(case):
    for value in rejected(case):
        with pytest.raises(case.error) as info:
            case.call(value)
        assert type(info.value) is case.error, (value, info.value)


@pytest.mark.parametrize("case", CASES, ids=[c.name for c in CASES])
def test_closed_ends_are_accepted(case):
    for value in accepted(case):
        case.call(value)
