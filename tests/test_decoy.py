"""Two-decoy lower/upper bounds on single-photon statistics."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voaleak import (
    ChannelParams,
    DecoyObservations,
    DomainError,
    load_config,
    run_scenario,
    single_photon_bounds,
)
from voaleak.errors import replace
from helpers import (
    decoy_observations,
    effective_single_photon,
    lp_rows,
    lp_vertices,
    random_decoy_run,
    ref_gains,
)


def table_observations(distance=0.0, mu_el=0.0):
    ch = ChannelParams(distance=distance)
    return decoy_observations(ch, 0.48, 0.02, 0.001, mu_el)


class TestValidation:
    def test_intensity_ordering_enforced(self):
        with pytest.raises(DomainError):
            DecoyObservations(s=0.02, nu=0.48, omega=0.001,
                              q_s=0.1, q_nu=0.2, q_omega=0.001,
                              e_s=0.01, e_nu=0.01, e_omega=0.3)

    def test_nu_plus_omega_must_stay_below_s(self):
        with pytest.raises(DomainError, match="nu \\+ omega < s"):
            DecoyObservations(s=0.02, nu=0.015, omega=0.006,
                              q_s=0.01, q_nu=0.008, q_omega=0.004,
                              e_s=0.01, e_nu=0.02, e_omega=0.2)

    def test_signal_weight_must_stay_finite(self):
        # The bounds weigh the signal gain by e^s, which overflows above
        # s = 709.78.
        with pytest.raises(DomainError, match="709 >= s"):
            DecoyObservations(s=800.0, nu=0.02, omega=0.001,
                              q_s=0.3, q_nu=0.02, q_omega=0.001,
                              e_s=0.01, e_nu=0.02, e_omega=0.2)

    def test_decoys_too_close_to_bound_y1(self):
        # s (nu - omega) underflows to zero, so the Y1 prefactor does not
        # exist.
        with pytest.raises(DomainError, match="too close"):
            DecoyObservations(s=0.48, nu=5e-324, omega=0.0,
                              q_s=0.3, q_nu=0.02, q_omega=0.001,
                              e_s=0.01, e_nu=0.02, e_omega=0.2)

    def test_gain_outside_unit_interval_rejected(self):
        with pytest.raises(DomainError):
            DecoyObservations(s=0.48, nu=0.02, omega=0.001,
                              q_s=1.2, q_nu=0.01, q_omega=0.001,
                              e_s=0.01, e_nu=0.02, e_omega=0.2)

    def test_qber_above_one_rejected(self):
        with pytest.raises(DomainError):
            DecoyObservations(s=0.48, nu=0.02, omega=0.001,
                              q_s=0.3, q_nu=0.01, q_omega=0.001,
                              e_s=1.2, e_nu=0.02, e_omega=0.2)


class TestVacuumBound:
    def test_dark_counts_recovered_with_vacuum_decoy(self):
        ch = ChannelParams(distance=30.0)
        obs = decoy_observations(ch, 0.48, 0.02, 0.0, 0.0)
        assert single_photon_bounds(obs).y0_lower == pytest.approx(
            ch.y0, rel=1e-6)

    def test_clamped_at_zero(self):
        obs = DecoyObservations(s=0.48, nu=0.02, omega=0.001,
                                q_s=0.3, q_nu=0.02, q_omega=0.0008,
                                e_s=0.01, e_nu=0.02, e_omega=0.02)
        assert single_photon_bounds(obs).y0_lower == 0.0


class TestSinglePhotonYield:
    def test_ideal_lossless_channel(self):
        ch = ChannelParams(distance=0.0, eta_bob_sig=0.9999999999,
                           y0=1e-12, e_d=1e-9)
        obs = decoy_observations(ch, 0.48, 0.02, 0.001, 0.0)
        y1 = single_photon_bounds(obs).y1_lower
        assert 0.99 < y1 <= 1.0

    def test_table_point_at_zero_distance(self):
        obs = table_observations()
        assert single_photon_bounds(obs).y1_lower == pytest.approx(
            0.7781025146624968, rel=1e-12)

    def test_bound_is_sound(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            ch, mu_el, obs = random_decoy_run(rng)
            _, y1_true, _ = effective_single_photon(ch, mu_el)
            assert single_photon_bounds(obs).y1_lower <= y1_true + 1e-12

    def test_clamped_to_unit_interval(self):
        obs = DecoyObservations(s=0.48, nu=0.02, omega=0.001,
                                q_s=0.9, q_nu=0.9, q_omega=0.001,
                                e_s=0.01, e_nu=0.01, e_omega=0.3)
        assert 0.0 <= single_photon_bounds(obs).y1_lower <= 1.0


class TestSinglePhotonError:
    def test_noiseless_channel_gives_zero(self):
        ch = ChannelParams(distance=0.0, y0=1e-15, e_d=0.0)
        obs = decoy_observations(ch, 0.48, 0.02, 0.001, 0.0)
        assert single_photon_bounds(obs).e1_upper <= 1e-6

    def test_table_point_at_zero_distance(self):
        obs = table_observations()
        assert single_photon_bounds(obs).e1_upper == pytest.approx(
            0.006193766951975842, rel=1e-12)

    def test_bound_is_sound(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            ch, mu_el, obs = random_decoy_run(rng)
            _, _, e1_true = effective_single_photon(ch, mu_el)
            bounds = single_photon_bounds(obs)
            assert bounds.e1_upper >= e1_true - 1e-12

    def test_clamped_at_half(self):
        obs = DecoyObservations(s=0.48, nu=0.02, omega=0.001,
                                q_s=0.3, q_nu=0.012, q_omega=0.0002,
                                e_s=0.01, e_nu=0.5, e_omega=0.01)
        assert single_photon_bounds(obs).e1_upper <= 0.5


class TestGainBound:
    def test_poisson_weighting(self):
        obs = table_observations()
        b = single_photon_bounds(obs)
        assert b.q1_lower == pytest.approx(
            0.48 * math.exp(-0.48) * b.y1_lower, rel=1e-12)

    def test_single_photon_weight_frozen(self):
        assert 0.48 * math.exp(-0.48) == pytest.approx(
            0.2970160280669476, rel=1e-14)


class TestBundledBounds:
    def test_informative_run_counts_no_clamp(self):
        obs = table_observations(distance=20.0, mu_el=0.0388)
        assert single_photon_bounds(obs).clamp_events == 0

    def test_vacuum_decoy_above_half_is_usable(self):
        obs = decoy_observations(ChannelParams(), 0.48, 0.02, 0.0, 0.0977)
        assert obs.e_omega > 0.5
        b = single_photon_bounds(obs)
        assert b.y1_lower > 0.0 and b.e1_upper < 0.5

    def test_degenerate_yield_falls_back_to_worst_case_error(self):
        obs = DecoyObservations(s=0.48, nu=0.02, omega=0.001,
                                q_s=0.3, q_nu=0.0011, q_omega=0.001,
                                e_s=0.01, e_nu=0.02, e_omega=0.02)
        b = single_photon_bounds(obs)
        assert b.y1_lower == 0.0
        assert b.e1_upper == 0.5
        assert b.q1_lower == 0.0
        assert b.clamp_events >= 1


@st.composite
def usable_observations(draw):
    s = draw(st.floats(0.05, 1.0))
    nu = s * draw(st.floats(0.01, 0.45))
    omega = nu * draw(st.floats(0.0, 0.9))
    gain = st.floats(1e-9, 1.0)
    qber = st.floats(0.0, 1.0)
    return DecoyObservations(
        s=s, nu=nu, omega=omega,
        q_s=draw(gain), q_nu=draw(gain), q_omega=draw(gain),
        e_s=draw(qber), e_nu=draw(qber), e_omega=draw(qber))


class TestClampPolicy:
    @settings(max_examples=500, deadline=None)
    @given(usable_observations())
    def test_one_policy_for_every_bound(self, obs):
        # SinglePhotonBounds checks each bound's range on construction.
        b = single_photon_bounds(obs)
        assert b.q1_lower == obs.s * math.exp(-obs.s) * b.y1_lower
        assert 0 <= b.clamp_events <= 3
        if b.y1_lower == 0.0:
            assert b.e1_upper == 0.5 and b.clamp_events >= 1


def _exact_violation(vertex, rows) -> Fraction:
    # The worst violation of the LP's constraints by a vertex (Y, Z), in
    # exact arithmetic on its floats: each observation's by its share of
    # the observation, and 0 <= Z_n <= Y_n <= 1 by its share of Y_1.
    y, z = ([Fraction(v) for v in half] for half in vertex)
    worst = Fraction(0)
    for k, (weights, observed, tail) in enumerate(rows):
        total = sum(Fraction(w) * v for w, v in zip(weights, (y, z)[k % 2]))
        observed, tail = Fraction(observed), Fraction(tail)
        worst = max(worst, (total - observed) / observed,
                    (observed - tail - total) / observed)
    for y_n, z_n in zip(y, z):
        worst = max(worst, -z_n / y[1], (z_n - y_n) / y[1], (y_n - 1) / y[1])
    return worst


class TestAdversarialLP:
    """ROADMAP item 11's oracle: no yield vector that meets the
    observations has a smaller Y_1 than the package's Y1_L, or an error
    rate e_1 beyond its e1_U. HiGHS finds the extreme vectors; each is
    checked in exact arithmetic, to the 1e-9 that HiGHS works to, so this
    oracle cannot judge ROADMAP item 3's tiny decoy gaps."""

    def test_package_bounds_never_beat_the_lp(self):
        pytest.importorskip("scipy.optimize")
        config = replace(load_config(Path(__file__).resolve().parent.parent
                                     / "configs" / "passive_tha.cfg"),
                         distance_min=0.0, distance_max=300.0, step=10.0)
        rows = run_scenario(config).rows.tolist()
        assert len(rows) == 31
        s, nu, omega = config.s, config.nu, config.omega
        for distance, *_, y1_lower, e1_upper in rows:
            q, e = ref_gains(config, distance)
            low, high = lp_vertices(s, nu, omega, q, e)
            for vertex in (low, high):
                assert _exact_violation(vertex, lp_rows(s, nu, omega, q, e)) <= 1e-9
            y1, z1 = low[0][1], high[1][1]
            assert y1_lower <= y1 * (1.0 + 1e-7), distance
            assert e1_upper >= min(z1 / y1, 0.5) * (1.0 - 1e-7), distance
