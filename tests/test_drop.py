import numpy as np
import pytest

from ionlab.drop import (
    Ball,
    BallConfiguration,
    COULOMB_UNIT_BALL,
    PERIMETER_UNIT_BALL,
    ball_energy,
    binding_gap_lower_bound,
    cavalieri_volume,
    configuration_energy,
    cutting_identities_check,
    f_of_s,
    half_space_average,
    mc_ball_coulomb,
    minimize_f,
    mstar,
    mstar_from_splitting,
    nonexistence_certificate,
)
from ionlab.errors import DomainError, ParameterError


class TestBallEnergy:
    def test_unit_ball_closed_forms(self):
        be = ball_energy(1.0)
        assert be.perimeter == pytest.approx((36 * np.pi) ** (1 / 3), rel=1e-14)
        assert be.coulomb == pytest.approx(0.6 * (4 * np.pi / 3) ** (1 / 3), rel=1e-14)

    def test_perimeter_to_coulomb_ratio_is_five(self):
        be = ball_energy(1.0)
        assert be.perimeter / be.coulomb == pytest.approx(5.0, abs=1e-12)

    def test_coulomb_subdominant_at_small_mass(self):
        for m in (1e-2, 1e-4, 1e-6):
            be = ball_energy(m)
            assert be.total - be.perimeter == pytest.approx(be.coulomb)
            assert be.coulomb / be.perimeter == pytest.approx(m / 5.0, rel=1e-12)

    def test_nonpositive_mass_rejected(self):
        with pytest.raises(ParameterError):
            ball_energy(0.0)

    def test_overflowing_energy_rejected(self):
        # m^(5/3) overflows a float from about m = 9e184 on
        assert np.isfinite(ball_energy(1e184).total)
        for m in (1e185, 1e300, np.inf):
            with pytest.raises(ParameterError):
                ball_energy(m)

    def test_monte_carlo_matches_closed_form(self):
        mc = mc_ball_coulomb(1.0, 10**6, seed=11)
        assert mc == pytest.approx(ball_energy(1.0).coulomb, rel=5e-3)


class TestConfigurationEnergy:
    def test_vanishing_cross_term_at_large_separation(self):
        r_half = (3 * 2.0 / (4 * np.pi)) ** (1 / 3)  # ball of volume 2
        cfg = BallConfiguration(
            balls=((np.zeros(3), r_half), (np.array([1e10, 0, 0]), r_half))
        )
        assert configuration_energy(cfg) == pytest.approx(
            2 * ball_energy(2.0).total, abs=1e-9
        )

    def test_unit_masses_at_distance_ten(self):
        r1 = (3 / (4 * np.pi)) ** (1 / 3)
        cfg = BallConfiguration(balls=((np.zeros(3), r1), (np.array([10.0, 0, 0]), r1)))
        expected = 2 * ball_energy(1.0).total + 1.0 / 10.0
        assert configuration_energy(cfg) == pytest.approx(expected, rel=1e-12)

    def test_overlap_rejected(self):
        cfg = BallConfiguration(balls=((np.zeros(3), 1.0), (np.array([1.5, 0, 0]), 1.0)))
        with pytest.raises(DomainError):
            configuration_energy(cfg)


class TestThreshold:
    def test_closed_form_to_1e12(self):
        c = 2.0 ** (2.0 / 3.0)
        assert mstar() == pytest.approx(5 * (2 - c) / (c - 1), abs=1e-12)

    def test_three_way_agreement(self):
        s_star, f_star = minimize_f()
        assert abs(mstar() - mstar_from_splitting()) < 1e-8
        assert abs(mstar() - 5.0 * f_star) < 1e-8

    def test_f_symmetry(self):
        s = np.linspace(0.02, 0.98, 49)
        assert np.max(np.abs(f_of_s(s) - f_of_s(1.0 - s))) < 1e-12

    def test_minimizer_at_half(self):
        s_star, f_star = minimize_f()
        assert s_star == pytest.approx(0.5, abs=1e-8)
        # dense-scan oracle
        grid = np.linspace(1e-4, 1 - 1e-4, 20001)
        assert f_star <= np.min(f_of_s(grid)) + 1e-12

    def test_value_at_half_closed_form(self):
        expected = (2 ** (1 / 3) - 1) / (1 - 2 ** (-2 / 3))
        assert f_of_s(0.5) == pytest.approx(expected, abs=1e-14)

    def test_endpoints_rejected(self):
        with pytest.raises(ParameterError):
            f_of_s(0.0)
        with pytest.raises(ParameterError):
            f_of_s(1.0)


class TestBindingGap:
    def test_positive_below_threshold(self):
        assert binding_gap_lower_bound(3.0, 0.5) > 0

    def test_negative_above_threshold(self):
        assert binding_gap_lower_bound(3.6, 0.5) < 0

    def test_zero_at_threshold(self):
        s_star, _ = minimize_f()
        assert abs(binding_gap_lower_bound(mstar(), s_star)) < 1e-9

    def test_sign_flip_at_mstar_over_dense_s_grid(self):
        s = np.linspace(0.01, 0.99, 197)
        below = np.array([binding_gap_lower_bound(mstar() - 1e-6, x) for x in s])
        above = np.array([binding_gap_lower_bound(mstar() + 1e-6, x) for x in s])
        assert np.all(below > 0)
        assert np.any(above <= 0)


class TestCuttingIdentities:
    def test_unit_z_gives_quarter(self):
        rep = cutting_identities_check(np.array([0.0, 0.0, 1.0]))
        assert rep.quad_error < 1e-8
        assert rep.quad_value == pytest.approx(0.25, abs=1e-8)

    def test_generic_direction(self, rng):
        z = rng.normal(size=3) * 3.0
        rep = cutting_identities_check(z)
        assert rep.quad_error < 1e-8 * max(1.0, np.linalg.norm(z))

    def test_zero_vector_rejected(self):
        with pytest.raises(ParameterError):
            cutting_identities_check(np.zeros(3))

    def test_negative_monte_carlo_count_rejected(self):
        with pytest.raises(ParameterError):
            cutting_identities_check(np.array([0.0, 0.0, 1.0]), mc_nodes=-5)

    def test_cavalieri_unit_ball(self):
        rep = cutting_identities_check(np.array([0.0, 0.0, 1.0]))
        assert rep.cavalieri_error < 1e-6
        assert rep.cavalieri_value == pytest.approx(4 * np.pi / 3, abs=1e-6)

    def test_cavalieri_direction_independent(self, rng):
        ball = BallConfiguration(balls=(Ball(center=np.array([1.0, -2.0, 0.5]), radius=1.7),))
        v1 = cavalieri_volume(ball, rng.normal(size=3))
        v2 = cavalieri_volume(ball, rng.normal(size=3))
        assert v1 == pytest.approx(ball.balls[0].volume, rel=1e-12)
        assert v2 == pytest.approx(v1, rel=1e-12)

    def test_monte_carlo_agrees(self):
        rep = cutting_identities_check(np.array([0.0, 0.0, 2.0]), mc_nodes=200_000, seed=6)
        assert rep.mc_error < 5e-3

    def test_half_space_average_linear_in_z(self, rng):
        z = rng.normal(size=3)
        assert half_space_average(3.0 * z) == pytest.approx(
            3.0 * half_space_average(z), rel=1e-12
        )


class TestNonexistence:
    @pytest.mark.parametrize("m,expected", [(9.0, True), (8.0, False), (3.0, False)])
    def test_certificate(self, m, expected):
        assert nonexistence_certificate(m) is expected

    def test_invalid_mass(self):
        with pytest.raises(ParameterError):
            nonexistence_certificate(-2.0)
