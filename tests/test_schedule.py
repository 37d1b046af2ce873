import math

import numpy as np
import pytest

from prosodiff.schedule import NoiseSchedule, cosine_schedule, forward_diffuse

# frozen from the closed form f(t)/f(0), f(t) = cos^2(((t/T + s)/(1 + s)) * pi/2),
# evaluated directly in a scratch script before the implementation existed
ABAR_1_T200 = 0.9997450273636279
ABAR_200_T200 = 6.071799308549566e-08
ABAR_1_T2 = 0.49384359044063775


class TestCosineSchedule:
    def test_frozen_values_t200(self):
        sch = cosine_schedule(200)
        assert sch.step_count == 200
        np.testing.assert_allclose(sch.alpha_bar(1), ABAR_1_T200, rtol=1e-12)
        np.testing.assert_allclose(sch.alpha_bar(200), ABAR_200_T200, rtol=1e-12)
        assert sch.alpha_bar(200) < 1e-3

    def test_minimum_size(self):
        sch = cosine_schedule(2)
        assert sch.step_count == 2
        np.testing.assert_allclose(sch.alpha_bar(1), ABAR_1_T2, rtol=1e-12)
        assert sch.alpha_bar(1) > sch.alpha_bar(2)

    @pytest.mark.parametrize("steps", [2, 5, 50, 200, 1000])
    def test_beta_clipping_and_ranges(self, steps):
        sch = cosine_schedule(steps)
        assert np.max(sch.betas) <= 0.999
        assert np.all((sch.betas > 0) & (sch.betas < 1))
        assert np.all((sch.alphas > 0) & (sch.alphas < 1))

    @pytest.mark.parametrize("steps", [2, 10, 100, 200])
    def test_alpha_bar_strictly_decreasing(self, steps):
        sch = cosine_schedule(steps)
        assert np.all(np.diff(sch.alpha_bars) < 0)
        assert sch.alpha_bar(steps) < 0.01

    def test_early_alpha_bar_near_one_for_long_schedules(self):
        for steps in (100, 200, 500):
            assert cosine_schedule(steps).alpha_bar(1) >= 0.99

    def test_alpha_bar_is_running_product(self):
        sch = cosine_schedule(64)
        running = 1.0
        for t in range(1, 65):
            running = running * sch.alpha(t)
            assert sch.alpha_bar(t) == running  # cumprod computes exactly this

    def test_rejects_tiny_step_count(self):
        with pytest.raises(ValueError):
            cosine_schedule(1)

    def test_tables_immutable(self):
        sch = cosine_schedule(10)
        with pytest.raises(ValueError):
            sch.betas[0] = 0.5

    def test_csv_dump(self, tmp_path):
        sch = cosine_schedule(5)
        path = tmp_path / "schedule.csv"
        sch.dump_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,beta,alpha,alpha_bar"
        assert len(lines) == 6
        first = lines[1].split(",")
        assert int(first[0]) == 1
        assert float(first[1]) == sch.beta(1)


class TestForwardDiffuse:
    def test_zero_noise_scales_by_sqrt_alpha_bar(self):
        sch = cosine_schedule(50)
        x0 = np.random.default_rng(0).standard_normal((2, 3, 4))
        for t in (1, 25, 50):
            out = forward_diffuse(x0, t, np.zeros_like(x0), sch)
            np.testing.assert_allclose(out, math.sqrt(sch.alpha_bar(t)) * x0, rtol=1e-15)

    def test_terminal_step_is_noise_dominated(self):
        sch = cosine_schedule(200)
        eps = np.random.default_rng(1).standard_normal((3, 8))
        out = forward_diffuse(np.zeros((3, 8)), 200, eps, sch)
        np.testing.assert_allclose(out, eps, rtol=1e-3)

    def test_deterministic(self):
        sch = cosine_schedule(30)
        rng = np.random.default_rng(2)
        x0, eps = rng.standard_normal((3, 5)), rng.standard_normal((3, 5))
        a = forward_diffuse(x0, 7, eps, sch)
        b = forward_diffuse(x0, 7, eps, sch)
        assert np.array_equal(a, b)

    def test_shape_mismatch_rejected(self):
        sch = cosine_schedule(10)
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros((3, 4)), 1, np.zeros((3, 5)), sch)

    @pytest.mark.parametrize("t", [0, -3, 11])
    def test_step_out_of_range_rejected(self, t):
        sch = cosine_schedule(10)
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros((3, 4)), t, np.zeros((3, 4)), sch)

    def test_per_example_steps_match_scalar_rows(self):
        sch = cosine_schedule(30)
        rng = np.random.default_rng(3)
        x0, eps = rng.standard_normal((4, 3, 5)), rng.standard_normal((4, 3, 5))
        t = np.array([1, 7, 30, 7])
        out = forward_diffuse(x0, t, eps, sch)
        for i, step in enumerate(t):
            assert np.array_equal(out[i], forward_diffuse(x0[i], int(step), eps[i], sch))

    @pytest.mark.parametrize("t", [[1, 0], [11, 3]])
    def test_per_example_step_out_of_range_rejected(self, t):
        sch = cosine_schedule(10)
        with pytest.raises(ValueError, match="outside 1..10"):
            forward_diffuse(np.zeros((2, 3, 4)), np.array(t), np.zeros((2, 3, 4)), sch)

    def test_monte_carlo_moments_at_midpoint(self):
        # empirical mean within 3 standard errors of sqrt(abar)*x0,
        # empirical variance within 5% of (1 - abar), over 10k draws
        sch = cosine_schedule(200)
        t = 100
        rng = np.random.default_rng(42)
        x0 = np.array([[0.7, -1.2, 0.3]]).T @ np.ones((1, 4))  # [3, 4]
        draws = 10_000
        eps = rng.standard_normal((draws, 3, 4))
        xt = forward_diffuse(np.broadcast_to(x0, eps.shape), t, eps, sch)
        abar = sch.alpha_bar(t)
        target_mean = math.sqrt(abar) * x0
        stderr = math.sqrt(1.0 - abar) / math.sqrt(draws)
        assert np.all(np.abs(xt.mean(axis=0) - target_mean) < 3.0 * stderr)
        noise_part = xt - target_mean
        assert abs(noise_part.var() - (1.0 - abar)) < 0.05 * (1.0 - abar)

    def test_variance_preserving_on_unit_variance_data(self):
        # abar + (1 - abar) = 1, so unit-variance x0 with unit-variance eps
        # keeps unit variance after diffusion
        sch = cosine_schedule(100)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((20000, 1, 1))
        eps = rng.standard_normal((20000, 1, 1))
        for t in (10, 50, 100):
            abar = sch.alpha_bar(t)
            xt = math.sqrt(abar) * x0 + math.sqrt(1 - abar) * eps
            assert abs(xt.var() - 1.0) < 0.05


class TestNoiseScheduleValidation:
    def test_rejects_beta_outside_unit_interval(self):
        with pytest.raises(ValueError):
            NoiseSchedule(betas=np.array([0.1, 1.0]))
        with pytest.raises(ValueError):
            NoiseSchedule(betas=np.array([0.0, 0.5]))

    def test_posterior_variance_formula(self):
        sch = cosine_schedule(20)
        for t in (2, 10, 20):
            expected = (1 - sch.alpha_bar(t - 1)) / (1 - sch.alpha_bar(t)) * sch.beta(t)
            assert sch.posterior_variance(t) == pytest.approx(expected, rel=1e-15)
        # t=1 uses abar_0 = 1, so the posterior variance collapses
        assert sch.posterior_variance(1) == 0.0
