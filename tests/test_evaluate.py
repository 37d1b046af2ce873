import math
import warnings

import numpy as np
import pytest

from prosodiff.evaluate import (
    Histogram,
    build_histogram,
    cluster_separation,
    coefficient_of_variation,
    descriptor,
    js_divergence,
    linear_channels,
    mean_cv,
    uniform_edges,
)


def hist(masses, edges=None):
    masses = np.asarray(masses, dtype=np.float64)
    if edges is None:
        edges = np.arange(len(masses) + 1, dtype=np.float64)
    return Histogram(bin_edges=np.asarray(edges, dtype=np.float64), masses=masses)


class TestJsDivergence:
    def test_identical_distributions_give_zero(self):
        p = hist([0.2, 0.3, 0.5])
        assert js_divergence(p, hist([0.2, 0.3, 0.5])) == 0.0

    def test_disjoint_support_gives_ln2(self):
        p = hist([1.0, 0.0, 0.0, 0.0])
        q = hist([0.0, 0.0, 0.0, 1.0])
        assert js_divergence(p, q) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_matches_hand_computed_sum(self):
        # two overlapping discrete distributions, summed term by term
        p_m, q_m = [0.6, 0.4], [0.1, 0.9]
        expected = 0.0
        for a, b in zip(p_m, q_m):
            m = 0.5 * (a + b)
            expected += 0.5 * a * math.log(a / m) + 0.5 * b * math.log(b / m)
        got = js_divergence(hist(p_m, [0, 1, 2]), hist(q_m, [0, 1, 2]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_symmetric_and_bounded_on_random_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            a = rng.dirichlet(np.ones(12))
            b = rng.dirichlet(np.ones(12))
            d_ab = js_divergence(hist(a), hist(b))
            d_ba = js_divergence(hist(b), hist(a))
            assert d_ab == pytest.approx(d_ba, abs=1e-12)
            assert 0.0 <= d_ab <= math.log(2.0) + 1e-12

    def test_edge_mismatch_rejected(self):
        with pytest.raises(ValueError):
            js_divergence(hist([1.0, 0.0]), hist([1.0, 0.0], edges=[0, 0.5, 1.5]))


class TestHistogram:
    def test_masses_must_be_distribution(self):
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 1.0]), masses=np.array([0.5]))
        with pytest.raises(ValueError):
            Histogram(bin_edges=np.array([0.0, 0.0]), masses=np.array([1.0]))

    def test_build_normalizes_and_smooths(self):
        edges = np.linspace(0, 1, 6)
        h = build_histogram(np.array([0.05, 0.05, 0.95]), edges)
        assert h.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(h.masses > 0)  # smoothing fills empty bins
        assert h.masses[0] > h.masses[1]

    def test_out_of_range_clipped_into_end_bins(self):
        edges = np.linspace(0, 1, 3)
        h = build_histogram(np.array([-5.0, 5.0]), edges)
        assert h.masses[0] == pytest.approx(0.5, abs=1e-6)
        assert h.masses[-1] == pytest.approx(0.5, abs=1e-6)

    def test_uniform_edges_require_spread(self):
        with pytest.raises(ValueError):
            uniform_edges(np.full(5, 2.0))


class TestCoefficientOfVariation:
    def test_constant_values_give_zero(self):
        assert coefficient_of_variation(np.full(7, 4.2)) == 0.0

    def test_known_arithmetic(self):
        # population std of [1, 3] is 1, mean 2 -> 50%
        assert coefficient_of_variation(np.array([1.0, 3.0])) == pytest.approx(50.0)

    def test_zero_mean_rejected(self):
        with pytest.raises(ValueError):
            coefficient_of_variation(np.array([-1.0, 1.0]))

    def test_negative_mean_uses_magnitude(self):
        assert coefficient_of_variation(np.array([-1.0, -3.0])) == pytest.approx(50.0)


class TestDescriptor:
    def test_order_and_values_against_moment_oracle(self):
        rng = np.random.default_rng(1)
        prosody = rng.standard_normal((3, 40))
        vec = descriptor(prosody)
        assert vec.shape == (21,)
        for ch in range(3):
            vals = prosody[ch]
            mean = vals.sum() / len(vals)
            m2 = sum((v - mean) ** 2 for v in vals) / len(vals)
            m3 = sum((v - mean) ** 3 for v in vals) / len(vals)
            m4 = sum((v - mean) ** 4 for v in vals) / len(vals)
            expected = [
                mean,
                math.sqrt(m2),
                float(np.median(vals)),
                vals.min(),
                vals.max(),
                m3 / m2**1.5,
                m4 / m2**2,
            ]
            np.testing.assert_allclose(vec[ch * 7 : (ch + 1) * 7], expected, atol=1e-10)

    def test_symmetric_values_zero_skewness(self):
        vals = np.array([-2.0, -1.0, 1.0, 2.0])
        prosody = np.stack([vals, vals + 5, vals - 3])
        vec = descriptor(prosody)
        for ch in range(3):
            assert abs(vec[ch * 7 + 5]) < 1e-12

    def test_invariant_under_position_permutation(self):
        rng = np.random.default_rng(2)
        prosody = rng.standard_normal((3, 15))
        shuffled = prosody[:, rng.permutation(15)]
        np.testing.assert_allclose(descriptor(prosody), descriptor(shuffled), atol=1e-12)

    def test_constant_channel_rejected(self):
        prosody = np.vstack([np.ones((1, 5)), np.random.default_rng(3).standard_normal((2, 5))])
        with pytest.raises(ValueError, match="zero standard deviation"):
            descriptor(prosody)

    def test_min_median_max_ordering(self):
        vec = descriptor(np.random.default_rng(4).standard_normal((3, 30)))
        for ch in range(3):
            stats = vec[ch * 7 : (ch + 1) * 7]
            assert stats[3] <= stats[2] <= stats[4]  # min <= median <= max
            assert stats[1] >= 0

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            descriptor(np.ones((3, 1)))


class TestClusterSeparation:
    def test_well_separated_identical_groups(self):
        a = np.tile([0.0, 0.0], (5, 1)) + np.random.default_rng(5).normal(0, 0.01, (5, 2))
        b = np.tile([10.0, 10.0], (5, 1)) + np.random.default_rng(6).normal(0, 0.01, (5, 2))
        acc = cluster_separation(np.vstack([a, b]), np.array([0] * 5 + [1] * 5))
        assert acc == 1.0

    def test_random_labels_near_chance(self):
        rng = np.random.default_rng(7)
        accs = []
        for _ in range(30):
            descs = rng.standard_normal((40, 6))
            labels = np.repeat(np.arange(4), 10)
            rng.shuffle(labels)
            accs.append(cluster_separation(descs, labels))
        mean_acc = np.mean(accs)
        assert abs(mean_acc - 0.25) < 0.08  # 1/labels baseline

    def test_needs_two_labels(self):
        with pytest.raises(ValueError):
            cluster_separation(np.zeros((4, 3)), np.zeros(4, dtype=int))

    def test_needs_two_samples_per_label(self):
        with pytest.raises(ValueError):
            cluster_separation(np.zeros((3, 2)), np.array([0, 0, 1]))


class TestPooledHelpers:
    def test_linear_channels(self):
        prosody = np.array([[0.0, 1.0], [3.0, 4.0], [0.0, -1.0]])
        lin = linear_channels(prosody)
        np.testing.assert_allclose(lin[0], [1.0, math.e])
        np.testing.assert_allclose(lin[1], [3.0, 4.0])
        np.testing.assert_allclose(lin[2], [1.0, 1 / math.e])

    def test_mean_cv_averages_over_utterances(self):
        a = np.array([[1.0, 1.0], [2.0, 4.0], [0.5, 0.5]])
        b = np.array([[2.0, 2.0], [3.0, 3.0], [0.1, 0.1]])
        out = mean_cv([a, b])
        cv_energy_a = coefficient_of_variation(a[1])
        cv_energy_b = coefficient_of_variation(b[1])
        assert out[1] == pytest.approx(0.5 * (cv_energy_a + cv_energy_b))

    def test_mean_cv_of_a_diverging_sample_does_not_overflow(self):
        # exp(800) overflows a float64; CV is scale-free, so the CV is that of the sequence shifted by -800
        ordinary = np.array([[4.6, 5.1, 4.9, 5.3], [0.2, 0.5, 0.3, 0.1], [-2.0, -1.6, -1.9, -2.2]])
        diverged = ordinary + np.array([[800.0], [0.0], [800.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = mean_cv([diverged])
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, mean_cv([ordinary]), rtol=1e-12)
