"""Gaussian model: sampling, tail function, 0-1 loss, decomposition, eps rule."""

import math
import sys

import numpy as np
import pytest

from ttalab import (
    GaussianModel,
    gauss_upper_tail,
    is_epsilon_optimal,
    sample_batch,
    zero_one_loss,
)
from ttalab.model import ab_metrics, split_ab


def tail_by_quadrature(u: float) -> float:
    """Independent oracle: trapezoid integration of the normal density."""
    z = np.linspace(u, u + 40.0, 400001)
    return float(np.trapezoid(np.exp(-0.5 * z * z), z) / math.sqrt(2 * math.pi))


def unit(d, k=0):
    e = np.zeros(d)
    e[k] = 1.0
    return e


class TestGaussUpperTail:
    def test_symmetry_at_zero(self):
        assert gauss_upper_tail(0.0) == 0.5

    def test_benchmark_quantiles(self):
        # the two quantiles the benchmark construction is built on
        assert gauss_upper_tail(0.8416) == pytest.approx(0.2, abs=5e-4)
        assert gauss_upper_tail(0.8416 / 0.6567) == pytest.approx(0.1, abs=5e-4)

    def test_against_quadrature_oracle(self):
        for u in (-1.5, 0.3, 1.0, 2.5):
            assert gauss_upper_tail(u) == pytest.approx(tail_by_quadrature(u), abs=1e-9)

    def test_monotone_decreasing(self):
        # non-strict over the full range (floats saturate toward 1 in the far
        # left tail), strict where successive values are representable
        grid = np.linspace(-8, 8, 1601)
        values = [gauss_upper_tail(u) for u in grid]
        assert all(a >= b for a, b in zip(values, values[1:]))
        inner = [gauss_upper_tail(u) for u in np.linspace(-5, 5, 1001)]
        assert all(a > b for a, b in zip(inner, inner[1:]))

    def test_two_sided_sums_to_one(self):
        for u in np.linspace(-8, 8, 801):
            assert abs(gauss_upper_tail(u) + gauss_upper_tail(-u) - 1.0) <= 1e-14

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gauss_upper_tail(math.inf)

    def test_array_is_each_element_s_erfc_bit_for_bit(self):
        """An array gives 0.5 erfc(v / sqrt 2) per element bit for bit, out
        to the subnormal tail, in its own shape (2-D and empty too); a scalar
        gives a Python float."""
        grid = np.linspace(-38.5, 38.5, 7701)
        want = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in grid.tolist()])
        assert np.any((0.0 < want) & (want < sys.float_info.min))
        assert gauss_upper_tail(grid).tobytes() == want.tobytes()
        block = gauss_upper_tail(grid[-60::10].reshape(2, 3))
        assert block.shape == (2, 3) and block.tobytes() == want[-60::10].tobytes()
        assert gauss_upper_tail(np.empty((0, 3))).shape == (0, 3)
        tail = gauss_upper_tail(np.float64(grid[-60]))
        assert type(tail) is float and 0.0 < tail == want[-60]


class TestZeroOneLoss:
    def test_orthogonal_predictor_is_random_guessing(self):
        model = GaussianModel(mu=unit(3), sigma=1.0)
        assert zero_one_loss(model, unit(3, 1)) == 0.5

    def test_benchmark_operating_point(self):
        # mu[0] = 0.6567, ||mu|| = 1, sigma = 0.6567/0.8416, w = e1 -> 20% error
        mu = np.array([0.6567, math.sqrt(1 - 0.6567**2)])
        model = GaussianModel(mu=mu, sigma=0.6567 / 0.8416)
        assert zero_one_loss(model, unit(2)) == pytest.approx(0.2, abs=5e-4)

    def test_aligned_unit_predictor(self):
        # w = mu, ||mu|| = 1, sigma = 1: the loss is the normal tail at 1,
        # frozen from the quadrature oracle
        model = GaussianModel(mu=unit(4), sigma=1.0)
        oracle = tail_by_quadrature(1.0)  # = 0.15865525...
        assert zero_one_loss(model, unit(4)) == pytest.approx(0.15866, abs=1e-5)
        assert zero_one_loss(model, unit(4)) == pytest.approx(oracle, abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        model = GaussianModel(mu=rng.standard_normal(5), sigma=0.7)
        w = rng.standard_normal(5)
        base = zero_one_loss(model, w)
        for c in (1e-6, 0.5, 3.0, 1e8):
            assert abs(zero_one_loss(model, c * w) - base) <= 1e-14

    def test_noiseless_pointwise_limit(self):
        model = GaussianModel(mu=np.array([2.0, 0.0]), sigma=0.0)
        assert zero_one_loss(model, np.array([1.0, 5.0])) == 0.0
        assert zero_one_loss(model, np.array([-1.0, 5.0])) == 1.0
        assert zero_one_loss(model, np.array([0.0, 5.0])) == 0.5

    def test_rejects_zero_vector(self):
        model = GaussianModel(mu=unit(2), sigma=1.0)
        with pytest.raises(ValueError):
            zero_one_loss(model, np.zeros(2))


class TestSampleBatch:
    def test_noiseless_samples_sit_on_the_means(self):
        model = GaussianModel(mu=np.array([0.6, -0.8, 0.0]), sigma=0.0)
        xs = sample_batch(model, [np.random.default_rng(0)], 16)
        assert isinstance(xs, np.ndarray) and xs.shape == (16, 3)
        for x in xs:
            assert np.array_equal(x, model.mu) or np.array_equal(x, -model.mu)

    def test_law_of_large_numbers(self):
        """The second moment of x is within 4 standard errors of
        mu mu^T + sigma^2 I in every entry."""
        model = GaussianModel(mu=np.array([1.0, -0.5, 0.0, 0.3]), sigma=0.7)
        rng = np.random.default_rng(11)
        xs = sample_batch(model, [rng], 100_000)
        outer = xs[:, :, None] * xs[:, None, :]
        want = np.outer(model.mu, model.mu) + model.sigma**2 * np.eye(model.d)
        err = np.abs(outer.mean(axis=0) - want)
        se = outer.std(axis=0, ddof=1) / math.sqrt(len(xs))
        assert np.all(err <= 4 * se)

    def test_labels_roughly_balanced(self):
        """Balanced labels show in x alone: E[x] = E[y] mu = 0."""
        model = GaussianModel(mu=unit(2), sigma=0.5)
        xs = sample_batch(model, [np.random.default_rng(5)], 20_000)
        se = xs.std(axis=0, ddof=1) / math.sqrt(len(xs))
        assert np.all(np.abs(xs.mean(axis=0)) <= 4 * se)

    def test_deterministic_given_seed(self):
        model = GaussianModel(mu=np.array([1.0, -2.0]), sigma=0.3)
        a = sample_batch(model, [np.random.default_rng(99)], 64)
        b = sample_batch(model, [np.random.default_rng(99)], 64)
        assert a.tobytes() == b.tobytes()

    def test_rejects_empty_batch(self):
        model = GaussianModel(mu=unit(2), sigma=1.0)
        with pytest.raises(ValueError):
            sample_batch(model, [np.random.default_rng(0)], 0)

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("n", [1, 3, 32, 33])
    def test_batch_is_the_label_times_mean_plus_noise_formula_bit_for_bit(self, n, sigma):
        """x = y (mu + sigma xi), the labels drawn before the noise, on five
        draws in a row from one generator, against the formula on a twin
        generator.  An odd n leaves half of a 64-bit word for the next label
        draw, and mu's 0.0 coordinate turns into -0.0 where y = -1."""
        model = GaussianModel(mu=np.array([0.6567, 0.0, -1.25]), sigma=sigma)
        rng, twin = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(5):
            y = twin.integers(0, 2, size=n) * 2 - 1
            xi = twin.standard_normal((n, model.d))
            want = y[:, None] * (model.mu[None, :] + model.sigma * xi)
            assert sample_batch(model, [rng], n).tobytes() == want.tobytes()
            assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("n", [1, 2, 3, 32, 33])
    def test_float32_labels_are_the_integers_labels_and_stream(self, n):
        """The premise of sample_batch's label draw, for PCG64 under the
        installed NumPy: random(n, float32) >= 0.5 is integers(0, 2, size=n),
        and both leave the generator in the same state (an odd n leaves the
        same buffered half-word), on two draws in a row over 200 seeds."""
        for seed in range(200):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                labels = rng.random(n, dtype=np.float32) >= 0.5
                assert np.array_equal(labels, twin.integers(0, 2, size=n) == 1)
                assert rng.bit_generator.state == twin.bit_generator.state

    @pytest.mark.parametrize("streams", [1, 3])
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    def test_stacked_draw_is_each_generator_s_lone_draw(self, streams, sigma):
        """Row block s of a draw from a list of generators is generator s's
        draw as a one-item list bit for bit (mu's 0.0 coordinate gives -0.0 where y = -1),
        and each generator's next draw is its lone twin's next draw."""
        model = GaussianModel(mu=np.array([0.6567, 0.0, -1.25]), sigma=sigma)
        n, seeds = 33, range(7, 7 + streams)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        twins = [np.random.default_rng(seed) for seed in seeds]
        xs = sample_batch(model, rngs, n)
        assert xs.shape == (streams * n, model.d)
        for s, twin in enumerate(twins):
            assert xs[s * n:(s + 1) * n].tobytes() == sample_batch(model, [twin], n).tobytes()
        for rng, twin in zip(rngs, twins):
            assert (sample_batch(model, [rng], n).tobytes()
                    == sample_batch(model, [twin], n).tobytes())
        with pytest.raises(TypeError):  # a lone Generator, not in a list
            sample_batch(model, rngs[0], n)

    def test_rejects_an_empty_generator_list(self):
        model = GaussianModel(mu=unit(2), sigma=1.0)
        with pytest.raises(ValueError, match="^rng list must be non-empty$"):
            sample_batch(model, [], 4)


class TestDecompose:
    """w split into (a, b) by split_ab and read by ab_metrics."""

    def test_plain_arithmetic_case(self):
        model = GaussianModel(mu=np.array([2.0, 0.0]), sigma=1.0)
        a, b = split_ab(np.array([3.0, 4.0]), model)
        r, cos, _ = ab_metrics(a, b, model)
        assert a == 6.0
        assert a / model.mu_norm == 3.0
        assert b == 4.0
        assert r == 1.5
        assert cos == pytest.approx(0.6, abs=1e-15)

    def test_aligned_predictor(self):
        model = GaussianModel(mu=np.array([0.3, -1.2, 0.5]), sigma=1.0)
        a, b = split_ab(2.5 * model.mu, model)
        r, cos, _ = ab_metrics(a, b, model)
        assert b == pytest.approx(0.0, abs=1e-15)
        assert r == math.inf
        assert cos == pytest.approx(1.0, abs=1e-12)

    def test_antialigned_gets_negative_infinity(self):
        model = GaussianModel(mu=np.array([1.0, 1.0]), sigma=1.0)
        r, cos, _ = ab_metrics(*split_ab(-model.mu, model), model)
        assert r == -math.inf
        assert cos == pytest.approx(-1.0, abs=1e-12)

    def test_cosine_ratio_identity_random_directions(self):
        """cos = sign(r) / sqrt(1 + ||mu||^2 / r^2) whenever b > 0."""
        rng = np.random.default_rng(17)
        for _ in range(200):
            model = GaussianModel(mu=rng.standard_normal(7), sigma=1.0)
            r, cos, _ = ab_metrics(*split_ab(rng.standard_normal(7), model), model)
            implied = math.copysign(1, r) / math.sqrt(1 + model.mu_norm**2 / r**2)
            assert abs(cos - implied) <= 1e-12

    def test_norm_splits_into_components(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            model = GaussianModel(mu=rng.standard_normal(4), sigma=0.5)
            w = rng.standard_normal(4)
            a, b = split_ab(w, model)
            a_bar = a / model.mu_norm
            norm2 = float(w @ w)
            assert abs(a_bar**2 + b**2 - norm2) <= 1e-12 * norm2

    def test_axis_aligned_mean_is_exact(self):
        model = GaussianModel(mu=3.0 * unit(5), sigma=1.0)
        rng = np.random.default_rng(8)
        for _ in range(50):
            w = rng.standard_normal(5)
            _, b = split_ab(w, model)
            assert abs(b - float(np.linalg.norm(w[1:]))) <= 1e-14


class TestAbMetrics:
    def test_elementwise_rules(self):
        """(r, cos, loss01) per (a, b): the b = 0 limits and the zero predictor."""
        a = np.array([6.0, 2.0, -2.0, 0.0, 0.0])
        b = np.array([4.0, 0.0, 0.0, 3.0, 0.0])
        noisy = GaussianModel(mu=np.array([2.0, 0.0]), sigma=1.0)
        r, cos, loss01 = ab_metrics(a, b, noisy)
        np.testing.assert_array_equal(r, [1.5, math.inf, -math.inf, 0.0, math.nan])
        np.testing.assert_allclose(cos, [0.6, 1.0, -1.0, 0.0, math.nan], rtol=1e-15)
        np.testing.assert_allclose(
            loss01, [gauss_upper_tail(2.0 * c) for c in cos[:4]] + [math.nan], rtol=1e-15)
        noiseless = GaussianModel(mu=np.array([2.0, 0.0]), sigma=0.0)
        np.testing.assert_array_equal(ab_metrics(a, b, noiseless)[2],
                                      [0.0, 0.0, 1.0, 0.5, math.nan])

    def test_stack_matches_single_predictors_and_zero_one_loss(self):
        rng = np.random.default_rng(5)
        model = GaussianModel(mu=rng.standard_normal(4), sigma=0.8)
        ws = rng.standard_normal((20, 4))
        a, b = np.array([split_ab(w, model) for w in ws]).T
        # a stack gives each predictor's (a, b) bit for bit
        for stacked, lone in zip(split_ab(ws.reshape(5, 4, 4), model), (a, b)):
            np.testing.assert_array_equal(stacked, lone.reshape(5, 4))
        r, cos, loss01 = ab_metrics(a, b, model)
        for w, row in zip(ws, zip(r, cos, loss01)):
            lone_r, lone_cos, _ = ab_metrics(*split_ab(w, model), model)
            assert row == (lone_r, lone_cos, zero_one_loss(model, w))


class TestEpsilonOptimal:
    def test_exact_alignment_always_passes(self):
        model = GaussianModel(mu=np.array([1.0, 2.0]), sigma=1.0)
        for eps in (1e-6, 0.5, 0.999):
            assert is_epsilon_optimal(*split_ab(model.mu, model), model, eps)

    def test_threshold_arithmetic(self):
        # construct w with cos^2 exactly 0.95
        model = GaussianModel(mu=unit(3), sigma=1.0)
        w = math.sqrt(0.95) * unit(3) + math.sqrt(0.05) * unit(3, 1)
        assert is_epsilon_optimal(*split_ab(w, model), model, 0.1)
        assert not is_epsilon_optimal(*split_ab(w, model), model, 0.01)

    def test_positive_correlation_is_required(self):
        model = GaussianModel(mu=unit(3), sigma=1.0)
        w = -(math.sqrt(0.999) * unit(3) + math.sqrt(0.001) * unit(3, 2))
        assert w @ model.mu < 0 and (w @ model.mu) ** 2 / (w @ w) >= 0.999
        assert not is_epsilon_optimal(*split_ab(w, model), model, 0.01)

    def test_elementwise_over_a_stack(self):
        """Normal, mirror-image, zero, inf and NaN rows: only the first passes."""
        model = GaussianModel(mu=unit(3), sigma=1.0)
        w = math.sqrt(0.95) * unit(3) + math.sqrt(0.05) * unit(3, 1)
        ws = np.array([w, -w, np.zeros(3), [math.inf, 0.0, 0.0], [math.nan, 1.0, 0.0]])
        with np.errstate(invalid="ignore"):
            a, b = split_ab(ws, model)
        np.testing.assert_array_equal(is_epsilon_optimal(a, b, model, 0.1),
                                      [True, False, False, False, False])

    def test_loss_of_epsilon_optimal_predictor(self):
        """Loss equals Phi((||mu||/sigma) cos) and is at most the eps envelope."""
        rng = np.random.default_rng(31)
        model = GaussianModel(mu=2.0 * rng.standard_normal(6), sigma=1.3)
        eps = 0.2
        for _ in range(50):
            w = rng.standard_normal(6)
            if not is_epsilon_optimal(*split_ab(w, model), model, eps):
                continue
            cos = ab_metrics(*split_ab(w, model), model)[1]
            loss = zero_one_loss(model, w)
            assert loss == pytest.approx(
                gauss_upper_tail(model.mu_norm / model.sigma * cos), abs=1e-14)
            assert loss <= gauss_upper_tail(
                model.mu_norm / model.sigma * math.sqrt(1 - eps)) + 1e-14

    def test_rejects_bad_eps(self):
        model = GaussianModel(mu=unit(2), sigma=1.0)
        for eps in (0.0, 1.0, -0.1, 2.0):
            with pytest.raises(ValueError):
                is_epsilon_optimal(*split_ab(model.mu, model), model, eps)


class TestModelValidation:
    def test_rejects_zero_mean(self):
        with pytest.raises(ValueError):
            GaussianModel(mu=np.zeros(3), sigma=1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            GaussianModel(mu=np.ones(2), sigma=-0.1)

    @pytest.mark.parametrize("check", [zero_one_loss], ids=["zero_one_loss"])
    @pytest.mark.parametrize("w", [[math.inf, 0.0], [math.nan, 1.0]], ids=["inf", "nan"])
    def test_rejects_non_finite_predictor(self, check, w):
        model = GaussianModel(mu=unit(2), sigma=1.0)
        with pytest.raises(ValueError, match="^w must be finite$"):
            check(model, np.array(w))

    def test_mu_is_frozen(self):
        model = GaussianModel(mu=np.ones(2), sigma=1.0)
        with pytest.raises(ValueError):
            model.mu[0] = 5.0
