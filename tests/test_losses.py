"""The six pseudo-label self-training losses and their derivatives."""

import math

import numpy as np
import pytest

from ttalab import (
    LabelRule,
    LossFamily,
    all_losses,
    club_losses,
    make_loss,
    parse_loss_id,
)

GRID = np.arange(-3000, 3001) * 1e-2  # [-30, 30] in steps of 0.01


def sech(u):
    return 1.0 / math.cosh(u)


# Oracles: the labels and gradient the loss table holds inside its psi and dpsi,
# written out from their definitions.
def pseudo_label(loss, margin):
    """Pseudo-label of a sample with margin w^T x: sign(u) for the hard rule,
    u for conj+square, tanh(u) for the other conjugate losses."""
    margin = float(margin)
    if loss.rule is LabelRule.HARD:
        return float(np.sign(margin))
    if loss.family is LossFamily.SQUARE:
        return margin
    return math.tanh(margin)


def self_loss_gradient(loss, w, x):
    """Gradient of psi(w^T x) in w, i.e. psi'(w^T x) x, for one sample x."""
    return float(loss.dpsi(float(w @ x))) * x


class TestClosedForms:
    def test_conj_square_value(self):
        loss = make_loss("conj", "square")
        assert float(loss.psi(2.0)) == -2.0

    def test_hard_exp_values(self):
        loss = make_loss("hard", "exp")
        assert float(loss.psi(0.0)) == 1.0
        assert float(loss.psi(3.0)) == float(loss.psi(-3.0)) == pytest.approx(math.exp(-3))

    def test_conj_logistic_values(self):
        loss = make_loss("conj", "logistic")
        assert float(loss.psi(0.0)) == pytest.approx(0.0, abs=1e-15)
        # psi'(u) = -u sech(u)^2
        assert float(loss.dpsi(1.0)) == pytest.approx(-sech(1.0) ** 2, rel=1e-13)
        assert float(loss.dpsi(1.0)) == pytest.approx(-0.41997, abs=5e-6)

    def test_hard_square_identity(self):
        # psi(u) = (1 - |u|)^2 / 2 away from the origin
        loss = make_loss("hard", "square")
        u = GRID[GRID != 0.0]
        np.testing.assert_allclose(loss.psi(u), 0.5 * (1 - np.abs(u)) ** 2,
                                   rtol=0, atol=1e-13)

    def test_hard_logistic_matches_naive_form(self):
        loss = make_loss("hard", "logistic")
        u = np.linspace(-20, 20, 2001)
        naive = np.log(np.cosh(u)) - np.abs(u)
        np.testing.assert_allclose(loss.psi(u), naive, rtol=0, atol=1e-12)

    def test_conj_exp_is_sech(self):
        loss = make_loss("conj", "exp")
        for u in (-2.0, 0.0, 0.7, 5.0):
            assert float(loss.psi(u)) == pytest.approx(sech(u), rel=1e-14)


class TestCatalogue:
    def test_club_parameters(self):
        expected = {
            ("hard", "exp"): (1.0, 0.0),
            ("hard", "logistic"): (2.0, 0.0),
            ("conj", "exp"): (1.0, 0.75),
            ("conj", "logistic"): (2.0, 0.5),
        }
        for loss in club_losses():
            L, a_min = expected[(loss.rule.value, loss.family.value)]
            assert loss.club.L == L
            assert loss.club.a_min == a_min
        for family in ("square",):
            assert make_loss("hard", family).club is None
            assert make_loss("conj", family).club is None

    def test_smoothness_flags(self):
        # psi' jumps at 0 exactly for the hard rules
        for loss in all_losses():
            assert loss.smooth_second_derivative == (loss.rule is LabelRule.CONJ)

    def test_parse_loss_id(self):
        loss = parse_loss_id("conj:exp")
        assert loss.rule is LabelRule.CONJ and loss.family is LossFamily.EXP
        assert parse_loss_id("hard+logistic").name == "hard+logistic"
        with pytest.raises(ValueError):
            parse_loss_id("soft:hinge")


class TestInputTypes:
    @pytest.mark.parametrize("fn", ("psi", "dpsi", "ddpsi"))
    @pytest.mark.parametrize("loss", all_losses(), ids=lambda l: l.name)
    def test_float_int_list_and_array_agree(self, loss, fn):
        f = getattr(loss, fn)
        ints = (-3, 0, 2)
        want = f(np.array(ints, dtype=float))
        for got in ([f(float(v)) for v in ints], [f(v) for v in ints],
                    f(list(ints)), f(np.array(ints))):
            got = np.asarray(got)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)


class TestSymmetry:
    @pytest.mark.parametrize("loss", all_losses(), ids=lambda l: l.name)
    def test_psi_is_even(self, loss):
        np.testing.assert_allclose(loss.psi(GRID), loss.psi(-GRID), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda l: l.name)
    def test_dpsi_is_odd(self, loss):
        np.testing.assert_allclose(loss.dpsi(GRID), -np.asarray(loss.dpsi(-GRID)),
                                   rtol=0, atol=1e-13)
        assert float(loss.dpsi(0.0)) == 0.0


class TestDerivativeConsistency:
    H = 1e-5
    AWAY = GRID[np.abs(GRID) > 1e-3]

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda l: l.name)
    def test_dpsi_matches_finite_differences(self, loss):
        fd = (np.asarray(loss.psi(self.AWAY + self.H))
              - np.asarray(loss.psi(self.AWAY - self.H))) / (2 * self.H)
        d = np.asarray(loss.dpsi(self.AWAY))
        assert np.all(np.abs(d - fd) <= 1e-6 * np.maximum(1.0, np.abs(d)))

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda l: l.name)
    def test_ddpsi_matches_finite_differences(self, loss):
        fd = (np.asarray(loss.dpsi(self.AWAY + self.H))
              - np.asarray(loss.dpsi(self.AWAY - self.H))) / (2 * self.H)
        dd = np.asarray(loss.ddpsi(self.AWAY))
        assert np.all(np.abs(dd - fd) <= 1e-6 * np.maximum(1.0, np.abs(dd)))


class TestNumericalStability:
    WIDE = np.concatenate([np.arange(0, 701.0), -np.arange(1, 701.0)])

    @pytest.mark.parametrize("loss", all_losses(), ids=lambda l: l.name)
    def test_finite_on_wide_range(self, loss):
        assert np.all(np.isfinite(loss.psi(self.WIDE)))
        assert np.all(np.isfinite(loss.dpsi(self.WIDE)))
        assert np.all(np.isfinite(loss.ddpsi(self.WIDE)))

    @pytest.mark.parametrize("loss", club_losses(), ids=lambda l: l.name)
    def test_bounded_slope(self, loss):
        u = np.linspace(-700, 700, 100001)
        assert np.all(np.abs(loss.dpsi(u)) <= 1.0)

    def test_hard_logistic_slope_survives_saturation(self):
        # tanh(u) - sign(u) computed naively underflows to 0 past u ~ 19
        loss = make_loss("hard", "logistic")
        value = float(loss.dpsi(30.0))
        assert value < 0.0
        assert value == pytest.approx(-2 * math.exp(-60), rel=1e-12)


class TestPseudoLabels:
    def test_hard_label_is_the_sign(self):
        for family in LossFamily:
            loss = make_loss("hard", family)
            assert pseudo_label(loss, -3.0) == -1.0
            assert pseudo_label(loss, 2.5) == 1.0
            assert pseudo_label(loss, 0.0) == 0.0

    def test_conjugate_labels(self):
        assert pseudo_label(make_loss("conj", "square"), 0.7) == 0.7
        assert pseudo_label(make_loss("conj", "exp"), 0.0) == 0.0
        for family in ("logistic", "exp"):
            loss = make_loss("conj", family)
            assert pseudo_label(loss, 1.3) == pytest.approx(math.tanh(1.3), rel=1e-15)


# the base loss l(u, y) of each family, with y the pseudo-label
BASE_LOSSES = {
    "square": lambda u, y: 0.5 * (y - u) ** 2,
    "logistic": lambda u, y: math.log1p(math.exp(-2.0 * y * u)) - math.log(2.0),
    "exp": lambda u, y: math.exp(-y * u),
}


@pytest.mark.parametrize("family", sorted(BASE_LOSSES))
def test_hard_psi_is_the_base_loss_at_the_pseudo_label(family):
    """psi(u) = l(u, pseudo_label(loss, u)) for the hard rules, on a margin
    grid with 0 and both signs: the loss table and pseudo_label agree."""
    loss = make_loss("hard", family)
    for u in np.arange(-400, 401) * 0.05:
        want = BASE_LOSSES[family](u, pseudo_label(loss, u))
        assert float(loss.psi(u)) == pytest.approx(want, rel=1e-12, abs=0.0), u


class TestGradient:
    def test_hard_square_gradient(self):
        # gradient is -(sign(w.x) - w.x) x; with margin 0.5 that is -0.5 x
        loss = make_loss("hard", "square")
        w = np.array([0.5, 0.0])
        x = np.array([1.0, 2.0])
        assert float(w @ x) == 0.5
        np.testing.assert_allclose(self_loss_gradient(loss, w, x), -0.5 * x, rtol=1e-15)

    def test_zero_sample_gives_zero_gradient(self):
        for loss in all_losses():
            g = self_loss_gradient(loss, np.array([1.0, -2.0]), np.zeros(2))
            np.testing.assert_array_equal(g, np.zeros(2))

    def test_conj_exp_gradient_value(self):
        # psi'(1) = -tanh(1) sech(1)
        loss = make_loss("conj", "exp")
        w = np.array([1.0, 0.0])
        x = np.array([1.0, 3.0])
        expected = -math.tanh(1.0) * sech(1.0)
        assert expected == pytest.approx(-0.4935543, abs=1e-7)
        np.testing.assert_allclose(self_loss_gradient(loss, w, x), expected * x,
                                   rtol=1e-14)
