"""Certificates, recursion lower bound, tail exponents, identity checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from ttalab import analysis
from ttalab import (
    UnsupportedLossError,
    recursion_bound_run,
    make_loss,
    nu_star_upper,
    log_rate_check,
    record_text,
    stein_identity_check,
    tail_rate_curve,
    verify_club,
)
from ttalab.analysis import _check_log_bound
from ttalab.losses import ClubParams, LabelRule, LossFamily, SelfTrainingLoss, all_losses


def _fixed_point(L, lo, hi):
    """Root of v = exp(L v) in [lo, hi] by plain bisection, independent of
    ttalab: the oracle for the burn-in constants below."""
    f = lambda v: v - math.exp(L * v)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if (f(mid) > 0) == (f(lo) > 0) else (lo, mid)
    return 0.5 * (lo + hi)


def _larger_fixed_point(L):
    hi = 2.0 / L
    while hi - math.exp(L * hi) > 0:
        hi *= 2.0
    return _fixed_point(L, 1.0 / L, hi)


def _first_shifted_violation(seq, c, L, tau):
    """First t > tau + 1 with r_{t - ceil(tau)} < log(c (t-1)) / (2 L), or
    None: the shifted statement that the equality dynamic refutes."""
    offset = math.ceil(tau)
    t = np.arange(max(math.floor(tau + 1.0) + 1, offset + 1), len(seq) + 1)
    bad = seq[t - offset - 1] < np.log(c * (t - 1)) / (2 * L)
    return int(t[bad][0]) if bad.any() else None


def _loop_log_bound(seq, c, L, tau, T):
    """(holds, first violating t, minimum slack) of r_t >= log(c (t-1)) / (2 L)
    over every integer t > tau + 1 up to T, one t at a time: the oracle for
    the vectorised _check_log_bound."""
    values = seq.tolist()
    first = None
    min_slack = math.inf
    for t in range(math.floor(tau + 1.0) + 1, T + 1):
        slack = values[t - 1] - math.log(c * (t - 1)) / (2.0 * L)
        if slack < min_slack:
            min_slack = slack
            if first is None and slack < 0.0:
                first = t
    return first is None, first, min_slack


def _whole_check_log_bound(seq, c, L, tau, T):
    """_check_log_bound over the whole checked range as one array, as it was
    computed before the range was walked in blocks: the oracle for the blocks."""
    if c == 0.0 or tau + 1.0 >= T:
        return True, None, math.inf
    start = math.floor(tau + 1.0) + 1
    t = np.arange(start, T + 1)
    slack = seq[start - 1:T] - np.log(c * (t - 1)) / (2.0 * L)
    violations = np.flatnonzero(slack < 0.0)
    first = int(t[violations[0]]) if violations.size else None
    return first is None, first, float(np.fmin.reduce(slack, initial=math.inf))


def _whole_bits(loss, L, a_min, a_max=1000.0, step=1e-3):
    """(repr(max_violation), evenness_passed) of verify_club from one whole
    grid array, a_min + step k from the last node at or below the origin to
    the cap, as it would be computed without blocks: the oracle for the blocks."""
    a_cap = min(float(a_max), 700.0 / L)
    n = int(math.floor((a_cap - a_min) / step)) + 1
    below = math.ceil(a_min / step)
    u = a_min + step * np.arange(-below, n)
    left = np.asarray(loss.psi(u), dtype=float)
    right = np.asarray(loss.psi(-u), dtype=float)
    even_err = np.max(np.abs(left - right) / np.maximum(1.0, np.abs(left)))
    grid = u[below:]
    if not loss.smooth_second_derivative:
        grid = grid[grid != 0.0]
    gap = (-np.asarray(loss.dpsi(grid), dtype=float)) - np.exp(-L * grid)
    max_violation = float(gap.min()) if gap.size else 0.0
    return repr(max_violation), bool(even_err <= 1e-12)


def _recording(base, seen):
    """base with psi and dpsi wrapped to append a copy of every argument
    array to seen["psi"] and seen["dpsi"]."""
    def record(name, f):
        def wrapped(u):
            seen[name].append(np.array(u, dtype=float))
            return f(u)
        return wrapped
    return SelfTrainingLoss(base.rule, base.family, record("psi", base.psi),
                            record("dpsi", base.dpsi), base.ddpsi, base.club)


def _loop_recursion(r1, c, L, T, gain):
    """r_{t+1} = r_t + gain c exp(-L r_t) one plain float at a time."""
    values, x = [r1], r1
    for _ in range(T - 1):
        x += gain * c * math.exp(-L * x)
        values.append(x)
    return np.array(values)


def _peak_bytes(call):
    """Peak traced allocation, in bytes, while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _certificate_bits(cert):
    return repr(cert.max_violation), cert.evenness_passed


class TestBlockedGrids:
    """The grid checks walk their index ranges in blocks of analysis._BLOCK;
    no result may depend on the block size."""

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("rule,a_min,step,n", [
        # the conj+exp cases keep the ids they had before the rule was a parameter
        pytest.param("conj", 0.0, 1e-3, 1, id="0.0-0.001-1"),
        pytest.param("conj", 0.75, 0.125, 7, id="0.75-0.125-7"),
        pytest.param("conj", 0.0, 0.1, 10, id="0.0-0.1-10"),
        pytest.param("conj", 0.5, 1e-3, 4096, id="0.5-0.001-4096"),
        pytest.param("conj", 0.0, 0.3, 4097, id="0.0-0.3-4097"),
        ("conj", -0.0, 0.1, 10),
        ("hard", 0.0, 1e-3, 1),
        ("hard", 0.75, 0.125, 7),
        ("hard", 0.0, 0.1, 10),
        ("hard", -0.0, 0.1, 10),
        ("hard", 0.5, 1e-3, 4096),
        ("hard", 0.0, 0.3, 4097),
    ])
    def test_walk_nodes_are_the_whole_grid(self, monkeypatch, block, rule, a_min, step, n):
        """psi sees each block's nodes u, then -u, and psi' the nodes with
        k >= 0: across blocks they are the whole grid a_min + step k from the
        origin, its exact negation and the n-node tail grid, less the origin
        for a hard loss (whose psi' jumps there) when a_min is +-0.0."""
        monkeypatch.setattr(analysis, "_BLOCK", block)
        seen = {"psi": [], "dpsi": []}
        loss = _recording(make_loss(rule, "exp"), seen)
        verify_club(loss, 0.1, a_min, a_max=a_min + (n - 0.5) * step, step=step)  # cap 7000
        whole = a_min + step * np.arange(-math.ceil(a_min / step), n)
        assert -step < whole[0] <= 0.0
        assert np.array_equal(np.concatenate(seen["psi"][0::2]), whole)
        mirrored = np.concatenate(seen["psi"][1::2])
        assert np.array_equal(mirrored, -whole)
        assert np.array_equal(np.signbit(mirrored), ~np.signbit(whole))
        tail = a_min + step * np.arange(n)
        if rule == "hard":
            tail = tail[tail != 0.0]
            assert tail.size == n - (a_min == 0.0)
        assert np.array_equal(np.concatenate([np.empty(0), *seen["dpsi"]]), tail)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    @pytest.mark.parametrize("loss", all_losses(), ids=lambda loss: loss.name)
    def test_certificate_equals_the_whole_array_check(self, monkeypatch, block, loss):
        """Tail grids of a multiple of the block and of a multiple plus one
        nodes, at the certified and at a failing exponent; the hard losses
        start at a_min = 0."""
        monkeypatch.setattr(analysis, "_BLOCK", block)
        club = loss.club or ClubParams(L=1.0, a_min=0.0)
        step = 1.0 / 64.0  # a_min + (n - 1) step is exact: the grid has n nodes
        for n in (2 * block, 2 * block + 1, 5 * block + 3):
            a_max = club.a_min + (n - 1) * step
            for L in (club.L, 0.5 * club.L):
                cert = verify_club(loss, L, club.a_min, a_max=a_max, step=step)
                assert (cert.a_max - club.a_min) / step + 1 == n
                assert _certificate_bits(cert) == _whole_bits(loss, L, club.a_min, a_max, step)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_defects_in_the_last_block_are_caught(self, monkeypatch, block):
        """A conj+exp whose psi is not even past |u| = 690 and whose psi' breaks
        the tail bound past a = 699: at block 4096 both defects lie in the last
        block of the walk."""
        base = make_loss("conj", "exp")
        loss = SelfTrainingLoss(
            LabelRule.CONJ, LossFamily.EXP,
            lambda u: base.psi(u) + np.where(np.asarray(u) > 690.0, 1e-6, 0.0),
            lambda u: base.dpsi(u) + np.where(np.asarray(u) > 699.0, 1e-3, 0.0),
            base.ddpsi, ClubParams(L=1.0, a_min=0.75))
        step = 0.125
        n = int((700.0 - 0.75) / step) + 1
        first = -6  # -ceil(0.75 / step)
        last_block = first + (n - first) // 4096 * 4096
        assert 0.75 + last_block * step < 690.0  # the walk's last block holds both
        monkeypatch.setattr(analysis, "_BLOCK", block)
        cert = verify_club(loss, 1.0, 0.75, step=step)
        assert not cert.evenness_passed and not cert.passed
        assert cert.max_violation < -9e-4
        assert _certificate_bits(cert) == _whole_bits(loss, 1.0, 0.75, step=step)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_a_nan_in_psi_prime_fails_the_certificate(self, monkeypatch, block):
        # the NaN sits in a middle block; Python's min would drop it there
        base = make_loss("conj", "exp")
        loss = SelfTrainingLoss(
            LabelRule.CONJ, LossFamily.EXP, base.psi,
            lambda u: base.dpsi(u) + np.where(np.abs(np.asarray(u) - 300.0) < 0.1, np.nan, 0.0),
            base.ddpsi, ClubParams(L=1.0, a_min=0.75))
        monkeypatch.setattr(analysis, "_BLOCK", block)
        cert = verify_club(loss, 1.0, 0.75, step=0.125)
        assert math.isnan(cert.max_violation) and not cert.passed
        assert _certificate_bits(cert) == _whole_bits(loss, 1.0, 0.75, step=0.125)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_a_nan_in_psi_fails_evenness(self, monkeypatch, block):
        """psi is NaN within 1/16 of u = 300, at one node of the walk, in a
        middle block; a fold of the per-block errors that drops NaN (np.fmax)
        would certify it even."""
        base = make_loss("conj", "exp")
        loss = SelfTrainingLoss(
            LabelRule.CONJ, LossFamily.EXP,
            lambda u: base.psi(u) + np.where(np.abs(np.asarray(u) - 300.0) < 0.0625, np.nan, 0.0),
            base.dpsi, base.ddpsi, ClubParams(L=1.0, a_min=0.75))
        monkeypatch.setattr(analysis, "_BLOCK", block)
        cert = verify_club(loss, 1.0, 0.75, step=0.125)
        assert not cert.evenness_passed and not cert.passed
        assert cert.max_violation >= -1e-12  # the tail bound itself holds
        assert _certificate_bits(cert) == _whole_bits(loss, 1.0, 0.75, step=0.125)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_an_odd_part_below_a_min_fails_evenness(self, monkeypatch, block):
        """psi gets +1e-6 only on 0.1 < u < 0.2, below a_min = 0.75: the walk
        starts at the origin, not at a_min."""
        base = make_loss("conj", "exp")
        loss = SelfTrainingLoss(
            LabelRule.CONJ, LossFamily.EXP,
            lambda u: base.psi(u) + np.where((0.1 < np.asarray(u)) & (np.asarray(u) < 0.2),
                                             1e-6, 0.0),
            base.dpsi, base.ddpsi, ClubParams(L=1.0, a_min=0.75))
        monkeypatch.setattr(analysis, "_BLOCK", block)
        cert = verify_club(loss, 1.0, 0.75, step=0.125)
        assert not cert.evenness_passed and not cert.passed
        assert _certificate_bits(cert) == _whole_bits(loss, 1.0, 0.75, step=0.125)

    @pytest.mark.parametrize("block,step,below,tail", [
        (1, 0.125, 6, 5595),
        (7, 0.125, 6, 5595),
        (4096, 0.125, 6, 5595),
        (4096, 1e-3, 750, 699251),  # the default certificate
    ])
    def test_psi_sees_each_node_pair_once(self, monkeypatch, block, step, below, tail):
        """The conj+exp certificate (a_min = 0.75, cap 700) walks `below` nodes
        under a_min, the origin included, and `tail` nodes from a_min: psi is
        evaluated at u and -u for each, psi' at each tail node."""
        monkeypatch.setattr(analysis, "_BLOCK", block)
        seen = {"psi": [], "dpsi": []}
        verify_club(_recording(make_loss("conj", "exp"), seen), 1.0, 0.75, step=step)
        assert sum(u.size for u in seen["psi"]) == 2 * (below + tail)
        assert sum(u.size for u in seen["dpsi"]) == tail

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_a_late_log_bound_violation_is_found(self, monkeypatch, block):
        monkeypatch.setattr(analysis, "_BLOCK", block)
        T = 3 * 4096 + 1
        t = np.arange(1, T + 1)
        seq = 1.0 + np.log(np.maximum(t - 1, 1)) / 2.0
        seq[T - 4] = 0.5  # t = T - 3, the only violation, in the last block at 4096
        for tau in (0.0, 5.5, 4096.0):
            got = _check_log_bound(seq, 1.0, 1.0, tau, T)
            assert got == _whole_check_log_bound(seq, 1.0, 1.0, tau, T)
            assert got[:2] == (False, T - 3)

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_nan_slack_is_skipped_by_the_log_bound(self, monkeypatch, block):
        """NaN r_t in earlier blocks and in the block of the only violation, on
        both sides of it: neither the minimum nor the first violation sees them."""
        monkeypatch.setattr(analysis, "_BLOCK", block)
        T = 3 * 4096 + 1
        t = np.arange(1, T + 1)
        seq = 1.0 + np.log(np.maximum(t - 1, 1)) / 2.0
        seq[T - 4] = 0.5  # t = T - 3, the only violation, in the last block at 4096
        seq[[99, 4999, T - 7, T - 2]] = np.nan  # t = 100, 5000, T - 6 and T - 1
        for tau in (0.0, 5.5, 4096.0):
            got = _check_log_bound(seq, 1.0, 1.0, tau, T)
            assert got == _whole_check_log_bound(seq, 1.0, 1.0, tau, T)
            assert got == _loop_log_bound(seq, 1.0, 1.0, tau, T)
            assert got[:2] == (False, T - 3) and got[2] < 0.0

    @pytest.mark.parametrize("block", [7, 4096])
    def test_log_bound_of_recursion_runs_equals_the_whole_array_check(self, monkeypatch,
                                                                       block):
        monkeypatch.setattr(analysis, "_BLOCK", block)
        for c, L in ((0.1, 0.2), (1.0, 1.0), (10.0, 1.0 / math.e - 1e-3)):
            for T in (2 * block, 2 * block + 1, 10**4):
                seq, report = recursion_bound_run(1.0, c, L, T)
                for tau in (0.0, report.tau_star):
                    assert _check_log_bound(seq, c, L, tau, T) == \
                        _whole_check_log_bound(seq, c, L, tau, T)


class TestMemory:
    def test_club_certificate_is_blocked(self):
        # the whole-array check peaked at 75 MB
        loss = make_loss("conj", "exp")
        assert _peak_bytes(lambda: verify_club(loss, 1.0, 0.75)) < 4 * 2**20

    def test_recursion_run_holds_little_beyond_its_sequence(self):
        # the 8 MB sequence plus the blocks; the per-step setitem loop and
        # whole-array check peaked at 31 MB
        assert _peak_bytes(lambda: recursion_bound_run(1.0, 1.0, 1.0, 10**6)) < 10 * 2**20


class TestVerifyClub:
    @pytest.mark.parametrize("loss_id,L,a_min", [
        (("hard", "exp"), 1.0, 0.0),
        (("hard", "logistic"), 2.0, 0.0),
        (("conj", "exp"), 1.0, 0.75),
        (("conj", "logistic"), 2.0, 0.5),
    ])
    def test_certified_pairs_pass(self, loss_id, L, a_min):
        cert = verify_club(make_loss(*loss_id), L, a_min)
        assert cert.passed
        assert cert.evenness_passed
        assert cert.max_violation >= -1e-12

    def test_hard_exp_fails_with_smaller_exponent(self):
        # exp(-a) < exp(-a/2) for a > 0, so L = 0.5 is certifiably wrong
        cert = verify_club(make_loss("hard", "exp"), 0.5, 0.0, a_max=50.0)
        assert not cert.passed
        assert cert.max_violation < -1e-3

    def test_hard_exp_passes_for_larger_exponents(self):
        for L in (1.0, 1.5):
            cert = verify_club(make_loss("hard", "exp"), L, 0.0, a_max=50.0)
            assert cert.passed

    def test_grid_is_capped_at_underflow(self):
        cert = verify_club(make_loss("hard", "exp"), 1.0, 0.0, a_max=5000.0)
        assert cert.a_max == pytest.approx(700.0)

    def test_certificate_invariant(self):
        for loss in (make_loss("conj", "exp"), make_loss("hard", "logistic")):
            for L in (0.5, 1.0, 2.0, 3.0):
                cert = verify_club(loss, L, loss.club.a_min, a_max=60.0)
                if cert.passed:
                    assert cert.max_violation >= -1e-12 and cert.evenness_passed

    def test_a_min_at_the_cap_is_a_one_node_tail(self):
        seen = {"psi": [], "dpsi": []}
        cert = verify_club(_recording(make_loss("hard", "exp"), seen), 1.0, 700.0, step=0.5)
        assert cert.a_max == cert.a_min == 700.0
        assert np.array_equal(np.concatenate(seen["dpsi"]), [700.0])
        assert cert.passed

    def test_validates_grid_arguments(self):
        loss = make_loss("conj", "exp")
        with pytest.raises(ValueError):
            verify_club(loss, 1.0, 2.0, a_max=1.0)
        with pytest.raises(ValueError):
            verify_club(loss, 1.0, 0.0, step=0.0)


class TestTailRateCurve:
    def test_hard_exp_is_constant_one(self):
        z = np.linspace(0.1, 500.0, 5000)
        curve = tail_rate_curve(make_loss("hard", "exp"), z)
        assert curve.skipped.size == 0
        np.testing.assert_allclose(curve.rate, 1.0, rtol=0, atol=1e-12)

    def test_hard_logistic_approaches_two(self):
        loss = make_loss("hard", "logistic")
        curve = tail_rate_curve(loss, np.array([10.0]))
        # closed form: (2z - log 2 + log(1 + e^{-2z})) / z at z = 10
        expected = (20.0 - math.log(2.0) + math.log1p(math.exp(-20.0))) / 10.0
        assert curve.rate[0] == pytest.approx(expected, rel=1e-12)
        assert abs(curve.rate[0] - 2.0) <= 0.07

    @pytest.mark.parametrize("family", ["exp", "logistic"])
    def test_conjugate_curve_drops_below_hard_curve(self, family):
        """Beyond a numerically located threshold the conjugate loss has the
        smaller pointwise tail exponent."""
        z = np.linspace(0.05, 30.0, 600)
        hard = tail_rate_curve(make_loss("hard", family), z).rate
        conj = tail_rate_curve(make_loss("conj", family), z).rate
        below = conj < hard
        assert below[-1], "conjugate curve should end below the hard curve"
        z_min_idx = np.argmax(below)
        assert z_min_idx > 0, "curves should cross at a positive threshold"
        assert np.all(below[z_min_idx:])

    def test_nonpositive_slopes_are_flagged(self):
        # hard square: -psi'(z) = 1 - z, nonpositive from z = 1 on
        curve = tail_rate_curve(make_loss("hard", "square"), np.array([0.5, 1.0, 2.0]))
        np.testing.assert_array_equal(curve.skipped, [1.0, 2.0])
        assert curve.rate[0] == pytest.approx(-math.log(0.5) / 0.5)

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(ValueError):
            tail_rate_curve(make_loss("conj", "exp"), np.array([0.0, 1.0]))


class TestNuStar:
    def test_no_fixed_point_at_or_above_one_over_e(self):
        for L in (1 / math.e, 0.5, 1.0, 2.0):
            assert nu_star_upper(L) is None

    def test_small_exponent_fixed_point(self):
        """The smaller root nu1, from the oracle: the burn-in constant of the
        counterexample below, and distinct from nu_star_upper's root."""
        nu = _fixed_point(0.2, 0.0, 1.0 / 0.2)
        assert nu == pytest.approx(1.2958555, abs=1e-6)
        assert abs(nu - math.exp(0.2 * nu)) <= 1e-10
        assert nu < 1.0 / 0.2 < nu_star_upper(0.2)

    def test_larger_fixed_point(self):
        nu2 = nu_star_upper(0.2)
        assert nu2 == pytest.approx(_larger_fixed_point(0.2), abs=1e-10)
        assert abs(nu2 - math.exp(0.2 * nu2)) <= 1e-9
        with pytest.raises(ValueError):
            nu_star_upper(0.0)

    def test_larger_fixed_point_small_exponent_terminates(self):
        # nu2 ~ 1.2e5 here, where float spacing exceeds the 1e-12 tolerance
        nu2 = nu_star_upper(1e-4)
        assert nu2 == pytest.approx(_larger_fixed_point(1e-4), rel=1e-12)
        assert _fixed_point(1e-4, 0.0, 1.0 / 1e-4) < math.e < nu2
        # nu2 ~ 7e302 at L = 1e-300 (exp(L v) overflows on the way) and
        # beyond the float range at L = 1e-310
        assert nu_star_upper(1e-300) == pytest.approx(6.9732e302, rel=1e-4)
        assert nu_star_upper(1e-310) == math.inf


class TestRecursionBound:
    def test_zero_gain_is_constant_and_vacuous(self):
        seq, report = recursion_bound_run(2.0, 0.0, 1.0, 100)
        np.testing.assert_array_equal(seq, 2.0)
        assert report.bound_holds and report.tau_star == 0.0

    def test_reference_case_holds(self):
        seq, report = recursion_bound_run(1.0, 1.0, 1.0, 10**5)
        assert report.tau_star == 0.0
        assert report.bound_holds
        assert report.first_violation_t is None

    def test_monotone_and_unbounded(self):
        for c in (0.1, 1.0, 10.0):
            seq, _ = recursion_bound_run(1.0, c, 1.0, 10**5)
            assert np.all(np.diff(seq) >= 0)
            assert seq[10**5 - 1] > seq[10**3 - 1] > seq[9]

    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("L", [0.2, 1.0, 2.0])
    def test_proof_chain_inequality(self, c, L):
        """exp(L r_t) r_t >= c (t - 1) at every simulated step."""
        seq, _ = recursion_bound_run(1.0, c, L, 10**5)
        t = np.arange(1, 10**5 + 1)
        assert np.all(np.exp(L * seq) * seq >= c * (t - 1) - 1e-9)

    def test_small_exponent_burn_in_constant(self):
        """tau* = nu2^2 / c from the larger fixed point nu2 of nu = exp(L nu)."""
        _, report = recursion_bound_run(1.0, 1.0, 0.2, 1000)
        nu2 = _larger_fixed_point(0.2)
        assert report.tau_star == pytest.approx(nu2**2, rel=1e-9)
        assert report.tau_star == pytest.approx(161.626, abs=1e-3)

    def test_shifted_bound_fails_for_small_exponent(self):
        """The shifted-index statement r_{t-ceil(tau)} >= log(c (t-1)) / (2L)
        is falsified by the equality dynamic when L = 0.2 with the burn-in
        tau = nu1^2/c from the smaller fixed point nu1 of nu = exp(L nu): that
        constant undercounts the iterations spent in the r >= exp(L r) regime,
        which only ends once r passes the larger fixed point, near 12.71.
        Just below L = 1/e the shifted form fails even with the burn-in
        nu2^2/c, so the index shift itself is wrong, not only the root.
        Frozen first-violation indices from the simulation; the program's
        own (unshifted, larger-root) check holds on the same sequences."""
        near = 1.0 / math.e - 1e-3
        cases = [
            (0.2, _fixed_point(0.2, 0.0, 1.0 / 0.2), {0.1: 18, 1.0: 3, 10.0: 2}),
            (near, _larger_fixed_point(near), {0.1: 87, 1.0: 10, 10.0: 2}),
        ]
        assert cases[0][1] == pytest.approx(1.2958555, abs=1e-6)
        for L, nu, expected_first in cases:
            for c, first in expected_first.items():
                seq, report = recursion_bound_run(1.0, c, L, 10**5)
                assert _first_shifted_violation(seq, c, L, nu**2 / c) == first
                assert report.bound_holds

    def test_unshifted_bound_with_larger_root_burn_in_holds(self):
        """The repaired statement: with the burn-in tau = nu2^2/c taken from
        the LARGER fixed point nu2 of nu = exp(L nu) and no index shift,
        r_t >= log(c (t-1)) / (2L) for all t > tau + 1, for the equality
        dynamic and the doubled-increment one alike."""
        L = 0.2
        f = lambda v: v - math.exp(L * v)
        lo, hi = 1.0 / L, 2.0 / L
        while f(hi) > 0:
            hi *= 2.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
        nu2 = 0.5 * (lo + hi)
        assert nu2 == pytest.approx(12.7132, abs=1e-3)
        for equality in (True, False):
            for c in (0.1, 1.0, 10.0):
                seq, report = recursion_bound_run(1.0, c, L, 10**5,
                                                  equality=equality)
                assert report.tau_star == pytest.approx(nu2**2 / c, rel=1e-9)
                assert report.bound_holds
                assert report.first_violation_t is None
                start = math.floor(nu2**2 / c + 1.0) + 1
                t = np.arange(start, 10**5 + 1)
                rhs = np.log(c * (t - 1)) / (2 * L)
                assert np.all(seq[t - 1] >= rhs)

    def test_vectorised_check_matches_the_loop(self):
        """Same (holds, first, min_slack), bit for bit, as the t-by-t loop at
        burn-in 0 (where the small-L sequences violate the bound) and at tau*."""
        near = 1.0 / math.e - 1e-3
        runs = [(1.0, c, L, 10**5) for L in (0.2, near) for c in (0.1, 1.0, 10.0)]
        runs.append((1.0, 1.0, 1.0, 10**6))
        violated = 0
        for r1, c, L, T in runs:
            seq, report = recursion_bound_run(r1, c, L, T)
            for tau in (0.0, report.tau_star):
                got = _check_log_bound(seq, c, L, tau, T)
                assert got == _loop_log_bound(seq, c, L, tau, T)
                violated += got[1] is not None
        assert violated > 0

    @pytest.mark.parametrize("T", [1, 2, 3, 10**5, 10**5 + 1])
    @pytest.mark.parametrize("equality", [True, False])
    @pytest.mark.parametrize("c", [0.0, 0.3, 1.0])
    def test_sequence_matches_a_plain_loop(self, T, equality, c):
        """T - 1 = 0, odd and even: the recursion's two-step passes, with and
        without a trailing step, match a loop taking one step at a time."""
        seq, _ = recursion_bound_run(1.0, c, 0.7, T, equality=equality)
        assert np.array_equal(seq, _loop_recursion(1.0, c, 0.7, T, 1.0 if equality else 2.0))

    def test_strict_inequality_instance_also_holds(self):
        # doubled increments: a representative strictly-greater dynamic
        _, report = recursion_bound_run(1.0, 1.0, 1.0, 10**4, equality=False)
        assert report.bound_holds

    def test_a_product_c_t_past_the_float_range_is_no_violation(self):
        # c (t - 1) overflows at t = 3, where the bound log(c (t-1)) / (2 L) is
        # ~3.5e5 while r_3 ~ 1e308; the product's inf used to read as a violation
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq, report = recursion_bound_run(1.0, 1e308, 1e-3, 10)
        assert seq[2] > 9.9e307
        assert report.bound_holds and report.first_violation_t is None

    def test_validates_inputs(self):
        with pytest.raises(ValueError):
            recursion_bound_run(0.0, 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            recursion_bound_run(1.0, -1.0, 1.0, 10)


class TestLogRateCheck:
    def test_conj_exp_bound_holds_everywhere(self):
        report = log_rate_check(make_loss("conj", "exp"), a1=1.0, b1=1.0,
                                  eta=1.0, mu_norm=1.0, T=10**4)
        assert report.bound_holds
        assert report.first_violation_t is None
        assert report.min_slack >= 0.0
        assert report.tau_star == 0.0  # exponent L b1 = 1 >= 1/e

    def test_hard_exp_accepts_any_nonnegative_start(self):
        report = log_rate_check(make_loss("hard", "exp"), a1=0.1, b1=1.0,
                                  eta=1.0, mu_norm=1.0, T=2000)
        assert report.bound_holds

    def test_small_exponent_holds_past_larger_root_burn_in(self):
        # b1 = 0.2: exponent L b1 = 0.2 < 1/e and c = eta ||mu||^2 / b1 = 5
        report = log_rate_check(make_loss("hard", "exp"), a1=0.6, b1=0.2,
                                  eta=1.0, mu_norm=1.0, T=10**4)
        assert report.exponent == 0.2 and report.c == 5.0
        assert report.tau_star == pytest.approx(
            _larger_fixed_point(0.2) ** 2 / 5.0, rel=1e-9)
        assert report.tau_star == pytest.approx(32.325, abs=1e-3)
        assert report.bound_holds
        assert report.first_violation_t is None
        assert report.min_slack >= 0.0

    def test_a_product_c_t_past_the_float_range_is_no_violation(self):
        # c = eta ||mu||^2 / b1 = 1e305: c (t - 1) overflows from t ~ 1800 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = log_rate_check(make_loss("conj", "exp"), a1=1.0, b1=1e-5,
                                    eta=1e300, mu_norm=1.0, T=10**4)
        assert report.c == 1e305
        assert report.bound_holds and report.first_violation_t is None
        assert 0.0 <= report.min_slack < math.inf

    def test_start_below_threshold_rejected(self):
        with pytest.raises(ValueError):
            log_rate_check(make_loss("conj", "exp"), a1=0.5, b1=1.0,
                             eta=1.0, mu_norm=1.0, T=100)

    def test_square_losses_carry_no_certificate(self):
        with pytest.raises(ValueError):
            log_rate_check(make_loss("conj", "square"), a1=1.0, b1=1.0,
                             eta=1.0, mu_norm=1.0, T=100)


class TestSteinIdentity:
    def test_conj_logistic_passes_at_scale(self):
        report = stein_identity_check(make_loss("conj", "logistic"),
                                      m=1.0, s=1.0, n=10**6, seed=11)
        assert report.passed
        assert abs(report.lhs - report.rhs) <= 3 * (report.stderr_lhs + report.stderr_rhs)

    def test_conj_exp_wide_scale(self):
        report = stein_identity_check(make_loss("conj", "exp"),
                                      m=0.0, s=2.0, n=10**6, seed=13)
        assert report.passed
        assert math.isfinite(report.lhs) and math.isfinite(report.rhs)

    def test_linear_slope_recovers_minus_s(self):
        # conj square: E[Z (-(m + s Z))] = -s and s E[-1] = -s
        report = stein_identity_check(make_loss("conj", "square"),
                                      m=0.7, s=1.5, n=10**6, seed=17)
        assert report.lhs == pytest.approx(-1.5, abs=0.01)
        assert report.rhs == -1.5
        assert report.passed

    def test_hard_losses_rejected(self):
        for family in ("square", "logistic", "exp"):
            with pytest.raises(UnsupportedLossError):
                stein_identity_check(make_loss("hard", family), 0.0, 1.0, 100)


class TestReportSerialization:
    def test_text_records_are_key_value_lines(self):
        cert = verify_club(make_loss("conj", "exp"), 1.0, 0.75, a_max=10.0)
        text = record_text(cert)
        lines = text.strip().splitlines()
        assert "rule = conj" in lines
        assert any(line.startswith("max_violation = ") for line in lines)

    def test_a_record_leaves_out_its_array_fields(self):
        # z, rate and skipped are arrays: the record keeps the rule and family only
        curve = tail_rate_curve(make_loss("hard", "square"), np.array([0.5, 1.0, 2.0]))
        assert curve.skipped.size == 2
        assert record_text(curve) == "rule = hard\nfamily = square\n"
