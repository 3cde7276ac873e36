"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they execute.
"""

import itertools
import math
import time

import numpy as np

from ttalab import (
    ExperimentConfig,
    GaussianModel,
    Mode,
    build_benchmark_domains,
    conj_square_ratio_closed_form,
    epsilon_iteration_bound,
    expectation_terms,
    gauss_upper_tail,
    is_epsilon_optimal,
    recursion_bound_run,
    make_loss,
    log_rate_check,
    population_step,
    reproduce_figure,
    run_population,
    stein_identity_check,
    verify_club,
    zero_one_loss,
)
from ttalab.cli import main


def check(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {num:02d}] {status} - {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


def population_config(a1, b1, mu_norm, sigma, loss, eta, horizon):
    model = GaussianModel(mu=np.array([mu_norm, 0.0]), sigma=sigma)
    w = np.array([a1 / mu_norm, b1])
    return ExperimentConfig(model=model, loss=loss, eta=eta,
                            mode=Mode.POPULATION, horizon=horizon, seed=0,
                            w_init=w)


RATIO_GRID = list(itertools.product((0.1, 1.0, 5.0),      # eta
                                    (0.0, 0.5, 2.0),      # sigma
                                    (1.0, 2.0),           # ||mu||
                                    (0.5, 2.0)))          # r1


def test_criterion_01_ratio_growth_exactness():
    """Conjugate-square population ratio matches the closed form to 1e-10
    relative over 60 steps across a 3x3x2x2 parameter grid, in under 1 s."""
    loss = make_loss("conj", "square")
    start = time.perf_counter()
    worst = 0.0
    for eta, sigma, mu_norm, r1 in RATIO_GRID:
        config = population_config(r1, 1.0, mu_norm, sigma, loss, eta, horizon=60)
        for t, r in enumerate(run_population(config).r.tolist()):
            expected = conj_square_ratio_closed_form(r1, eta, mu_norm, sigma, t)
            worst = max(worst, abs(r - expected) / abs(expected))
    elapsed = time.perf_counter() - start
    check(1, "conjugate-square ratio matches closed form (rel <= 1e-10, < 1 s)",
          worst <= 1e-10 and elapsed < 1.0,
          f"worst rel err {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_iteration_bound():
    """First eps-optimal iteration is at most the closed-form bound + 1 for
    eps in {1e-1, 1e-2, 1e-3} over the criterion-1 grid."""
    loss = make_loss("conj", "square")
    epsilons = (1e-1, 1e-2, 1e-3)
    ok = True
    worst_gap = -math.inf
    for eta, sigma, mu_norm, r1 in RATIO_GRID:
        bounds = {eps: epsilon_iteration_bound(eps, r1, eta, mu_norm, sigma)
                  for eps in epsilons}
        horizon = max(bounds.values()) + 2
        config = population_config(r1, 1.0, mu_norm, sigma, loss, eta, horizon)
        run = run_population(config)
        for eps, bound in bounds.items():
            optimal = is_epsilon_optimal(run.a, run.b, config.model, eps)
            first = np.flatnonzero(optimal)[0] + 1  # the first eps-optimal point's t
            ok = ok and first <= bound + 1
            worst_gap = max(worst_gap, first - (bound + 1))
    check(2, "simulation reaches eps-optimality within the bound + 1",
          ok, f"worst first-vs-bound gap {worst_gap}")


def test_criterion_03_hard_square_small_step_plateau():
    """Hard square, sigma = 0, eta = 0.5/||mu||^2, b1 = 1, a_bar1 = 0.3:
    a_bar converges to 1/||mu|| (1e-6 by t = 100), cos^2 converges to
    (1/||mu||^2)/((1/||mu||^2) + 1) within 1e-9, and the run is never
    eps-optimal below the induced gap."""
    loss = make_loss("hard", "square")
    ok = True
    details = []
    for mu_norm in (1.0, 1.7):
        config = population_config(0.3 * mu_norm, 1.0, mu_norm, 0.0, loss,
                                   eta=0.5 / mu_norm**2, horizon=100)
        run = run_population(config)
        a_bar_err = abs(run.a[99] / mu_norm - 1.0 / mu_norm)  # point t = 100
        cos2_limit = (1 / mu_norm**2) / (1 / mu_norm**2 + 1.0)
        cos2_err = abs(run.cos[-1]**2 - cos2_limit)
        gap = 1.0 - cos2_limit
        never_optimal = not is_epsilon_optimal(run.a, run.b, config.model, 0.5 * gap).any()
        ok = ok and a_bar_err <= 1e-6 and cos2_err <= 1e-9 and never_optimal
        details.append(f"mu={mu_norm}: a_bar err {a_bar_err:.1e}, cos2 err {cos2_err:.1e}")
    check(3, "hard-square small-step run plateaus below optimality",
          ok, "; ".join(details))


def test_criterion_04_hard_square_large_step_oscillation():
    """eta = 3, ||mu|| = 1, a_bar1 = 4: |a_bar| strictly increases and the
    sign alternates for 20 consecutive noiseless population steps (at
    sigma = 0, a = a_bar since ||mu|| = 1)."""
    loss, model = make_loss("hard", "square"), GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.0)
    a = 4.0
    ok = True
    for _ in range(20):
        nxt, _, _ = population_step(a, 1.0, loss, model, 3.0)
        ok = ok and abs(nxt) > abs(a) and math.copysign(1, nxt) == -math.copysign(1, a)
        a = nxt
    check(4, "hard-square large-step magnitudes grow with alternating sign", ok)


def test_criterion_05_tail_bound_certificates():
    """All four certified losses pass their grid certificates at step 1e-3 up
    to the underflow cap; hard+exp fails with L = 0.5.  Under 5 s."""
    start = time.perf_counter()
    pairs = [(("hard", "exp"), 1.0, 0.0), (("hard", "logistic"), 2.0, 0.0),
             (("conj", "exp"), 1.0, 0.75), (("conj", "logistic"), 2.0, 0.5)]
    all_pass = all(verify_club(make_loss(*ident), L, a_min, step=1e-3).passed
                   for ident, L, a_min in pairs)
    sharp = not verify_club(make_loss("hard", "exp"), 0.5, 0.0, step=1e-3).passed
    elapsed = time.perf_counter() - start
    check(5, "tail-bound certificates pass (and L = 0.5 is rejected) in < 5 s",
          all_pass and sharp and elapsed < 5.0, f"{elapsed:.2f} s")


def test_criterion_06_recursion_shifted_log_bound():
    """Equality dynamic must satisfy r_t >= log(c(t-1))/(2L) for every
    t > tau* + 1 up to 1e5 over (c, L) in {0.1, 1, 10} x {0.2, 1, 2}, with
    burn-in tau* = nu2^2/c from the larger fixed point nu2 of nu = exp(L nu)
    (tau* = 0 when L >= 1/e).

    The test name records the shifted form r_{t-ceil(tau*)} with the smaller
    fixed point, which the equality dynamic refutes at L = 0.2 (first
    violations t = 18, 3, 2, pinned in test_analysis.py).  The three-step
    proof in recursion_bound_run's docstring supports the unshifted form
    checked here; at L = 0.2 the burn-in is 1617, 162 and 17 steps.
    """
    failures = []
    for c in (0.1, 1.0, 10.0):
        for L in (0.2, 1.0, 2.0):
            _, report = recursion_bound_run(1.0, c, L, 10**5)
            if not report.bound_holds:
                failures.append(f"(c={c}, L={L}) first violation t={report.first_violation_t}")
    check(6, "recursion log bound holds past the larger-root burn-in on the full (c, L) grid",
          not failures, "; ".join(failures))


def test_criterion_07_explicit_constant_rate_bound():
    """For each certified loss with a1 = max(a_min, 0.1) + 0.5, b1 = 1,
    eta = 1, ||mu|| = 1: the noiseless population run satisfies
    r_t >= log(eta ||mu||^2 (t-1) / b1) / (2 L b1) for 2 <= t <= 1e4."""
    ok = True
    details = []
    for ident in (("hard", "exp"), ("hard", "logistic"),
                  ("conj", "exp"), ("conj", "logistic")):
        loss = make_loss(*ident)
        a1 = max(loss.club.a_min, 0.1) + 0.5
        report = log_rate_check(loss, a1=a1, b1=1.0, eta=1.0, mu_norm=1.0,
                                  T=10**4)
        ok = ok and report.bound_holds and report.tau_star == 0.0
        details.append(f"{loss.name}: slack {report.min_slack:.3f}")
    check(7, "explicit-constant logarithmic rate bound holds for all four losses",
          ok, "; ".join(details))


def test_criterion_08_benchmark_constants():
    """Benchmark construction yields initial loss 0.2 +- 1e-3 and best
    achievable error 0.1 +- 1e-3 for d in {2, 10, 100}."""
    ok = True
    for d in (2, 10, 100):
        _, mu_t, sigma_t, w_init = build_benchmark_domains(d, seed=d)
        model = GaussianModel(mu=mu_t, sigma=sigma_t)
        initial = zero_one_loss(model, w_init)
        best = gauss_upper_tail(model.mu_norm / sigma_t)
        ok = ok and abs(initial - 0.2) <= 1e-3 and abs(best - 0.1) <= 1e-3
    check(8, "benchmark operating point is 0.2 initial / 0.1 best error", ok)


def test_criterion_09_quadrature_and_identity_checks():
    """Quadrature expectations match a 1e6-sample Monte Carlo oracle within
    max(1e-4, 3 SE) for every conjugate loss on (m, s) in {0,1,2} x
    {0.5,1,2}; the integration-by-parts identity passes on the same grid.
    Under 30 s."""
    start = time.perf_counter()
    ok = True
    worst = 0.0
    seed = itertools.count(1000)
    for family in ("square", "logistic", "exp"):
        loss = make_loss("conj", family)
        for m in (0.0, 1.0, 2.0):
            for s in (0.5, 1.0, 2.0):
                # realize Z ~ N(m, s^2) through the public (a, b, model) surface
                if m == 0.0:
                    a, b, model = 0.0, 1.0, GaussianModel(np.array([1.0, 0.0]), s)
                else:
                    a, b, model = m, 0.0, GaussianModel(np.array([1.0, 0.0]), s / m)
                e1, e2, _ = expectation_terms(loss, a, b, model)
                rng = np.random.default_rng(next(seed))
                u = m + s * rng.standard_normal(10**6)
                for estimate, samples in ((e1, np.asarray(loss.dpsi(u))),
                                          (e2, np.asarray(loss.ddpsi(u)))):
                    mc = float(samples.mean())
                    se = float(samples.std(ddof=1)) / 1000.0
                    err = abs(estimate - mc)
                    ok = ok and err <= max(1e-4, 3 * se)
                    worst = max(worst, err - max(1e-4, 3 * se))
                report = stein_identity_check(loss, m, s, 10**6, seed=next(seed))
                ok = ok and report.passed
    elapsed = time.perf_counter() - start
    check(9, "quadrature matches Monte Carlo and the identity check passes (< 30 s)",
          ok and elapsed < 30.0, f"worst excess {worst:.2e}, {elapsed:.1f} s")


def test_criterion_10_noisy_benchmark_ordering(tmp_path):
    """Benchmark defaults (d=10, batch=32, T=500, 10 seeds): mean final 0-1
    loss of the conjugate method is at most the hard method's within two seed
    standard deviations, for both families, and both conjugate curves end
    within 0.05 of the 0.1 best-error line.  Stochastic criterion."""
    ok = True
    details = []
    for fig in ("fig4-exp", "fig4-logistic"):
        family = fig.split("-")[1]
        result = reproduce_figure(fig, seed=0, out_dir=tmp_path / fig)
        conj = result.summary[f"conj+{family}"]
        hard = result.summary[f"hard+{family}"]
        spread = math.hypot(conj["std_final_loss01"], hard["std_final_loss01"])
        ordered = (conj["mean_final_loss01"]
                   <= hard["mean_final_loss01"] + 2 * spread)
        near_best = abs(conj["mean_final_loss01"] - 0.1) <= 0.05
        ok = ok and ordered and near_best
        details.append(f"{family}: conj {conj['mean_final_loss01']:.4f} vs "
                       f"hard {hard['mean_final_loss01']:.4f}")
    check(10, "conjugate labels match or beat hard labels on the noisy benchmark",
          ok, "; ".join(details))


def test_criterion_11_byte_identical_reruns(tmp_path):
    """Running the same config twice produces byte-identical trajectory CSV."""
    import json

    config = {
        "model.mu": [0.6567, 0.3, -0.2], "model.sigma": 0.78, "model.dim": 3,
        "loss.rule": "conj", "loss.family": "logistic",
        "run.mode": "stochastic", "run.eta": 0.5, "run.batch": 16,
        "run.horizon": 40, "run.seed": 2024, "init.w": [1.0, 0.0, 0.0],
    }
    path = tmp_path / "determinism.json"
    path.write_text(json.dumps(config))
    assert main(["run", str(path), "--out", str(tmp_path / "first")]) == 0
    assert main(["run", str(path), "--out", str(tmp_path / "second")]) == 0
    first = (tmp_path / "first" / "determinism.trajectory.csv").read_bytes()
    second = (tmp_path / "second" / "determinism.trajectory.csv").read_bytes()
    check(11, "identical config and seed produce byte-identical CSV",
          first == second)
