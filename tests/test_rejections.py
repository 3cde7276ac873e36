"""Input rejections in every layer: the exception type and how its message starts.

Each table row calls one public function with one bad input.  Config-file rows
also check that the message starts with the key it names.
"""

import json
import math
import reprlib

import numpy as np
import pytest

from ttalab import (
    ConfigError,
    ExperimentConfig,
    GaussianModel,
    Mode,
    build_benchmark_domains,
    conj_square_ratio_closed_form,
    epsilon_iteration_bound,
    expectation_terms,
    log_rate_check,
    make_loss,
    nu_star_upper,
    parse_config_file,
    parse_loss_id,
    recursion_bound_run,
    run_population,
    run_stochastic,
    stein_identity_check,
    step_size_sweep,
    tail_rate_curve,
    verify_club,
    zero_one_loss,
)
from ttalab.dynamics import stochastic_sweep
from ttalab.serialize import csv_with_meta_text, read_csv_with_meta, svg_line_chart

MODEL = GaussianModel(mu=np.array([1.0, 0.0]), sigma=0.5)
CONJ_EXP = make_loss("conj", "exp")
HARD_EXP = make_loss("hard", "exp")
HARD_LOGISTIC = make_loss("hard", "logistic")


def config(**overrides) -> ExperimentConfig:
    fields = dict(model=MODEL, loss=CONJ_EXP, eta=0.1, mode=Mode.STOCHASTIC, horizon=3,
                  seed=0, w_init=np.array([1.0, 1.0]), batch_size=4)
    fields.update(overrides)
    return ExperimentConfig(**fields)


REJECTIONS = [
    # analysis
    pytest.param(lambda: verify_club(CONJ_EXP, 0.0, 0.75), "L must be positive",
                 id="verify_club-L"),
    pytest.param(lambda: verify_club(CONJ_EXP, 1.0, -1.0), "a_min must be non-negative",
                 id="verify_club-a_min"),
    pytest.param(lambda: verify_club(CONJ_EXP, 10.0, 100.0), "a_min = 100.0 is past the "
                 "underflow cap 700/L = 70.0", id="verify_club-a_min-past-cap"),
    pytest.param(lambda: verify_club(CONJ_EXP, 1.0, math.nextafter(700.0, math.inf)),
                 "a_min = 700.0000000000001 is past the underflow cap 700/L = 700.0",
                 id="verify_club-a_min-just-past-cap"),
    pytest.param(lambda: verify_club(CONJ_EXP, 1.0, 0.75, step=1e-310),
                 "step = 1e-310 is too small for a_max = 700.0", id="verify_club-tiny-step"),
    pytest.param(lambda: verify_club(CONJ_EXP, 1.0, 0.0, step=1e-310),
                 "step = 1e-310 is too small for a_max = 700.0",
                 id="verify_club-tiny-step-from-0"),
    pytest.param(lambda: tail_rate_curve(CONJ_EXP, np.array([0.0, 1.0])),
                 "z grid must be strictly positive", id="tail_rate-zero-z"),
    pytest.param(lambda: tail_rate_curve(CONJ_EXP, np.array([math.nan, 1.0])),
                 "z grid must be strictly positive", id="tail_rate-nan-z"),
    pytest.param(lambda: tail_rate_curve(CONJ_EXP, np.array([math.inf, 1.0])),
                 "z grid must be finite", id="tail_rate-inf-z"),
    pytest.param(lambda: nu_star_upper(0.0), "L must be positive", id="nu_star_upper-L"),
    pytest.param(lambda: recursion_bound_run(1.0, 1.0, 0.0, 10), "L must be positive",
                 id="recursion-L"),
    pytest.param(lambda: recursion_bound_run(1.0, 1.0, 1.0, 0), "T must be >= 1",
                 id="recursion-T"),
    pytest.param(lambda: log_rate_check(HARD_EXP, 1.0, 0.0, 1.0, 1.0, 10),
                 "b1 must be positive", id="log_rate-b1"),
    pytest.param(lambda: log_rate_check(HARD_EXP, 1.0, 1.0, 1.0, 1.0, 0), "T must be >= 1",
                 id="log_rate-T"),
    pytest.param(lambda: stein_identity_check(CONJ_EXP, 0.0, 0.0, 10), "s must be positive",
                 id="stein-s"),
    pytest.param(lambda: stein_identity_check(CONJ_EXP, 0.0, 1.0, 1), "n must be >= 2",
                 id="stein-n"),
    # dynamics
    pytest.param(lambda: config(horizon=0), "horizon must be >= 1", id="config-horizon"),
    pytest.param(lambda: config(batch_size=0), "batch must be >= 1", id="config-batch"),
    pytest.param(lambda: config(mode="bad"),
                 "mode must be 'stochastic' or 'population', got 'bad'", id="config-mode"),
    pytest.param(lambda: config(w_init=np.zeros(2)), "w must be a nonzero vector",
                 id="config-zero-w"),
    pytest.param(lambda: run_stochastic(config(mode=Mode.POPULATION)),
                 "config.mode is population, expected stochastic", id="stochastic-mode"),
    pytest.param(lambda: run_population(config()),
                 "config.mode is stochastic, expected population", id="population-mode"),
    pytest.param(lambda: expectation_terms(CONJ_EXP, 1.0, -1.0, MODEL),
                 "b must be non-negative", id="expectation-b"),
    pytest.param(lambda: conj_square_ratio_closed_form(1.0, 1.0, 1.0, 0.5, -1),
                 "t must be a non-negative integer", id="closed_form-t"),
    pytest.param(lambda: epsilon_iteration_bound(0.0, 1.0, 1.0, 1.0, 0.5),
                 "eps must lie in (0, 1)", id="iteration_bound-eps"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 0.0, 1.0, 1.0, 0.5),
                 "r1 must be positive", id="iteration_bound-r1"),
    # model
    pytest.param(lambda: GaussianModel(mu=np.array([]), sigma=1.0),
                 "mu must have dimension >= 1", id="model-empty-mu"),
    pytest.param(lambda: GaussianModel(mu=np.array([math.inf, 0.0]), sigma=1.0),
                 "mu must be finite", id="model-non-finite-mu"),
    pytest.param(lambda: GaussianModel(mu=np.array([1.0, 0.0]), sigma=1e-320),
                 "sigma = 1e-320 is too small for mu: ||mu||/sigma overflows",
                 id="model-sigma-too-small"),
    # ||mu|| and sigma whose squares overflow: the runners take mu_norm**2 and sigma**2
    pytest.param(lambda: GaussianModel(mu=np.array([1e160, 0.0]), sigma=0.0),
                 "mu is too large: ||mu||**2 overflows", id="model-huge-mu-noiseless"),
    pytest.param(lambda: GaussianModel(mu=np.array([1e160, 0.0]), sigma=0.5),
                 "mu is too large: ||mu||**2 overflows", id="model-huge-mu"),
    pytest.param(lambda: GaussianModel(mu=np.array([1.0, 0.0]), sigma=1e160),
                 "sigma = 1e+160 is too large: sigma**2 overflows", id="model-huge-sigma"),
    pytest.param(lambda: zero_one_loss(MODEL, np.ones(3)),
                 "w has length 3 but the model dimension is 2", id="zero_one_loss-length"),
    # harness
    pytest.param(lambda: step_size_sweep(config(), [CONJ_EXP], [], 1),
                 "eta grid must be non-empty", id="sweep-no-eta"),
    pytest.param(lambda: step_size_sweep(config(), [CONJ_EXP], [0.1], 0),
                 "streams must be >= 1", id="sweep-no-stream"),
    pytest.param(lambda: step_size_sweep(config(), [], [0.1], 1),
                 "loss list must be non-empty", id="sweep-no-loss"),
    pytest.param(lambda: step_size_sweep(config(mode=Mode.POPULATION), [], [0.1], 1),
                 "loss list must be non-empty", id="sweep-population-no-loss"),
    pytest.param(lambda: stochastic_sweep(config(), [], [0.1], [0]),
                 "loss list must be non-empty", id="stochastic_sweep-no-loss"),
    pytest.param(lambda: stochastic_sweep(config(), [CONJ_EXP], [], [0]),
                 "eta grid must be non-empty", id="stochastic_sweep-no-eta"),
    pytest.param(lambda: stochastic_sweep(config(), [CONJ_EXP], [0.1], []),
                 "seed list must be non-empty", id="stochastic_sweep-no-seed"),
    # losses and presets
    pytest.param(lambda: parse_loss_id("hard"), "loss id must look like 'rule:family'",
                 id="loss-id"),
    pytest.param(lambda: build_benchmark_domains(4, seed=-1),
                 "seed must be a non-negative integer", id="domains-seed"),
    # numeric inputs that no run can mean: each is accepted, or fails with an
    # unnamed error, without the shared rules in ttalab.model
    pytest.param(lambda: log_rate_check(CONJ_EXP, 1.0, 1.0, -1.0, 1.0, 100),
                 "eta must be positive", id="log_rate-negative-eta"),
    pytest.param(lambda: log_rate_check(CONJ_EXP, 1.0, 1.0, 0.0, 1.0, 100),
                 "eta must be positive", id="log_rate-zero-eta"),
    pytest.param(lambda: log_rate_check(CONJ_EXP, 1.0, 1.0, math.nan, 1.0, 100),
                 "eta must be positive", id="log_rate-nan-eta"),
    pytest.param(lambda: log_rate_check(CONJ_EXP, math.nan, 1.0, 1.0, 1.0, 100),
                 "a1 must be non-negative", id="log_rate-nan-a1"),
    pytest.param(lambda: log_rate_check(CONJ_EXP, math.inf, 1.0, 1.0, 1.0, 100),
                 "a1 must be non-negative", id="log_rate-inf-a1"),
    pytest.param(lambda: log_rate_check(CONJ_EXP, 1.0, math.inf, 1.0, 1.0, 100),
                 "b1 must be positive", id="log_rate-inf-b1"),
    pytest.param(lambda: log_rate_check(CONJ_EXP, 1.0, 1.0, 1.0, -1.0, 100),
                 "mu_norm must be positive", id="log_rate-negative-mu_norm"),
    pytest.param(lambda: recursion_bound_run(1.0, math.nan, 1.0, 10),
                 "c must be non-negative", id="recursion-nan-c"),
    pytest.param(lambda: recursion_bound_run(math.inf, 1.0, 1.0, 10),
                 "r1 must be positive", id="recursion-inf-r1"),
    pytest.param(lambda: recursion_bound_run(1.0, 1.0, math.inf, 10),
                 "L must be positive", id="recursion-inf-L"),
    pytest.param(lambda: recursion_bound_run(1.0, 1.0, 1.0, 2.5), "T must be >= 1",
                 id="recursion-fractional-T"),
    pytest.param(lambda: recursion_bound_run(1.0, 1.0, 1.0, math.nan), "T must be >= 1",
                 id="recursion-nan-T"),
    pytest.param(lambda: recursion_bound_run(1.0, 1.0, 1.0, math.inf), "T must be >= 1",
                 id="recursion-inf-T"),
    pytest.param(lambda: nu_star_upper(math.inf), "L must be positive",
                 id="nu_star_upper-inf-L"),
    pytest.param(lambda: config(horizon=2.7), "horizon must be >= 1",
                 id="config-fractional-horizon"),
    pytest.param(lambda: config(seed=1.5), "seed must be a non-negative integer",
                 id="config-fractional-seed"),
    pytest.param(lambda: config(horizon=math.nan), "horizon must be >= 1",
                 id="config-nan-horizon"),
    pytest.param(lambda: config(horizon=math.inf), "horizon must be >= 1",
                 id="config-inf-horizon"),
    pytest.param(lambda: stein_identity_check(CONJ_EXP, 0.0, 1.0, 2.5), "n must be >= 2",
                 id="stein-fractional-n"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, 0.0, 1.0, 0.5),
                 "eta must be positive", id="iteration_bound-zero-eta"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, -0.5, 2.0, 0.5),
                 "eta must be positive", id="iteration_bound-negative-eta"),
    pytest.param(lambda: conj_square_ratio_closed_form(1.0, -1.0, 1.0, 1.0, 3),
                 "eta must be positive", id="closed_form-negative-eta"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, 1.0, 0.0, 1.0),
                 "mu_norm must be positive", id="iteration_bound-zero-mu_norm"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, 1.0, math.nan, 1.0),
                 "mu_norm must be positive", id="iteration_bound-nan-mu_norm"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, 1.0, 1.0, math.nan),
                 "sigma must be non-negative", id="iteration_bound-nan-sigma"),
    pytest.param(lambda: conj_square_ratio_closed_form(math.nan, 1.0, 1.0, 0.5, 3),
                 "r1 must be finite", id="closed_form-nan-r1"),
    pytest.param(lambda: conj_square_ratio_closed_form(math.inf, 1.0, 1.0, 0.5, 3),
                 "r1 must be finite", id="closed_form-inf-r1"),
    pytest.param(lambda: conj_square_ratio_closed_form(-math.inf, 1.0, 1.0, 0.5, 3),
                 "r1 must be finite", id="closed_form-negative-inf-r1"),
    # eta * mu_norm**2 = 1e-500 underflows to 0, so the growth factor is exactly 1
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1e-120, 1e-300, 1e-100, 0.0),
                 "increment = eta * mu_norm**2 / (1 + eta * sigma**2) = 0.0",
                 id="iteration_bound-zero-increment"),
    # squares past the float range: named rejections, not a bare OverflowError
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, 1.0, 1e200, 0.0),
                 "ratio = mu_norm**2 / (eps * r1**2) = inf", id="iteration_bound-inf-ratio"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1e-200, 1.0, 1.0, 0.0),
                 "ratio = mu_norm**2 / (eps * r1**2) = inf",
                 id="iteration_bound-underflowing-r1-squared"),
    pytest.param(lambda: epsilon_iteration_bound(0.1, 1.0, 1e300, 1e10, 0.0),
                 "increment = eta * mu_norm**2 / (1 + eta * sigma**2) = inf",
                 id="iteration_bound-inf-increment"),
    pytest.param(lambda: conj_square_ratio_closed_form(1.0, 1.0, 1e200, 1e200, 3),
                 "increment = eta * mu_norm**2 / (1 + eta * sigma**2) is inf / inf",
                 id="closed_form-inf-over-inf-increment"),
    pytest.param(lambda: conj_square_ratio_closed_form(1.0, 1.0, math.nan, 0.5, 3),
                 "mu_norm must be positive", id="closed_form-nan-mu_norm"),
    pytest.param(lambda: conj_square_ratio_closed_form(1.0, 1.0, 1.0, -0.5, 3),
                 "sigma must be non-negative", id="closed_form-negative-sigma"),
    pytest.param(lambda: stein_identity_check(CONJ_EXP, math.inf, 1.0, 10), "m must be finite",
                 id="stein-inf-m"),
    pytest.param(lambda: stein_identity_check(CONJ_EXP, math.nan, 1.0, 10), "m must be finite",
                 id="stein-nan-m"),
    pytest.param(lambda: stein_identity_check(CONJ_EXP, 0.0, 1.0, 10, seed=-1),
                 "seed must be a non-negative integer", id="stein-negative-seed"),
    # log_rate_check's derived constants c and exponent, checked before the
    # run: an overflow or a 0 used to fail later, under another field's name
    pytest.param(lambda: log_rate_check(HARD_LOGISTIC, 1.0, 1e308, 1.0, 1.0, 10),
                 "exponent = L * b1 = inf", id="log_rate-inf-exponent"),
    pytest.param(lambda: log_rate_check(HARD_LOGISTIC, 1.0, 1.0, 1e308, 1e10, 10),
                 "c = eta * mu_norm**2 / b1 = inf", id="log_rate-inf-c"),
    pytest.param(lambda: log_rate_check(HARD_LOGISTIC, 1.0, 1.0, 1e300, 1e200, 10),
                 "c = eta * mu_norm**2 / b1 = inf", id="log_rate-inf-mu_norm-squared"),
    pytest.param(lambda: log_rate_check(HARD_LOGISTIC, 1.0, 1.0, 1e-300, 1e-20, 10),
                 "c = eta * mu_norm**2 / b1 = 0.0", id="log_rate-zero-c"),
    # serialize
    pytest.param(lambda: svg_line_chart([("s", [0.0], [math.nan])], "t", "x", "y"),
                 "no finite data to plot", id="svg-no-finite-data"),
    # a reference line must sit at a finite height, named by its label
    *[pytest.param(lambda y=y: svg_line_chart([("s", [0.0, 1.0], [0.0, 1.0])], "t", "x", "y",
                                              hlines=[("ok", 0.5), ("b", y)]),
                   f"hline 'b' is at {y}, not a finite height", id=f"svg-hline-{y}")
      for y in (math.inf, -math.inf, math.nan)],
]


@pytest.mark.parametrize("call,message", REJECTIONS)
def test_rejects_bad_input(call, message):
    with pytest.raises(ValueError) as err:
        call()
    assert type(err.value) is ValueError
    assert str(err.value).startswith(message)


def test_whole_number_float_count_is_accepted():
    seq, report = recursion_bound_run(1, 1, 1, 1e4)
    int_seq, int_report = recursion_bound_run(1, 1, 1, 10**4)
    assert report == int_report and report.horizon == 10**4
    np.testing.assert_array_equal(seq, int_seq)


@pytest.mark.parametrize("run", [
    lambda: recursion_bound_run(1, 1, 1e-300, 10)[1],
    lambda: recursion_bound_run(1, 1e-300, 0.1, 10)[1],
    lambda: log_rate_check(HARD_LOGISTIC, 1.0, 1e-300, 1.0, 1.0, 10),
], ids=["recursion-inf-burn-in", "recursion-huge-burn-in", "log_rate-inf-burn-in"])
def test_burn_in_past_the_horizon_leaves_nothing_to_check(run):
    report = run()
    assert report.tau_star + 1 >= report.horizon
    assert report.bound_holds and report.first_violation_t is None
    assert getattr(report, "min_slack", math.inf) == math.inf


def test_rejects_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError) as err:
        read_csv_with_meta(path)
    assert str(err.value) == f"{path}: empty file"


@pytest.mark.parametrize("rows,message", [
    ([[1.0, 2.0]], "row 0 has 2 cells, the header has 3"),
    ([[1.0, 2.0, 3.0, 4.0]], "row 0 has 4 cells, the header has 3"),
    ([[1.0, 2.0, 3.0], (4.0, 5.0, 6.0), [7.0, 8.0]], "row 2 has 2 cells, the header has 3"),
], ids=["short-row", "long-row", "bad-row-after-good-ones"])
def test_rejects_ragged_csv_rows(rows, message):
    with pytest.raises(ValueError) as err:
        csv_with_meta_text("a,b,c", rows, {})
    assert str(err.value) == message


VALID_CONFIG = {
    "model.mu": [1.0, 0.0], "model.sigma": 0.5, "model.dim": 2,
    "loss.rule": "conj", "loss.family": "exp",
    "run.mode": "stochastic", "run.eta": 0.1, "run.horizon": 3, "run.seed": 0,
    "init.w": [1.0, 1.0],
}

# (key, bad value, the key the message names, the rest of the message)
CONFIG_REJECTIONS = [
    ("loss.family", "hinge", "loss.rule/loss.family", "unknown combination ('conj', 'hinge')"),
    ("model.mu", [1.0, "x"], "model.mu", "must be a non-empty list of numbers"),
    ("init.w", [], "init.w", "must be a non-empty list of numbers"),
    ("model.sigma", "0.5", "model.sigma", "must be a number"),
    ("run.eta", True, "run.eta", "must be a number"),
    ("run.horizon", 3.0, "run.horizon", "must be an integer"),
    ("model.dim", True, "model.dim", "must be an integer"),
    ("model.mu", [1e160, 0.0], "model.mu", "mu is too large: ||mu||**2 overflows"),
    ("model.sigma", 1e160, "model.sigma", "sigma = 1e+160 is too large: sigma**2 overflows"),
    ("model.sigma", 10**400, "model.sigma", "is an integer too large for a float"),
    ("model.mu", [10**400, 0], "model.mu", "is an integer too large for a float"),
    ("run.eta", 10**400, "run.eta", "is an integer too large for a float"),
    ("init.w", [10**400, 0], "init.w", "is an integer too large for a float"),
]


@pytest.mark.parametrize("key,value,named,message", CONFIG_REJECTIONS,
                         ids=[f"{row[0]}={reprlib.repr(row[1])}" for row in CONFIG_REJECTIONS])
def test_config_file_names_the_bad_key(tmp_path, key, value, named, message):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({**VALID_CONFIG, key: value}))
    with pytest.raises(ConfigError) as err:
        parse_config_file(path)
    assert str(err.value).startswith(f"{named}: {message}")


# single-key faults in the order a config file is read: mu, sigma and dim as
# values, then the dim check, the model, the loss (rule and family are read as
# one), the mode, init.w, run.batch, eta, horizon and seed as values, and last
# ExperimentConfig's own checks
READ_ORDER_FAULTS = [
    ("model.mu", "x", "model.mu: must be a non-empty list of numbers"),
    ("model.sigma", "x", "model.sigma: must be a number"),
    ("model.dim", 2.5, "model.dim: must be an integer"),
    ("model.dim", 3, "model.dim: is 3 but model.mu has length 2"),
    ("model.mu", [0, 0], "model.mu: mu must be a nonzero vector"),
    ("model.sigma", -1.0, "model.sigma: sigma must be finite and non-negative"),
    ("loss.family", "cubic", "loss.rule/loss.family: unknown combination ('conj', 'cubic')"),
    ("run.mode", "sideways",
     "run.mode: mode must be 'stochastic' or 'population', got 'sideways'"),
    ("init.w", "x", "init.w: must be a non-empty list of numbers"),
    ("run.batch", 1.5, "run.batch: must be an integer"),
    ("run.eta", "x", "run.eta: must be a number"),
    ("run.horizon", 2.5, "run.horizon: must be an integer"),
    ("run.seed", 2.5, "run.seed: must be an integer"),
    ("run.eta", 0, "run.eta: eta must be positive"),
    ("run.horizon", 0, "run.horizon: horizon must be >= 1"),
    ("run.batch", 0, "run.batch: batch must be >= 1"),
    ("run.seed", -1, "run.seed: seed must be a non-negative integer"),
    ("init.w", [1.0, 0.0, 0.0], "init.w: w has length 3 but the model dimension is 2"),
]


def test_config_file_reports_the_fault_read_first(tmp_path):
    path = tmp_path / "c.json"

    def message(faults):
        path.write_text(json.dumps({**VALID_CONFIG, **faults}))
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        return str(err.value)

    for key, value, want in READ_ORDER_FAULTS:
        assert message({key: value}) == want
    for i, (key, value, want) in enumerate(READ_ORDER_FAULTS):
        for later_key, later_value, _ in READ_ORDER_FAULTS[i + 1:]:
            if later_key != key:
                assert message({key: value, later_key: later_value}) == want, later_key


@pytest.mark.parametrize("text,message", [
    ("{", "not valid JSON"),
    ("[1, 2]", "top level must be a flat JSON object"),
], ids=["invalid-json", "not-an-object"])
def test_config_file_that_is_not_a_json_object(tmp_path, text, message):
    path = tmp_path / "c.json"
    path.write_text(text)
    with pytest.raises(ConfigError) as err:
        parse_config_file(path)
    assert str(err.value).startswith(f"{path}: {message}")
