"""The package surface: ttalab re-exports the modules' __all__ lists."""

import importlib
import os
import subprocess
import sys

import ttalab

MODULES = ("model", "losses", "dynamics", "analysis", "serialize", "presets", "harness")

# the public surface, pinned: a name added or dropped is a deliberate edit here
PUBLIC_NAMES = [
    "ClubCertificate", "ClubParams", "ConfigError", "ETA_GRID", "ExperimentConfig",
    "FIGURE_IDS", "FigureResult", "GaussianModel", "GridPoint", "LabelRule",
    "LogRateReport", "LossFamily", "Mode", "OVERFLOW_LIMIT", "RecursionReport",
    "RunManifest", "SelfTrainingLoss", "SteinReport", "TailRateCurve", "Trajectory",
    "TrajectoryPoint", "UnsupportedLossError", "__version__", "all_losses",
    "build_benchmark_domains", "club_losses",
    "conj_square_ratio_closed_form", "derive_stream_seed", "epsilon_iteration_bound",
    "expectation_terms", "gauss_upper_tail", "gd_step", "is_epsilon_optimal",
    "log_rate_check", "make_loss", "nu_star_upper", "parse_config_file", "parse_loss_id",
    "population_step", "record_text", "recursion_bound_run", "render_figure_svg",
    "reproduce_figure", "run_experiment", "run_population", "run_stochastic",
    "sample_batch", "stein_identity_check", "step_size_sweep", "tail_rate_curve",
    "verify_club", "zero_one_loss",
]


def test_public_names_are_the_pinned_list():
    assert len(PUBLIC_NAMES) == 52
    assert sorted(ttalab.__all__) == PUBLIC_NAMES


def test_no_public_name_is_declared_twice():
    declared = [name for m in MODULES for name in importlib.import_module(f"ttalab.{m}").__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(ttalab.__all__) == sorted(["__version__", *declared])


def test_each_public_name_is_its_defining_modules_object():
    for m in MODULES:
        module = importlib.import_module(f"ttalab.{m}")
        for name in module.__all__:
            assert getattr(ttalab, name) is getattr(module, name), f"{m}.{name}"


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from ttalab import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(ttalab.__all__)
    assert "main" not in namespace  # the cli module is not re-exported


def test_importing_the_package_loads_no_test_dependency():
    """scipy, hypothesis and pytest may be used only inside tests."""
    code = ("import sys, ttalab, ttalab.cli; "
            "print(' '.join(m for m in ('scipy', 'hypothesis', 'pytest') if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ttalab.__file__))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == ""
