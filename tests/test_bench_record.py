"""tools/bench_record.py: the flags it sets from paired runs of two trees."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_record", Path(__file__).resolve().parent.parent / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

WALL = {"name": "wall_s", "better": "lower", "bound": 0.2}
BASE = [1.0, 1.01, 0.99, 1.0, 1.02]


@pytest.mark.parametrize("new,expected", [
    ([0.7, 0.72, 0.69, 0.71, 0.7], (5, "BETTER")),
    ([1.3, 1.25, 1.28, 1.3, 1.31], (0, "WORSE")),
    # drift shared by both trees, or a gain inside the base's quartiles: no flag
    ([1.0, 1.01, 0.99, 1.0, 1.02], (0, "")),
    ([0.995, 1.0, 0.985, 0.995, 1.01], (5, "")),
    # a large gain that loses one pair in five is not 9 in 10
    ([0.7, 0.72, 1.1, 0.71, 0.7], (4, "")),
])
def test_flag_from_paired_runs(new, expected):
    assert bench_record.flag(WALL, BASE, new) == expected


def test_one_pair_has_no_spread():
    assert bench_record.flag(WALL, [1.0], [0.9]) == (1, "BETTER")
    assert bench_record.flag(WALL, [1.0], [1.0]) == (0, "")
