"""tools/bench_record.py: the trees it exports and the flags it sets from
paired runs of them."""

import importlib.util
import subprocess
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


def test_the_change_is_exported_as_git_add_all_sees_it(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                               "-c", "commit.gpgsign=false", *args], cwd=repo,
                              capture_output=True, text=True, check=True).stdout

    git("init", "-q")
    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "tracked.txt").write_text("old\n")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (repo / "tracked.txt").write_text("new\n")
    (repo / "untracked.txt").write_text("fresh\n")
    (repo / "ignored.txt").write_text("left out\n")
    status = git("status", "--porcelain")
    monkeypatch.setattr(bench_record, "ROOT", repo)
    bench_record.export("HEAD", tmp_path / "parent")
    bench_record.export(bench_record.snapshot(), tmp_path / "change")
    assert git("status", "--porcelain") == status
    assert sorted(p.name for p in (tmp_path / "parent").iterdir()) == [".gitignore", "tracked.txt"]
    assert (tmp_path / "parent" / "tracked.txt").read_text() == "old\n"
    change = tmp_path / "change"
    assert sorted(p.name for p in change.iterdir()) == [".gitignore", "tracked.txt",
                                                         "untracked.txt"]
    assert (change / "tracked.txt").read_text() == "new\n"
    assert (change / "untracked.txt").read_text() == "fresh\n"
