"""Each script under scripts/ runs once, on a small input, to the end.

The scripts import curvemeet's internals and perfbench, so a change to
either can break them without any other test noticing.  Each runs in a
fresh process from an empty directory, with curvemeet taken from src/,
and must exit 0 and leave that directory empty.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

RUNS = [
    ["cert_hashes.py", "--rounds", "6", "--expect", "0fdc89e36881ce31",
     "90b6dc8972e42ccc"],
    ["bench_refine.py", "--max-rounds", "1"],
    ["bench_refine.py", "--max-rounds", "3", "--from", "2", "--every", "1"],
    ["bench_refine.py", "--spec", str(ROOT / "scripts" / "table_spec.json"),
     "--max-rounds", "1"],
    ["profile_round.py", "windows", "--seed", "1", "--top", "1"],
    ["profile_round.py", "windows", "--seed", "1", "--top", "1", "--rounds", "2"],
    ["parity_grid.py", "--pair", "diagonals", "--cells", "2"],
    ["parity_grid.py", "--pair", "curved", "--cells", "3"],
    ["refine_demo.py", "--pair", "diagonals", "--iterations", "2"],
    ["src_lines.py"],
    ["import_cost.py", "--runs", "2"],
]


def _script(cwd: Path, argv: list[str]) -> subprocess.CompletedProcess:
    """Run scripts/argv[0] with the rest of argv in cwd."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize("argv", RUNS, ids=[run[0] for run in RUNS])
def test_script_runs_and_writes_nothing(tmp_path: Path, argv: list[str]) -> None:
    proc = _script(tmp_path, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, rows",
    [
        (["--max-rounds", "1"], ["0", "1"] * 2),
        (["--spec", str(ROOT / "scripts" / "table_spec.json"), "--max-rounds", "3"],
         ["0", "2", "3"]),
    ],
    ids=["builtin", "spec"],
)
def test_bench_refine_times_the_last_round(
    tmp_path: Path, argv: list[str], rows: list[str]
) -> None:
    # every second round from 0, and the last one even when it is odd
    proc = _script(tmp_path, ["bench_refine.py", *argv])
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [w[0] for w in lines if len(w) == 4 and w[0].isdigit()] == rows


def test_cert_hashes_checks_the_pin_of_a_spec_file(tmp_path: Path) -> None:
    # the 8-round hash of the table spec, pinned in test_cli.py as well
    spec = str(ROOT / "scripts" / "table_spec.json")
    argv = ["cert_hashes.py", "--spec", spec, "--rounds", "8", "--expect"]
    proc = _script(tmp_path, [*argv, "acafeb977fbb23ce"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["table_spec.json", "8", "acafeb977fbb23ce"]
    proc = _script(tmp_path, [*argv, "0" * 16])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_src_lines_writes_no_bytecode_into_the_tree_it_counts(tmp_path: Path) -> None:
    # its fresh interpreter runs with -I, which ignores
    # PYTHONDONTWRITEBYTECODE, so only -B keeps __pycache__ out of src
    src = tmp_path / "curvemeet"
    shutil.copytree(
        ROOT / "src" / "curvemeet", src, ignore=shutil.ignore_patterns("__pycache__")
    )
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "src_lines.py"), "--src", str(src)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "pipeline" in proc.stdout
    assert not list(tmp_path.rglob("__pycache__"))


@pytest.mark.parametrize("src", ["src", "/nonexistent"])
def test_src_lines_rejects_a_directory_that_is_no_package(src: str) -> None:
    # run from the repository root, where "src" holds curvemeet but is
    # no package itself
    proc = _script(ROOT, ["src_lines.py", "--src", src])
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stdout == ""
