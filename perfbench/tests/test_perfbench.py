"""Self-tests of the benchmark: tiny workloads pass, checkers catch wrong answers.

Run from the root of the checkout:
    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction as Q
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run, tracer, truth, workloads  # noqa: E402

HALF = Q(1, 2)


@pytest.fixture(scope="module")
def cm():
    return run.import_curvemeet()


@pytest.fixture(scope="module")
def pairs():
    return workloads.make_pairs()


def _tiny_state(cm, pairs, workload, count):
    queries = workloads.make_windows(workload, 7, pairs)[:count]
    return workloads.State(cm, workload, pairs, queries)


@pytest.mark.parametrize("workload", ["diagonals", "curved"])
def test_refine_workload_tiny(cm, pairs, workload, monkeypatch):
    # one refinement round reaches the level-1 ball
    monkeypatch.setattr(workloads, "REFINE_ROUNDS", 1)
    monkeypatch.setattr(workloads, "BALL_RADIUS", Q(1, 4))
    state = _tiny_state(cm, pairs, workload, 1)
    tally = workloads.Tally()
    workloads.run_round(state, tally)
    assert (tally.attempted, tally.failed, tally.errors, tally.wrong) == (3, 0, [], [])
    assert len(tally.ball_s) == 1 and tally.bits[0] > 0


def test_windows_workload_tiny(cm, pairs):
    mix = workloads.make_windows("windows", 7, pairs)
    # the curved queries only: the zigzag ones cost seconds each
    picked = [q for q in mix if q[0] == "curved"][:3]
    state = workloads.State(cm, "windows", pairs, picked)
    tally = workloads.Tally()
    workloads.run_round(state, tally)
    assert (tally.attempted, tally.failed, tally.errors, tally.wrong) == (3, 0, [], [])


def test_window_mix_is_fixed_per_round(pairs):
    a = workloads.make_windows("windows", 1, pairs)
    b = workloads.make_windows("windows", 2, pairs)
    assert a == workloads.make_windows("windows", 1, pairs)
    assert len(a) == len(b)
    zigzag = pairs["zigzag"]
    twos = [q for q in a if q[0] == "zigzag" and truth.true_count(zigzag.crossings, q[1], q[2]) == 2]
    assert len(twos) == 2


def test_ground_truth_crossings(pairs):
    assert [(s, t) for s, t, _ in pairs["zigzag"].crossings] == [
        (Q(5, 18), Q(2, 3)),
        (HALF, HALF),
        (Q(13, 18), Q(1, 3)),
    ]
    assert [c[:2] for c in pairs["diagonals"].crossings] == [(HALF, HALF)]
    s, t, p = pairs["curved"].crossings[0]
    assert truth.curved_phi(s) == pytest.approx(truth.curved_psi(t), abs=1e-13)
    assert p == pytest.approx(truth.curved_phi(s), abs=1e-13)


# ----------------------------------------------- checkers reject wrong answers


def _diag_certificate():
    """A correct two-record chain for the diagonals, as refine_sequence gives."""
    return (
        (0, (Q(-1), Q(2)), (Q(-1), Q(2))),
        (1, (Q(105, 256), Q(151, 256)), (Q(489, 1024), Q(535, 1024))),
        (2, (Q(2025, 4096), Q(2071, 4096)), (Q(8169, 16384), Q(8215, 16384))),
    )


def test_chain_check_accepts_and_rejects_shifted_interval():
    recs = _diag_certificate()
    assert truth.check_chain(recs, truth.DIAG_PHI, truth.DIAG_PSI) == []
    m, (lo, hi), j = recs[2]
    shifted = recs[:2] + ((m, (lo + Q(1, 8), hi + Q(1, 8)), j),)
    assert truth.check_chain(shifted, truth.DIAG_PHI, truth.DIAG_PSI)
    # nested in record 0, but the image lies on the tail, far from g(J_1)
    m, _, j = recs[1]
    moved = recs[:1] + ((m, (Q(-1), Q(-1, 2)), j),)
    assert truth.check_chain(moved, truth.DIAG_PHI, truth.DIAG_PSI) == [
        "second image of record 1 leaves the 2^-1 neighbourhood"
    ]


def test_ball_check_rejects_shifted_interval_and_moved_centre():
    s_phi = (Q(2025, 4096), Q(2071, 4096))
    s_psi = (Q(8169, 16384), Q(8215, 16384))
    ball = ((HALF, HALF), Q(15, 512))
    assert truth.check_ball(s_phi, s_psi, ball, HALF, HALF, (HALF, HALF)) == []
    width = s_phi[1] - s_phi[0]
    moved = (s_phi[0] + width, s_phi[1] + width)
    assert truth.check_ball(moved, s_psi, ball, HALF, HALF, (HALF, HALF))
    off = ((HALF + Q(1, 16), HALF), Q(15, 512))
    assert truth.check_ball(s_phi, s_psi, off, HALF, HALF, (HALF, HALF))


def test_curved_ball_check_rejects_moved_centre(pairs):
    s, t, p = pairs["curved"].crossings[0]
    s_phi = (Q(s) - Q(1, 100), Q(s) + Q(1, 100))
    s_psi = (Q(t) - Q(1, 100), Q(t) + Q(1, 100))
    ball = ((Q(p[0]), Q(p[1])), Q(1, 64))
    assert truth.check_ball(s_phi, s_psi, ball, s, t, p, tol=1e-12) == []
    moved = ((Q(p[0]) + Q(1, 32), Q(p[1])), Q(1, 64))
    assert truth.check_ball(s_phi, s_psi, moved, s, t, p, tol=1e-12)
    shifted = (s_phi[0] + Q(1, 50), s_phi[1] + Q(1, 50))
    assert truth.check_ball(shifted, s_psi, ball, s, t, p, tol=1e-12)


def test_parity_check_rejects_flipped_parity(pairs):
    zigzag = pairs["zigzag"].crossings
    two = ((Q(0), Q(2, 3)), (Q(0), Q(1)))
    one = ((Q(0), Q(1, 3)), (HALF, Q(1)))
    assert truth.check_parity(zigzag, *two, 0) == []
    assert truth.check_parity(zigzag, *two, 1)
    assert truth.check_parity(zigzag, *one, 1) == []
    assert truth.check_parity(zigzag, *one, 0)


def test_roundtrip_check_rejects_changed_certificate():
    recs = _diag_certificate()
    final = (recs[-1][1], recs[-1][2])
    assert truth.check_roundtrip((recs, *final), (recs, *final)) == []
    assert truth.check_roundtrip((recs, *final), (recs[:2], *final))


# ------------------------------------------------------------------ tracing


def test_tracer_restores_functions_and_accounts_for_wall_time(cm, pairs):
    before = cm.parity.function_parity, cm.paths.ExtendedPath.eval_approx
    f, g = pairs["curved"].build(cm)
    rec = tracer.Recorder()
    tracer.install(cm, rec)
    try:
        wall = -time.perf_counter()
        parity = cm.function_parity(f, g, cm.interval(0, 1), cm.interval(0, 1))
        wall += time.perf_counter()
    finally:
        rec.unpatch()
    assert (cm.parity.function_parity, cm.paths.ExtendedPath.eval_approx) == before
    assert parity == 1
    layers = tracer.layer_metrics(rec)
    assert layers["parity.function_parity_calls"][0] == 1
    assert layers["paths.oracle_evals"][0] > 0
    assert 0.9 * wall <= sum(rec.self_s.values()) <= wall


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "windows", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    with pytest.raises((json.JSONDecodeError, IndexError)):
        json.loads(proc.stdout.splitlines()[-1])
