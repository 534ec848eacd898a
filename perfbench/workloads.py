"""Workload inputs and the operations a round runs.

`diagonals` and `curved` refine a builtin pair to a certified ball; each of
their rounds also asks a small fixed batch of window-parity queries on the
same pair.  `windows` asks only window-parity queries, on the curved pair
and on a three-crossing polyline pair.  Windows are drawn from a seeded
random generator out of fixed categories, so every round of every seed
holds the same number of queries of each kind.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from perfbench import truth
from perfbench.clock import Clock

Q = Fraction

REFINE_ROUNDS = 2  # the first round runs two shrinks over [-1, 2]^2
BALL_RADIUS = Q(1, 32)  # reached by the level-2 record on both pairs


class Pair:
    """One curve pair: how to build it in curvemeet, and its ground truth."""

    def __init__(self, name, build, c1, c2, domain, crossings):
        self.name = name
        self.build = build  # cm -> (f, g), the oracles the queries use
        self.c1, self.c2 = c1, c2  # truth curves
        self.domain = domain
        self.crossings = crossings


def _extended(cm, pair):
    phi, psi = pair
    return cm.extend(phi, cm.Side.LOWER), cm.extend(psi, cm.Side.UPPER)


def _zigzag(cm):
    phi = cm.PolylinePath(
        [(0, (0, 0)), ("1/3", ("4/5", "2/5")), ("2/3", ("1/5", "3/5")), (1, (1, 1))]
    )
    return phi, cm.diagonal_pair()[1]


def make_pairs():
    ext = (Q(-1), Q(2))
    return {
        "diagonals": Pair(
            "diagonals",
            lambda cm: _extended(cm, cm.diagonal_pair()),
            truth.DIAG_PHI,
            truth.DIAG_PSI,
            ext,
            truth.pl_crossings(truth.DIAG_PHI, truth.DIAG_PSI),
        ),
        "curved": Pair(
            "curved",
            lambda cm: _extended(cm, cm.curved_pair()),
            truth.curved_phi,
            truth.curved_psi,
            ext,
            [truth.bezier_crossing()],
        ),
        "zigzag": Pair(
            "zigzag",
            _zigzag,
            truth.ZIGZAG_PHI,
            truth.ZIGZAG_PSI,
            (Q(0), Q(1)),
            truth.pl_crossings(truth.ZIGZAG_PHI, truth.ZIGZAG_PSI),
        ),
    }


class Category:
    """Windows of fixed widths on a grid, filtered by their true geometry.

    kind: "far" (no crossing, images at least `gap` apart), "near" (no
    crossing, images closer than `gap`), or the number of crossings inside.
    Clearance is kept within [lo, hi]: the floor bounds the working
    precision certify_alpha settles on, the ceiling keeps that precision
    the same for every window of the category.
    """

    def __init__(self, pair, kind, widths, step, clearance, count, gap=None):
        self.pair, self.kind, self.widths, self.step = pair, kind, widths, step
        self.clearance, self.count, self.gap = clearance, count, gap

    def pick(self, pair, rng):
        """`count` windows of this category (all when count is None), tried
        in a seeded order."""
        lo, hi = pair.domain
        wi, wj = self.widths
        starts = [(a, b) for a in _grid(lo, hi - wi, self.step) for b in _grid(lo, hi - wj, self.step)]
        rng.shuffle(starts)
        out = []
        for a, b in starts:
            i, j = (a, a + wi), (b, b + wj)
            if self.accepts(pair, i, j):
                out.append((i, j))
                if len(out) == self.count:
                    return out
        if self.count is None and out:
            return out
        raise RuntimeError(f"too few windows of kind {self.kind} on {pair.name}")

    def accepts(self, pair, i, j):
        n = truth.true_count(pair.crossings, i, j)
        if self.kind in ("far", "near"):
            if n or (truth.image_gap(pair.c1, pair.c2, i, j) >= self.gap) != (self.kind == "far"):
                return False
        elif n != self.kind:
            return False
        alpha = truth.clearance(pair.c1, pair.c2, i, j)
        return self.clearance[0] <= alpha <= self.clearance[1]


def _grid(lo, hi, step):
    k0 = math.ceil(lo / step)
    k1 = math.floor(hi / step)
    return [k * step for k in range(k0, k1 + 1)]


CURVED_ODD = dict(widths=(Q(1), Q(1)), step=Q(1, 8), clearance=(0.48, 0.68))
CURVED_FAR = dict(widths=(Q(1, 2), Q(1, 2)), step=Q(1, 8), clearance=(0.3, 9), gap=0.6)

# Every window of the zigzag pair that separates one crossing from its
# neighbour has an endpoint between them, and no such endpoint lies
# farther than sqrt(2)/10 from the other curve; the grid of 1/24 holds
# the polyline's vertices at 1/3 and 2/3, where that bound is reached.
ZIGZAG_STEP = Q(1, 24)
ZIGZAG_FLOOR = 0.14

# Parity-1 windows of the curved pair: every window of the category is
# asked (eight on each pair), so a round costs the same whatever the seed.
# In the windows mix the median query falls inside this block: three cheap
# parity-0 windows and the cheaper zigzag parity-1 window sit below it, the
# two zigzag two-crossing windows above it.
WINDOW_MIX = {
    "diagonals": [
        Category("diagonals", "far", count=1, **CURVED_FAR),
        Category("diagonals", 1, count=None, **CURVED_ODD),
    ],
    "curved": [
        Category("curved", "far", count=1, **CURVED_FAR),
        Category("curved", 1, count=None, **CURVED_ODD),
    ],
    "windows": [
        Category("curved", "far", count=2, **CURVED_FAR),
        Category("curved", "near", count=1, **dict(CURVED_FAR, clearance=(0.3, 0.6))),
        Category("curved", 1, count=None, **CURVED_ODD),
        Category("zigzag", 1, (Q(1, 3), Q(1, 2)), ZIGZAG_STEP, (ZIGZAG_FLOOR, 9), 1),
        Category("zigzag", 2, (Q(2, 3), Q(1)), ZIGZAG_STEP, (ZIGZAG_FLOOR, 9), 2),
    ],
}


def make_windows(workload, seed, pairs):
    """The queries of one round: (pair name, I, J), in a seeded order."""
    rng = random.Random(seed)
    queries = []
    for cat in WINDOW_MIX[workload]:
        queries += [(cat.pair, i, j) for i, j in cat.pick(pairs[cat.pair], rng)]
    rng.shuffle(queries)
    return queries


# --------------------------------------------------------------- rounds


class Tally:
    """What a run measured: samples per operation kind, failures, checks."""

    def __init__(self):
        self.ball_s = []  # reference seconds (see clock.py)
        self.ball_raw_s = []
        self.bits = []
        self.samples = []  # (pair, I, J, parity, seconds, raw seconds) per answer
        self.attempted = 0
        self.failed = 0
        self.errors = []  # CurveMeetError raised by an operation
        self.wrong = []  # answers the ground truth refutes


def _iv(interval):
    return (interval.lo, interval.hi)


def _records(cert):
    return tuple((r.m, _iv(r.i), _iv(r.j)) for r in cert.records)


def bits(*widths):
    """-log2 of the widest of the given interval widths."""
    return -math.log2(float(max(widths)))


PAIRS_USED = {"diagonals": ("diagonals",), "curved": ("curved",), "windows": ("curved", "zigzag")}


class State:
    def __init__(self, cm, workload, pairs, queries):
        self.cm = cm
        self.workload = workload
        self.pairs = pairs
        self.oracles = {name: pairs[name].build(cm) for name in PAIRS_USED[workload]}
        self.queries = queries
        self.clock = Clock()
        if workload in ("diagonals", "curved"):
            self.inner = cm.diagonal_pair() if workload == "diagonals" else cm.curved_pair()


def ball_op(state, tally):
    """refine_sequence, then extract_point; then the certificate checks."""
    cm = state.cm
    phi, psi = state.inner
    tally.attempted += 1

    def to_ball():
        cert = cm.refine_sequence(phi, psi, REFINE_ROUNDS)
        return cert, cm.extract_point(cert, phi, BALL_RADIUS)

    try:
        (cert, ball), elapsed, raw = state.clock.measure(to_ball)
        cm.verify_certificate(cert, phi, psi)
        text = cm.cli.emit_certificate(cert, {"workload": state.workload})
        parsed, _meta = cm.cli.parse_certificate(text)
    except cm.CurveMeetError as exc:
        tally.failed += 1
        tally.errors.append(f"ball: {type(exc).__name__}: {exc}")
        return
    s_phi, s_psi = _iv(cert.s_phi), _iv(cert.s_psi)
    disc = ((ball.center.x, ball.center.y), ball.radius)
    errors = truth.check_roundtrip(
        (_records(cert), s_phi, s_psi), (_records(parsed), _iv(parsed.s_phi), _iv(parsed.s_psi))
    )
    if ball.radius > BALL_RADIUS:
        errors.append(f"ball radius {ball.radius} exceeds {BALL_RADIUS}")
    pair = state.pairs[state.workload]
    if state.workload == "diagonals":
        half = Q(1, 2)
        errors += truth.check_ball(s_phi, s_psi, disc, half, half, (half, half))
        errors += truth.check_chain(_records(cert), pair.c1, pair.c2)
    else:
        s, t, p = pair.crossings[0]
        errors += truth.check_ball(s_phi, s_psi, disc, s, t, p, tol=1e-12)
    if errors:
        tally.failed += 1
        tally.wrong += errors
        return
    tally.ball_s.append(elapsed)
    tally.ball_raw_s.append(raw)
    tally.bits.append(bits(s_phi[1] - s_phi[0], s_psi[1] - s_psi[0]))


def parity_op(state, tally, query):
    cm = state.cm
    name, i, j = query
    f, g = state.oracles[name]
    tally.attempted += 1
    try:
        parity, elapsed, raw = state.clock.measure(
            lambda: cm.function_parity(f, g, cm.Interval(*i), cm.Interval(*j))
        )
    except cm.CurveMeetError as exc:
        tally.failed += 1
        tally.errors.append(f"parity on {name} {i} x {j}: {type(exc).__name__}: {exc}")
        return
    errors = truth.check_parity(state.pairs[name].crossings, i, j, parity)
    if errors:
        tally.failed += 1
        tally.wrong += errors
        return
    tally.samples.append((name, i, j, parity, elapsed, raw))


# A refine round asks its window batch twice, so that the latency median of
# a run rests on 18 answers although a round holds only one ball.
BATCH_REPEATS = {"diagonals": 2, "curved": 2, "windows": 1}


def run_round(state, tally):
    if state.workload in ("diagonals", "curved"):
        ball_op(state, tally)
    for query in state.queries * BATCH_REPEATS[state.workload]:
        parity_op(state, tally, query)
