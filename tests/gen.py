"""Seeded random generators shared by the test modules.

Generators may use the package (separation predicates, perturbation);
only the oracles have to stay independent.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from curvemeet import Track, make_track, perturb_to_separated, pt, weakly_separated
from curvemeet.track import line_set


def rand_fraction(
    rng: random.Random, lo: int, hi: int, max_den: int = 8
) -> Fraction:
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(lo * den, hi * den), den)


def rand_track(
    rng: random.Random, min_len: int = 2, max_len: int = 6
) -> Track:
    k = rng.randint(min_len, max_len)
    params = sorted(rng.sample(range(0, 8 * k), k))
    entries = []
    prev = None
    for s in params:
        while True:
            p = (rand_fraction(rng, -2, 3), rand_fraction(rng, -2, 3))
            if p != prev:
                break
        entries.append((Fraction(s), p))
        prev = p
    return make_track(entries)


def zigzag_track(rng: random.Random, horizontal: bool) -> Track:
    # spans a band left to right (or bottom to top), weaving across the
    # other axis so pairs of opposite orientation cross often
    k = rng.randint(3, 7)
    entries = []
    prev = None
    for i in range(k):
        along = Fraction(i) + rand_fraction(rng, 0, 1, 16) / 2
        across = rand_fraction(rng, -2, 2, 16)
        p = (along, across) if horizontal else (across, along)
        if p == prev:
            p = (p[0] + Fraction(1, 32), p[1])
        entries.append((Fraction(i), p))
        prev = p
    return make_track(entries)


def separated_pair(rng: random.Random, rich: bool = False) -> tuple[Track, Track]:
    """A weakly separated pair; rich pairs are built to cross a lot."""
    if rich:
        p = zigzag_track(rng, horizontal=True)
        q = zigzag_track(rng, horizontal=False)
    else:
        p = rand_track(rng)
        q = rand_track(rng)
    if not weakly_separated(p, q):
        q = perturb_to_separated(q, p, p, Fraction(1, 64))
    assert weakly_separated(p, q)
    return p, q


def triangle_move_config(
    rng: random.Random,
) -> tuple[Track, Track, Track]:
    """(p, q1, q2): three-vertex tracks sharing endpoints inside a ball
    that excludes p's endpoints, with the shared endpoints off p's lines.

    Any such middle-vertex replacement must preserve crossing parity.
    """
    while True:
        p = rand_track(rng, min_len=3, max_len=5)
        radius = Fraction(1, rng.choice((1, 2, 4)))
        center = pt(rand_fraction(rng, -1, 2, 8), rand_fraction(rng, -1, 2, 8))
        x0, xk = p.points[0], p.points[-1]
        rsq = radius * radius
        if (x0 - center).sq_norm() <= rsq or (xk - center).sq_norm() <= rsq:
            continue
        lines = line_set(p)

        def inside() -> "pt":
            return pt(
                center.x + rand_fraction(rng, -1, 1, 16) * radius / 2,
                center.y + rand_fraction(rng, -1, 1, 16) * radius / 2,
            )

        y, yp = inside(), inside()
        if y == yp or any(l.contains(y) or l.contains(yp) for l in lines):
            continue
        for _ in range(20):
            z1, z2 = inside(), inside()
            if z1 in (y, yp) or z2 in (y, yp):
                continue
            q1 = make_track([(0, y), (Fraction(1, 2), z1), (1, yp)])
            q2 = make_track([(0, y), (Fraction(1, 2), z2), (1, yp)])
            if weakly_separated(p, q1) and weakly_separated(p, q2):
                return p, q1, q2


def bent_table_spec(rows: int) -> str:
    """A path spec of two tables of `rows` samples each, modulus offset
    2: phi samples (t, t^2) and psi (t, (1 - t)^2) at t = k / (rows - 1),
    one row per line.  They cross once, at t = 1/2 on both."""

    def table(y) -> str:
        ts = [Fraction(k, rows - 1) for k in range(rows)]
        data = ",\n".join(json.dumps([str(t), str(t), str(y(t))]) for t in ts)
        return f'{{"type": "table", "modulus": 2, "data": [\n{data}\n]}}'

    phi, psi = table(lambda t: t * t), table(lambda t: (1 - t) ** 2)
    return f'{{"phi": {phi},\n"psi": {psi}}}\n'
