"""Span recorder for the traced runs.

Wrappers are installed around curvemeet's public functions at module
boundaries, in every module namespace that bound the function by name, and
are removed again afterwards.  Each wrapper records a span with its parent;
spans are folded into per-layer totals as they close (self time is the
span minus the time of its child spans), so memory does not grow with the
number of calls.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict


class Recorder:
    def __init__(self):
        self.stack = []  # open spans: [name, child seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.edges = defaultdict(int)  # (parent, child) -> calls
        self.counters = defaultdict(float)
        self.rounds = []  # round durations of the refine_sequence call in flight
        self.ops_rounds = []  # one list of round durations per refine_sequence
        self.paused = 0.0  # seconds spent outside the program inside spans
        self._patches = []

    def pause(self, seconds):
        """Leave `seconds` just spent on other work out of the open spans."""
        self.paused += seconds

    def wrap(self, name, fn, after=None):
        """fn wrapped in a span; after(args, kwargs, result, parent, dur)."""
        stack, clock = self.stack, time.perf_counter
        calls, self_s, total_s, edges = self.calls, self.self_s, self.total_s, self.edges

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                # an oracle delegating to its inner oracle: one evaluation
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            paused = self.paused
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start - (self.paused - paused)
                stack.pop()
                parent = stack[-1][0] if stack else None
                if stack:
                    stack[-1][1] += dur
                calls[name] += 1
                self_s[name] += dur - frame[1]
                total_s[name] += dur
                edges[(parent, name)] += 1
            if after is not None:
                after(args, kwargs, result, parent, dur)
            return result

        return traced

    def patch_function(self, name, module, attr, after=None):
        """Replace module.attr wherever a curvemeet module bound it."""
        original = getattr(module, attr)
        self._rebind(original, self.wrap(name, original, after))

    def patch_method(self, name, cls, attr, after=None):
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, after))
        self._patches.append((cls, attr, original))

    def count_calls(self, counter, module, attr):
        """Count calls without a span; their time stays with the caller."""
        original = getattr(module, attr)
        counters = self.counters

        def counted(*args, **kwargs):
            counters[counter] += 1
            return original(*args, **kwargs)

        self._rebind(original, counted)

    def _rebind(self, original, replacement):
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "curvemeet" or mod_name.startswith("curvemeet."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        self._patches.append((mod, key, original))

    def unpatch(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def spans(self):
        """Per-layer totals and parent edges, for the trace file."""
        return {
            "layers": {
                n: {"calls": self.calls[n], "self_s": self.self_s[n], "total_s": self.total_s[n]}
                for n in sorted(self.calls)
            },
            "edges": [
                {"parent": p, "child": c, "calls": k}
                for (p, c), k in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))
            ],
            "counters": dict(self.counters),
            "rounds": self.ops_rounds,
        }


def install(cm, rec):
    """Wrap every layer boundary of the imported curvemeet package."""
    paths, track, fastgeom, exact_geom = cm.paths, cm.track, cm._fastgeom, cm.exact_geom
    parity, refine, cli = cm.parity, cm.refine, cm.cli
    ctr = rec.counters

    def vertices(args, kwargs, result, parent, dur):
        ctr["paths.track_vertices"] += len(result)

    def pair_vertices(args, kwargs, result, parent, dur):
        # the first track is counted by the nested n_approximation span
        ctr["paths.track_vertices"] += len(result[1])
        n = args[4] if len(args) > 4 else kwargs["n"]
        ctr["parity.max_precision"] = max(ctr["parity.max_precision"], n)

    def shortcut(args, kwargs, result, parent, dur):
        if result and parent == "parity.function_parity":
            ctr["parity.shortcuts"] += 1

    def crossings(args, kwargs, result, parent, dur):
        ctr["parity.crossings"] += result.count

    def parity_call(args, kwargs, result, parent, dur):
        if parent == "refine.shrink_first":
            ctr["refine.parity_in_shrink"] += 1

    def shrink(args, kwargs, result, parent, dur):
        ctr["refine.final_precision"] = args[4] if len(args) > 4 else kwargs["n"]

    def round_done(args, kwargs, result, parent, dur):
        rec.rounds.append(dur)

    def sequence_done(args, kwargs, result, parent, dur):
        rec.ops_rounds.append(rec.rounds)
        rec.rounds = []

    def cert_bytes(args, kwargs, result, parent, dur):
        ctr["cli.certificate_bytes"] = len(result.encode("utf-8"))

    for cls in (paths.ExtendedPath, paths.PolylinePath, paths.QuadBezierPath):
        rec.patch_method("paths.oracle", cls, "eval_approx")
    rec.patch_method("fastgeom.sq_dist", fastgeom.PolylineIndex, "sq_dist_to_point")
    rec.patch_function("paths.n_approximation", paths, "n_approximation", vertices)
    rec.patch_function("paths.n_approximation_pair", paths, "n_approximation_pair", pair_vertices)
    rec.patch_function("track.spiral_search", track, "spiral_search")
    rec.patch_function("track.weakly_separated", track, "weakly_separated")
    rec.patch_function("fastgeom.min_sqdist_exceeds", fastgeom, "min_sqdist_exceeds", shortcut)
    rec.patch_function("exact_geom.sqrt_enclosure", exact_geom, "sqrt_enclosure")
    rec.patch_function("parity.crossing_count", parity, "crossing_count", crossings)
    rec.patch_function("parity.certify_alpha", parity, "certify_alpha")
    rec.count_calls("parity.alpha_probes", parity, "alpha_enclosure")
    rec.patch_function("parity.function_parity", parity, "function_parity", parity_call)
    rec.patch_function("refine.shrink_first", refine, "shrink_first", shrink)
    rec.patch_function("refine.round", refine, "_shrink_pair_certified", round_done)
    rec.patch_function("refine.refine_sequence", refine, "refine_sequence", sequence_done)
    rec.patch_function("refine.extract_point", refine, "extract_point")
    rec.patch_function("refine.verify_certificate", refine, "verify_certificate")
    rec.patch_function("cli.emit_certificate", cli, "emit_certificate", cert_bytes)
    rec.patch_function("cli.parse_certificate", cli, "parse_certificate")


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def layer_metrics(rec):
    """The per-layer metrics, by the names BENCHMARK.json gives them."""
    calls, self_s, ctr = rec.calls, rec.self_s, rec.counters
    vertices = ctr["paths.track_vertices"]
    parity_calls = calls["parity.function_parity"]
    shrinks = calls["refine.shrink_first"]
    firsts = [r[0] for r in rec.ops_rounds if r]
    laters = [d for r in rec.ops_rounds for d in r[1:]]
    return {
        "paths.oracle_evals": (calls["paths.oracle"], "count"),
        "paths.oracle_s": (self_s["paths.oracle"], "s"),
        "paths.n_approximation_s": (self_s["paths.n_approximation"], "s"),
        "paths.track_vertices": (vertices, "count"),
        "paths.n_approximation_pair_s": (self_s["paths.n_approximation_pair"], "s"),
        "track.spiral_search_calls": (calls["track.spiral_search"], "count"),
        "track.spiral_search_s": (self_s["track.spiral_search"], "s"),
        "track.vertex_first_try_ratio": (
            1 - calls["track.spiral_search"] / vertices if vertices else 1.0,
            "ratio",
        ),
        "track.weakly_separated_calls": (calls["track.weakly_separated"], "count"),
        "track.weakly_separated_s": (self_s["track.weakly_separated"], "s"),
        "fastgeom.sq_dist_calls": (calls["fastgeom.sq_dist"], "count"),
        "fastgeom.sq_dist_s": (self_s["fastgeom.sq_dist"], "s"),
        "fastgeom.min_sqdist_exceeds_s": (self_s["fastgeom.min_sqdist_exceeds"], "s"),
        "exact_geom.sqrt_enclosure_calls": (calls["exact_geom.sqrt_enclosure"], "count"),
        "exact_geom.sqrt_enclosure_s": (self_s["exact_geom.sqrt_enclosure"], "s"),
        "parity.function_parity_calls": (parity_calls, "count"),
        "parity.function_parity_s": (self_s["parity.function_parity"], "s"),
        "parity.crossing_count_s": (self_s["parity.crossing_count"], "s"),
        "parity.crossings": (ctr["parity.crossings"], "count"),
        "parity.shortcut_ratio": (
            ctr["parity.shortcuts"] / parity_calls if parity_calls else 0.0,
            "ratio",
        ),
        "parity.certify_alpha_s": (self_s["parity.certify_alpha"], "s"),
        "parity.alpha_probes": (ctr["parity.alpha_probes"], "count"),
        "parity.max_precision": (ctr["parity.max_precision"], "bits"),
        "refine.shrink_first_calls": (shrinks, "count"),
        "refine.shrink_first_s": (self_s["refine.shrink_first"], "s"),
        "refine.round_s": (self_s["refine.round"], "s"),
        "refine.refine_sequence_s": (self_s["refine.refine_sequence"], "s"),
        "refine.first_round_s": (_median(firsts), "s"),
        "refine.later_round_s": (_median(laters), "s"),
        "refine.runs_tried_per_shrink": (
            ctr["refine.parity_in_shrink"] / shrinks if shrinks else 0.0,
            "ratio",
        ),
        "refine.final_precision": (ctr["refine.final_precision"], "bits"),
        "refine.extract_point_s": (self_s["refine.extract_point"], "s"),
        "refine.verify_certificate_s": (self_s["refine.verify_certificate"], "s"),
        "cli.emit_certificate_s": (self_s["cli.emit_certificate"], "s"),
        "cli.parse_certificate_s": (self_s["cli.parse_certificate"], "s"),
        "cli.certificate_bytes": (ctr["cli.certificate_bytes"], "bytes"),
    }
