"""perfbench's tracer installs on a fresh import of curvemeet.

`perfbench/tracer.py` finds the functions and methods it wraps by name
(`getattr`, a class `__dict__`), so renaming or deleting one of them,
say `_fastgeom.min_sqdist_exceeds`, `PolylineIndex.sq_dist_to_point`,
`paths.n_approximation` or `parity.crossing_count`, breaks every traced
benchmark run.  This test installs the tracer on a fresh import, as
`perfbench/run.py --trace 1` does, and removes it again; the modules the
other tests imported are left as they were.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from perfbench import tracer  # noqa: E402


def _curvemeet_modules() -> dict:
    return {
        name: mod
        for name, mod in sys.modules.items()
        if name == "curvemeet" or name.startswith("curvemeet.")
    }


def test_the_tracer_installs_and_unpatches_on_a_fresh_import() -> None:
    saved = _curvemeet_modules()
    for name in saved:
        del sys.modules[name]
    try:
        cm = importlib.import_module("curvemeet")
        importlib.import_module("curvemeet.cli")
        function_parity = cm.parity.function_parity
        rec = tracer.Recorder()
        try:
            tracer.install(cm, rec)
            assert cm.parity.function_parity is not function_parity
        finally:
            rec.unpatch()
        assert cm.parity.function_parity is function_parity
    finally:
        for name in _curvemeet_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def test_the_tracer_times_the_names_forwarded_to_track() -> None:
    # `paths` and `parity` forward the paper's route to `track`; the
    # tracer looks the names up there and rebinds them in `track`, so a
    # call through the package lands in its spans
    saved = _curvemeet_modules()
    for name in saved:
        del sys.modules[name]
    try:
        cm = importlib.import_module("curvemeet")
        importlib.import_module("curvemeet.cli")
        f, g = (cm.extend(c, side) for c, side in zip(cm.diagonal_pair(), cm.Side))
        full = cm.interval(-1, 2)
        rec = tracer.Recorder()
        try:
            tracer.install(cm, rec)
            p, q = cm.n_approximation_pair(f, g, full, full, 4)
            assert cm.crossing_count(p, q).parity == 1
        finally:
            rec.unpatch()
        assert rec.calls["paths.n_approximation_pair"] == 1
        assert rec.calls["parity.crossing_count"] == 1
        assert cm.paths.n_approximation_pair is cm.track.n_approximation_pair
    finally:
        for name in _curvemeet_modules():
            del sys.modules[name]
        sys.modules.update(saved)
