"""The pipeline never loads the paper's separated-track module or the
`Fraction` segment kernel.

`curvemeet.track` holds the construction of weakly separated track
pairs and `curvemeet.segments` the exact segment kernel that tests
check the integer kernels against; no pipeline module imports either,
and the package loads each only on first use of one of its names.  A
fresh interpreter imports the command line, refines, extracts,
verifies, asks a window parity and runs the three commands on both
builtin specs, and both modules must still be unloaded, and no loaded
curvemeet module may bind `random`: the random jitter of base points
belongs to the paper's route.  Nor may `dataclasses` or `inspect` be
loaded: the value types build no code on import.  Then every exported
name resolves, `curvemeet.Track` and `curvemeet.Segment` are the classes
of `track` and `segments`, and the names that `paths` and `parity`
forward are the very objects of `track`.  The pipeline's parity takes
no rng, the paper's kernels (`Track`, `canonical_lines`, line stabbing)
are defined in `track` alone, and the segment kernel in `segments`
alone.  Every lazy name, both modules among them, is in `__all__`, and
in a fresh interpreter `from curvemeet import *` binds exactly the names
of `__all__`, no submodule among them, while a name that neither the
package nor `paths` nor `parity` holds raises `AttributeError` naming
the module it was looked up in (the miss paths of their PEP 562
`__getattr__`).
"""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import curvemeet
import curvemeet._fastgeom as fastgeom_module
import curvemeet.exact_geom as exact_geom_module
from curvemeet.parity import _base_track, function_parity
from curvemeet.paths import _base_points

from test_no_spiral_route import SPECS

ROOT = Path(__file__).resolve().parent.parent
# the names of the `Fraction` segment kernel, defined in `segments` alone
SEGMENT_KERNEL = (
    "cross",
    "orient",
    "Segment",
    "Line",
    "point_on_line",
    "SegKind",
    "SegRelation",
    "_on_closed_segment",
    "_crossing_point",
    "classify_segment_pair",
    "sq_dist_point_segment",
    "sq_dist_segment_segment",
)

SCRIPT = """
import contextlib, io, sys
from fractions import Fraction

import curvemeet.cli as cli
from curvemeet import (
    Side, curved_pair, diagonal_pair, extend, extract_point, function_parity,
    interval, refine_sequence, verify_certificate,
)

for pair in (diagonal_pair, curved_pair):
    phi, psi = pair()
    cert = refine_sequence(phi, psi, 2)
    assert extract_point(cert, phi, Fraction(1, 2)).radius <= Fraction(1, 2)
    verify_certificate(cert, phi, psi)
    f, g = extend(phi, Side.LOWER), extend(psi, Side.UPPER)
    assert function_parity(f, g, interval(-1, 2), interval(-1, 2)) == 1
for name in ("diagonals", "curved"):
    spec, cert = name + ".json", name + ".cert.json"
    assert cli.main(["intersect", spec, "--iterations", "2", "-o", cert]) == 0
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["parity", spec]) == 0
    assert out.getvalue().startswith("parity 1\\n")
    assert cli.main(["render", spec, "--certificate", cert, "-o", name + ".svg"]) == 0
assert "curvemeet.track" not in sys.modules, "the pipeline loaded curvemeet.track"
assert "curvemeet.segments" not in sys.modules, "the pipeline loaded curvemeet.segments"
for name in ("dataclasses", "inspect"):
    assert name not in sys.modules, "the pipeline loaded " + name
for mod_name, mod in list(sys.modules.items()):
    if mod_name == "curvemeet" or mod_name.startswith("curvemeet."):
        assert "random" not in vars(mod), mod_name + " binds random"

import curvemeet, curvemeet.parity, curvemeet.paths
for name in curvemeet.__all__:
    getattr(curvemeet, name)
track = sys.modules["curvemeet.track"]
assert curvemeet.track is track
assert curvemeet.Track is track.Track
assert curvemeet.Segment is curvemeet.segments.Segment
assert curvemeet.paths.n_approximation is track.n_approximation
assert curvemeet.paths.n_approximation_pair is track.n_approximation_pair
assert curvemeet.parity.crossing_count is track.crossing_count
print("ok")
"""

STAR_SCRIPT = """
import curvemeet, curvemeet.parity, curvemeet.paths

star = {}
exec("from curvemeet import *", star)
del star["__builtins__"]
assert sorted(star) == curvemeet.__all__, set(star) ^ set(curvemeet.__all__)
for name in ("errors", "exact_geom", "parity", "paths", "refine", "importlib"):
    assert name not in star, name
for module in (curvemeet, curvemeet.paths, curvemeet.parity):
    try:
        module.nope
    except AttributeError as exc:
        assert str(exc) == f"module {module.__name__!r} has no attribute 'nope'", exc
    else:
        raise AssertionError(module.__name__ + ".nope resolved")
print("ok")
"""


def _run_fresh(script: str, cwd: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_the_pipeline_never_loads_the_track_module(tmp_path: Path) -> None:
    for name, spec in SPECS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(spec), encoding="utf-8")
    _run_fresh(SCRIPT, tmp_path)


def test_star_import_binds_all_and_unknown_names_raise(tmp_path: Path) -> None:
    _run_fresh(STAR_SCRIPT, tmp_path)


def test_the_pipeline_takes_no_rng_and_holds_no_paper_kernel() -> None:
    for fn in (function_parity, _base_track, _base_points):
        assert "rng" not in inspect.signature(fn).parameters, fn.__name__
    for name in ("Track", "canonical_lines"):
        assert name not in vars(fastgeom_module), name
    assert not hasattr(fastgeom_module.BoxLevels, "stab")
    for name in SEGMENT_KERNEL:
        assert name not in vars(exact_geom_module), name
    assert curvemeet.Track is curvemeet.track.Track


def test_every_lazy_name_is_exported() -> None:
    assert set(curvemeet._LAZY) <= set(curvemeet.__all__)
