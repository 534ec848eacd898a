"""The pipeline never reaches the paper's spiral route.

Refinement, extraction, verification, window parity and the three
commands read only base points and turn points.  Here every name of the
separated-track construction (the spiral search, the separated vertex
placement, the weak-separation predicate, the line stabbing query and
the track builders over them) is rebound, in every curvemeet module
that holds it, to a function that raises, the way perfbench's tracer
rebinds names; each pipeline operation must still succeed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

import pytest

import curvemeet.paths as paths_module
import curvemeet.track as track_module
from curvemeet import (
    Side,
    curved_pair,
    diagonal_pair,
    extend,
    extract_point,
    function_parity,
    interval,
    refine_sequence,
    verify_certificate,
)
from curvemeet.cli import main

TRAPPED = {
    paths_module: ("n_approximation", "n_approximation_pair"),
    track_module: ("separated_vertices", "spiral_search", "stab", "weakly_separated"),
}
SPECS = {
    "diagonals": {
        "phi": {"type": "polyline", "data": [[0, 0, 0], [1, 1, 1]]},
        "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
    },
    "curved": {
        "phi": {"type": "quad_bezier", "data": [[0, 0], ["1/5", "4/5"], [1, 1]]},
        "psi": {"type": "quad_bezier", "data": [[0, 1], ["1/2", "1/10"], [1, 0]]},
    },
}


class SpiralRouteReached(AssertionError):
    pass


def _trap(name: str):
    def trapped(*args, **kwargs):
        raise SpiralRouteReached(f"the pipeline called {name}")

    return trapped


@pytest.fixture
def no_spiral_route(monkeypatch) -> None:
    for owner, names in TRAPPED.items():
        for name in names:
            original, trap = getattr(owner, name), _trap(name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "curvemeet" or mod_name.startswith("curvemeet."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            monkeypatch.setattr(mod, key, trap)


@pytest.mark.parametrize("pair", [diagonal_pair, curved_pair])
def test_library_pipeline_avoids_the_spiral_route(pair, no_spiral_route) -> None:
    phi, psi = pair()
    cert = refine_sequence(phi, psi, 2, verify_base_parity=True)
    ball = extract_point(cert, phi, Fraction(1, 2))
    assert ball.radius <= Fraction(1, 2)
    verify_certificate(cert, phi, psi)
    f, g = extend(phi, Side.LOWER), extend(psi, Side.UPPER)
    assert function_parity(f, g, interval(-1, 2), interval(-1, 2)) == 1


@pytest.mark.parametrize("name", sorted(SPECS))
def test_commands_avoid_the_spiral_route(name, tmp_path, capsys, no_spiral_route) -> None:
    spec, cert, svg = tmp_path / "spec.json", tmp_path / "cert.json", tmp_path / "out.svg"
    spec.write_text(json.dumps(SPECS[name]), encoding="utf-8")
    intersect = ["intersect", str(spec), "--iterations", "2", "--verify-postconditions"]
    assert main([*intersect, "-o", str(cert)]) == 0
    assert main(["parity", str(spec)]) == 0
    assert capsys.readouterr().out.startswith("parity 1\n")
    assert main(["render", str(spec), "--certificate", str(cert), "-o", str(svg)]) == 0
    assert svg.read_text("utf-8").startswith("<?xml")
