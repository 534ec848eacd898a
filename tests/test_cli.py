"""Command-line front end tests: spec parsing, certificate round-trips,
exit codes, printed parity output and SVG rendering."""

from __future__ import annotations

import hashlib
import json
import time
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import curvemeet.refine as refine_module
from curvemeet import (
    Certificate,
    PolylinePath,
    QuadBezierPath,
    RefinementRecord,
    TablePath,
    curved_pair,
    diagonal_pair,
    interval,
    pt,
    refine_sequence,
)
from curvemeet.cli import (
    MAX_ITERATIONS,
    MAX_TABLE_ROWS,
    emit_certificate,
    main,
    parse_certificate,
    parse_path_spec,
    render_svg,
)
from curvemeet.errors import SpecFileError
from curvemeet.exact_geom import Interval
from curvemeet.paths import MAX_FORM_BITS

from gen import bent_table_spec

F = Fraction
FULL = interval(-1, 2)
UNIT = interval(0, 1)

DIAG_SPEC = json.dumps(
    {
        "phi": {"type": "polyline", "data": [[0, 0, 0], [1, 1, 1]]},
        "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
    }
)
BEZIER_SPEC = json.dumps(
    {
        "phi": {"type": "quad_bezier", "data": [[0, 0], ["1/5", "4/5"], [1, 1]]},
        "psi": {"type": "quad_bezier", "data": [[0, 1], ["1/2", "1/10"], [1, 0]]},
    }
)
# a zigzag against the anti-diagonal: three crossings
THREE_CROSSING_SPEC = json.dumps(
    {
        "phi": {
            "type": "polyline",
            "data": [[0, 0, 0], ["1/3", "4/5", "2/5"], ["2/3", "1/5", "3/5"], [1, 1, 1]],
        },
        "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
    }
)


# ----------------------------------------------------------- spec parsing


def test_parse_spec_builds_all_path_kinds() -> None:
    phi, psi = parse_path_spec(DIAG_SPEC)
    assert isinstance(phi, PolylinePath) and isinstance(psi, PolylinePath)
    assert phi.eval_approx(F(1, 2), 10) == pt(F(1, 2), F(1, 2))

    phi, psi = parse_path_spec(BEZIER_SPEC)
    assert isinstance(phi, QuadBezierPath)
    assert phi.p1 == pt(F(1, 5), F(4, 5))

    table_spec = json.dumps(
        {
            "phi": {
                "type": "table",
                "modulus": 1,
                "data": [[0, 0, 0], ["1/2", "1/2", "1/2"], [1, 1, 1]],
            },
            "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
        }
    )
    phi, _ = parse_path_spec(table_spec)
    assert isinstance(phi, TablePath)


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        json.dumps([1, 2]),
        json.dumps({"phi": {"type": "polyline", "data": [[0, 0, 0], [1, 1, 1]]}}),
        json.dumps(
            {
                "phi": {"type": "spline", "data": []},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, "1/0", 0], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, True, 0], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 0], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {"type": "quad_bezier", "data": [[0, 0], [1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {"type": "table", "data": [[0, 0, 0], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {
                    "type": "table",
                    "modulus": True,
                    "data": [[0, 0, 0], [1, 1, 1]],
                },
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        # paths not parameterized on [0, 1] cannot be extended
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 0, 0], [2, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 0, 0], [1, 1, 1]]},
                "psi": {
                    "type": "table",
                    "modulus": 2,
                    "data": [["-1/2", 0, 1], [1, 1, 0]],
                },
            }
        ),
        # nesting deeper than the JSON decoder's recursion limit
        "[" * 100_000 + "]" * 100_000,
    ],
)
def test_parse_spec_rejects_malformed_documents(text: str) -> None:
    with pytest.raises(SpecFileError):
        parse_path_spec(text)


# ------------------------------------------------ certificate round-trips


@st.composite
def nested_certificates(draw) -> Certificate:
    def sub(iv: Interval) -> Interval:
        a = draw(
            st.fractions(min_value=iv.lo, max_value=iv.hi, max_denominator=4096)
        )
        b = draw(
            st.fractions(min_value=iv.lo, max_value=iv.hi, max_denominator=4096)
        )
        return Interval(min(a, b), max(a, b))

    i, j = FULL, FULL
    records = [RefinementRecord(0, i, j)]
    for level in range(1, draw(st.integers(min_value=0, max_value=4)) + 1):
        i, j = sub(i), sub(j)
        records.append(RefinementRecord(level, i, j))
    return Certificate(tuple(records), sub(UNIT), sub(UNIT))


@given(cert=nested_certificates())
@settings(max_examples=60, deadline=None)
def test_certificate_round_trip(cert: Certificate) -> None:
    meta = {"format": "curvemeet-certificate", "note": "round-trip"}
    back, meta_back = parse_certificate(emit_certificate(cert, meta))
    assert back == cert
    assert meta_back == meta


@pytest.mark.parametrize("literal", ["1e999999999", "0.5", " 1/2", "1/-2", "+1", "1/0"])
def test_spec_values_accept_only_integer_and_fraction_literals(
    literal: str,
) -> None:
    def spec(value) -> str:
        return json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 0, 0], [1, value, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        )

    phi, _ = parse_path_spec(spec("-3/4"))
    assert phi.entries[1][1] == pt(F(-3, 4), 1)
    with pytest.raises(SpecFileError):
        parse_path_spec(spec(literal))


def test_parse_certificate_rejects_bad_documents() -> None:
    base = {
        "meta": {},
        "records": [
            {"m": 0, "I": ["-1", "2"], "J": ["-1", "2"], "radius": "1"}
        ],
        "s_phi": ["0", "1"],
        "s_psi": ["0", "1"],
    }

    wrong_radius = json.loads(json.dumps(base))
    wrong_radius["records"][0]["radius"] = "1/3"
    with pytest.raises(SpecFileError):
        parse_certificate(json.dumps(wrong_radius))

    bool_level = json.loads(json.dumps(base))
    bool_level["records"][0]["m"] = True
    with pytest.raises(SpecFileError):
        parse_certificate(json.dumps(bool_level))

    not_nested = json.loads(json.dumps(base))
    not_nested["records"].append(
        {"m": 1, "I": ["-1", "0"], "J": ["3", "4"], "radius": "1/2"}
    )
    with pytest.raises(SpecFileError):
        parse_certificate(json.dumps(not_nested))

    with pytest.raises(SpecFileError):
        parse_certificate(json.dumps({"meta": {}}))
    with pytest.raises(SpecFileError):
        parse_certificate("{")
    with pytest.raises(SpecFileError):
        parse_certificate("[" * 100_000 + "]" * 100_000)


def _huge_level_certificate(position: int, m: int) -> str:
    records = [
        {"m": k, "I": ["-1", "2"], "J": ["-1", "2"], "radius": "1"}
        for k in range(position)
    ]
    # the radius 2^-m is never built: the level is checked first
    records.append({"m": m, "I": ["-1", "2"], "J": ["-1", "2"], "radius": "1"})
    return json.dumps(
        {"meta": {}, "records": records, "s_phi": ["0", "1"], "s_psi": ["0", "1"]}
    )


@pytest.mark.parametrize("position", [0, 1])
@pytest.mark.parametrize("m", [10**12, -(10**12)])
def test_parse_certificate_rejects_huge_levels_first(position: int, m: int) -> None:
    with pytest.raises(SpecFileError, match=f"record {position} has level {m}"):
        parse_certificate(_huge_level_certificate(position, m))


# ------------------------------------------------------ certificate pins

# sha256 prefixes of emit_certificate(refine_sequence(pair, 4), {}); any
# change that must leave certificates unchanged has to keep them
CERTIFICATE_PINS = {
    "diagonals": (diagonal_pair, "a42aa772ea7ace87"),
    "curved": (curved_pair, "997d14b1e59cac4b"),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_PINS))
def test_four_round_certificates_are_pinned(name: str) -> None:
    pair, prefix = CERTIFICATE_PINS[name]
    text = emit_certificate(refine_sequence(*pair(), 4), {})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == prefix


# the same for refine_sequence(pair, 6)
SIX_ROUND_CERTIFICATE_PINS = {
    "diagonals": (diagonal_pair, "0fdc89e36881ce31"),
    "curved": (curved_pair, "90b6dc8972e42ccc"),
}


@pytest.mark.parametrize("name", sorted(SIX_ROUND_CERTIFICATE_PINS))
def test_six_round_certificates_are_pinned(name: str) -> None:
    pair, prefix = SIX_ROUND_CERTIFICATE_PINS[name]
    text = emit_certificate(refine_sequence(*pair(), 6), {})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == prefix


def _table_spec_pair():
    path = Path(__file__).parents[1] / "scripts" / "table_spec.json"
    return parse_path_spec(path.read_text(encoding="utf-8"))


# the same for refine_sequence(pair, rounds) at 12 and 16 rounds, which
# run the parity route and the shrink step at higher precisions, and for
# the two 300-row tables of scripts/table_spec.json at 8 rounds
DEEP_CERTIFICATE_PINS = {
    ("diagonals", 12): (diagonal_pair, "009f485f3fdfe146"),
    ("diagonals", 16): (diagonal_pair, "c5c1879b2168f834"),
    ("curved", 12): (curved_pair, "c14fb621236fe049"),
    ("curved", 16): (curved_pair, "664fa6c5090b79c8"),
    ("table_spec", 8): (_table_spec_pair, "acafeb977fbb23ce"),
}


@pytest.mark.parametrize("name, rounds", sorted(DEEP_CERTIFICATE_PINS))
def test_deep_certificates_are_pinned(name: str, rounds: int) -> None:
    pair, prefix = DEEP_CERTIFICATE_PINS[name, rounds]
    text = emit_certificate(refine_sequence(*pair(), rounds), {})
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == prefix


# ------------------------------------------------------ intersect command


@pytest.fixture(scope="module")
def deep_run(tmp_path_factory) -> dict[str, Path]:
    """One shared intersect run over the diagonal spec at depth 10."""
    root = tmp_path_factory.mktemp("deep")
    spec = root / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    cert_file = root / "cert.json"
    svg_file = root / "picture.svg"
    code = main(
        [
            "intersect",
            str(spec),
            "--iterations",
            "10",
            "--verify-postconditions",
            "-o",
            str(cert_file),
            "--emit-svg",
            str(svg_file),
        ]
    )
    assert code == 0
    return {"spec": spec, "cert": cert_file, "svg": svg_file}


def test_intersect_pins_diagonal_crossing(deep_run: dict[str, Path]) -> None:
    cert, meta = parse_certificate(deep_run["cert"].read_text("utf-8"))
    assert len(cert.records) == 11
    assert F(1, 2) in cert.s_phi
    assert F(1, 2) in cert.s_psi
    assert meta["iterations"] == 10
    assert meta["verified_postconditions"] is True
    assert meta["format"] == "curvemeet-certificate"
    assert len(meta["input_sha256"]) == 64


def test_intersect_output_is_byte_identical(tmp_path: Path) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = main(
            ["intersect", str(spec), "--iterations", "1", "-o", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_intersect_reports_parse_failures(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, "1/0", 0], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        encoding="utf-8",
    )
    assert main(["intersect", str(spec), "-o", str(tmp_path / "c")]) == 2
    assert "error:" in capsys.readouterr().err

    assert main(["intersect", str(tmp_path / "missing.json"), "-o", "-"]) == 2


def test_intersect_reports_a_failed_invariant(
    tmp_path: Path, capsys, monkeypatch
) -> None:
    # no low run with an odd crossing count: exit 6, one error line
    monkeypatch.setattr(refine_module, "function_parity", lambda *args, **kwargs: 0)
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    assert main(["intersect", str(spec), "--iterations", "1", "-o", "-"]) == 6
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip().splitlines() == [
        "error: no low-distance run carries an odd crossing count"
    ]


def test_intersect_rejects_wrong_corners(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 1, 1], [1, 1, 1]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        encoding="utf-8",
    )
    assert main(["intersect", str(spec), "-o", str(tmp_path / "c")]) == 3
    assert "error:" in capsys.readouterr().err


def test_wrong_corner_error_prints_the_corner_as_a_pair(
    tmp_path: Path, capsys
) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "phi": {"type": "polyline", "data": [[0, 0, 0], [1, 1, "1/2"]]},
                "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
            }
        ),
        encoding="utf-8",
    )
    assert main(["intersect", str(spec)]) == 3
    captured = capsys.readouterr()
    assert captured.err == "error: path value at 1 is provably not the corner (1, 1)\n"
    assert captured.out == ""


ANTI_DIAGONAL = {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]}
OUTSIDE_THE_SQUARE = {
    # a vertex leaves the square; refinement used to end in exit 6
    "polyline": (
        [[0, 0, 0], ["1/4", "3/2", "-1/2"], ["1/2", "5/2", "-1/2"],
         ["3/4", "5/2", "1/2"], [1, 1, 1]],
        "(3/2, -1/2)",
    ),
    # only the vertex of y's parabola leaves it, at t* = 3/4
    "quad_bezier": ([[0, 0], ["1/2", "3/2"], [1, 1]], "(3/4, 9/8)"),
}


@pytest.mark.parametrize("kind", sorted(OUTSIDE_THE_SQUARE))
def test_intersect_rejects_a_curve_leaving_the_unit_square(
    tmp_path: Path, capsys, kind: str
) -> None:
    data, point = OUTSIDE_THE_SQUARE[kind]
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps({"phi": {"type": kind, "data": data}, "psi": ANTI_DIAGONAL}),
        encoding="utf-8",
    )
    start = time.perf_counter()
    assert main(["intersect", str(spec), "--iterations", "8"]) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"error: phi leaves the unit square at {point}\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "args",
    [
        ["intersect", "SPEC", "--iterations", "1", "-o", "MISSING/c.json"],
        ["intersect", "SPEC", "--iterations", "1", "-o", "OUT", "--emit-svg", "MISSING/x.svg"],
        ["render", "SPEC", "-o", "MISSING/x.svg"],
    ],
)
def test_unwritable_output_exits_with_one_error_line(
    tmp_path: Path, capsys, args: list[str]
) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    paths = {"SPEC": str(spec), "OUT": str(tmp_path / "c.json")}
    missing = str(tmp_path / "missing" / "dir")
    argv = [paths.get(a, a.replace("MISSING", missing)) for a in args]
    assert main(argv) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {missing}/")
    assert captured.out == ""


# --------------------------------------------------------- parity command


def test_parity_full_domain_prints_one(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    assert main(["parity", str(spec)]) == 0
    out = capsys.readouterr().out
    assert "parity 1" in out
    assert "alpha in [" in out


def test_parity_far_windows_print_zero(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    code = main(
        ["parity", str(spec), "-I", "-1", "-1/2", "-J", "3/2", "2"]
    )
    assert code == 0
    assert "parity 0" in capsys.readouterr().out


def test_parity_prints_the_working_precision(tmp_path: Path, capsys) -> None:
    # the first positive floor, 1/128 at precision 4, alone would set
    # n = 9; tightened at 5, the floor certifies n = 6
    spec = tmp_path / "spec.json"
    spec.write_text(THREE_CROSSING_SPEC, encoding="utf-8")
    assert main(["parity", str(spec), "-I", "5/8", "1", "-J", "0", "1"]) == 0
    assert capsys.readouterr().out == (
        "parity 1\n"
        "alpha in [15/256, 5/32] (measured at precision 5, working precision 6)\n"
    )


@pytest.mark.parametrize("effort", [1, 3])
def test_parity_effort_caps_the_first_probe(
    tmp_path: Path, capsys, effort: int
) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    code = main(["parity", str(spec), "--effort", str(effort)])
    captured = capsys.readouterr()
    if code == 4:
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: ")
    else:
        assert code == 0
        measured = captured.out.split("measured at precision ")[1]
        assert int(measured.split(",")[0]) <= effort


def test_effort_help_names_the_probes_not_the_working_precision(capsys) -> None:
    with pytest.raises(SystemExit):
        main(["parity", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "maximum precision of the clearance probes, not of the working" in text


def test_effort_is_an_option_of_parity_only(tmp_path: Path, capsys) -> None:
    # intersect and render run no clearance probe, so they take no --effort
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    for command in ("intersect", "render"):
        assert main([command, str(spec), "--effort", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "--effort" in lines[0]
    assert main(["parity", str(spec), "--effort", "3"]) == 0
    assert capsys.readouterr().out.startswith("parity 1\n")


def test_parity_endpoint_on_curve_exhausts_effort(
    tmp_path: Path, capsys
) -> None:
    # phi(1/2) lies on psi's image, so the clearance is exactly zero and
    # no probe precision can certify it positive
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    code = main(
        ["parity", str(spec), "-I", "1/2", "2", "--effort", "8"]
    )
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_parity_rejects_malformed_interval(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    assert main(["parity", str(spec), "-I", "1/0", "2"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "args",
    [
        ["parity", "SPEC", "-I", "0", "5"],  # window outside [-1, 2]
        ["parity", "SPEC", "-I", "1/2", "1/2"],  # empty window
        ["intersect", "SPEC", "--iterations", "-1"],
        ["intersect", "SPEC", "--iterations", "0", "--effort", "-3"],
        ["parity", "SPEC", "--effort", "0"],
        ["intersect", "SPEC", "--iterations", "two"],
    ],
)
def test_invalid_arguments_exit_with_one_error_line(
    tmp_path: Path, capsys, args: list[str]
) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    assert main([str(spec) if a == "SPEC" else a for a in args]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert captured.out == ""


def test_iterations_above_the_bound_exit_at_once(tmp_path: Path, capsys) -> None:
    # 257 rounds take seconds on the diagonals and far longer on curves,
    # and the certificate grows with the square of the rounds
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    start = time.perf_counter()
    args = ["intersect", str(spec), "--iterations", str(MAX_ITERATIONS + 1)]
    assert main(args) == 2
    assert time.perf_counter() - start < 1
    captured = capsys.readouterr()
    assert captured.err == f"error: --iterations must lie in [0, {MAX_ITERATIONS}]\n"
    assert captured.out == ""


def test_window_outside_domain_error_names_both_intervals(
    tmp_path: Path, capsys
) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    assert main(["parity", str(spec), "-I", "0", "5"]) == 2
    assert capsys.readouterr().err == "error: [0, 5] is not inside [-1, 2]\n"


def test_exponent_literals_fail_fast(tmp_path: Path, capsys) -> None:
    # Fraction("1e999999999") would build 10^999999999 and stall
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text(
        DIAG_SPEC.replace("[1, 1, 1]", '[1, "1e999999999", 1]'), encoding="utf-8"
    )
    for args in (
        ["parity", str(bad_spec)],
        ["parity", str(spec), "-I", "1e999999999", "1"],
        ["parity", str(spec), "-J", "0", "1e999999999"],
    ):
        start = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - start < 10
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'1e999999999'" in err


def _table_spec(rows: int, modulus: int) -> str:
    data = [[f"{k}/{rows - 1}"] * 3 for k in range(rows)]
    return json.dumps(
        {
            "phi": {"type": "table", "modulus": modulus, "data": data},
            "psi": {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]},
        }
    )


def test_table_rows_are_bounded(tmp_path: Path, capsys) -> None:
    # validating a table compares sample pairs; 10k rows used to take
    # about 20 minutes
    spec = tmp_path / "spec.json"
    spec.write_text(_table_spec(10_000, 2), encoding="utf-8")
    start = time.perf_counter()
    assert main(["parity", str(spec)]) == 2
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().err == (
        f"error: a table path has at most {MAX_TABLE_ROWS} rows, got 10000\n"
    )
    phi, _ = parse_path_spec(_table_spec(MAX_TABLE_ROWS, 3))
    assert isinstance(phi, TablePath)
    with pytest.raises(SpecFileError):
        parse_path_spec(_table_spec(MAX_TABLE_ROWS + 1, 3))


def _prime_spec(rows: int, kind: str = "polyline") -> str:
    """phi along x = y, with samples at t_k = (k+1)/(rows+2) + 1/(10 *
    (rows+2) * p_k), p_k the k-th prime, between (0, 0) and (1, 1): the
    parameter spans share few factors, so their lcm grows with every row."""
    primes: list[int] = []
    c = 2
    while len(primes) < rows:
        if all(c % q for q in primes if q * q <= c):
            primes.append(c)
        c += 1
    ts = [F(k + 1, rows + 2) + F(1, 10 * (rows + 2) * p) for k, p in enumerate(primes)]
    data = [[0, 0, 0], *([str(t)] * 3 for t in ts), [1, 1, 1]]
    phi = {"type": kind, "data": data}
    if kind == "table":
        phi["modulus"] = 2
    anti = {"type": "polyline", "data": [[0, 0, 1], [1, 1, 0]]}
    return json.dumps({"phi": phi, "psi": anti})


def test_polyline_forms_are_bounded(tmp_path: Path, capsys) -> None:
    # 1 200 such rows gave a vertex denominator of 47 549 bits, and
    # `intersect --iterations 2` took 20 s, 4 s of it parsing
    spec = tmp_path / "spec.json"
    spec.write_text(_prime_spec(1200), encoding="utf-8")
    start = time.perf_counter()
    assert main(["intersect", str(spec), "--iterations", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: invalid path spec: the samples' integers exceed"
        f" {MAX_FORM_BITS} bits\n"
    )
    with pytest.raises(SpecFileError, match="integers exceed"):
        parse_path_spec(_prime_spec(MAX_TABLE_ROWS - 2, "table"))
    phi, _ = parse_path_spec(_prime_spec(25))
    assert phi._vden.bit_length() + phi._pscale.bit_length() <= MAX_FORM_BITS


def _wide_bezier_spec(digits: int) -> str:
    """Bezier corner paths over the digits-digit integers q_k = k33...3,
    with h_k = (q_k // 2) / q_k: phi's control points have the common
    denominator lcm(q1, q2, q3, q6), psi's lcm(q4, q5)."""
    q = {k: int(str(k) + "3" * (digits - 1)) for k in range(1, 7)}
    h = {k: f"{q[k] // 2}/{q[k]}" for k in q}
    phi = [[f"1/{q[1]}", 0], [h[2], h[3]], [f"{q[6] - 1}/{q[6]}", 1]]
    psi = [[0, 1], [h[4], h[5]], [1, 0]]
    return json.dumps(
        {
            "phi": {"type": "quad_bezier", "data": phi},
            "psi": {"type": "quad_bezier", "data": psi},
        }
    )


def test_bezier_forms_are_bounded(tmp_path: Path, capsys) -> None:
    # with 2 000-digit q_k (26 567 bits for phi), `intersect --iterations
    # 2` took 64 s and 175 MB
    spec = tmp_path / "spec.json"
    spec.write_text(_wide_bezier_spec(2000), encoding="utf-8")
    start = time.perf_counter()
    assert main(["intersect", str(spec), "--iterations", "2"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: invalid path spec: the control points' integers exceed"
        f" {MAX_FORM_BITS} bits\n"
    )
    phi, psi = parse_path_spec(_wide_bezier_spec(300))
    assert isinstance(phi, QuadBezierPath) and isinstance(psi, QuadBezierPath)
    assert 3900 < phi._den.bit_length() <= MAX_FORM_BITS


def test_the_benchmark_table_spec_is_the_generated_one() -> None:
    # `scripts/bench_refine.py --spec` times this file
    path = Path(__file__).parents[1] / "scripts" / "table_spec.json"
    text = path.read_text(encoding="utf-8")
    assert text == bent_table_spec(300)
    phi, psi = parse_path_spec(text)
    assert isinstance(phi, TablePath) and isinstance(psi, TablePath)


@pytest.mark.parametrize("modulus", (16, 24, 40, 15000, 10**12))
def test_table_modulus_beyond_the_track_budget_exits_4(
    tmp_path: Path, capsys, modulus: int
) -> None:
    # the first shrink grid of a table claiming modulus m has about
    # 3 * 2^(m+6) points; such grids used to end in a MemoryError, and
    # from m = 15000 on in a traceback or a stall while sizing them
    spec = tmp_path / "spec.json"
    spec.write_text(_table_spec(2, modulus), encoding="utf-8")
    out = tmp_path / "cert.json"
    start = time.perf_counter()
    assert main(["intersect", str(spec), "--iterations", "1", "-o", str(out)]) == 4
    assert time.perf_counter() - start < 10
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: a track grid of ")
    assert not out.exists()


# --------------------------------------------------------- render command


def _svg_polyline_points(svg: str) -> list[tuple[float, float]]:
    ns = {"svg": "http://www.w3.org/2000/svg"}
    root = ET.fromstring(svg)
    points: list[tuple[float, float]] = []
    for node in root.findall(".//svg:g[@id='highlight']/svg:polyline", ns):
        for chunk in node.attrib["points"].split():
            x, y = chunk.split(",")
            points.append((float(x), float(y)))
    return points


def test_render_without_certificate_draws_curves_only(
    tmp_path: Path,
) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    out = tmp_path / "plain.svg"
    assert main(["render", str(spec), "-o", str(out)]) == 0
    svg = out.read_text("utf-8")
    ET.fromstring(svg)
    assert svg.count("<path ") == 2
    assert "highlight" not in svg


def test_render_highlights_final_intervals(deep_run: dict[str, Path]) -> None:
    svg = deep_run["svg"].read_text("utf-8")
    ET.fromstring(svg)
    assert svg.count("<path ") == 2
    assert svg.count('<g id="highlight"') == 1
    points = _svg_polyline_points(svg)
    assert len(points) == 66
    # depth-10 intervals are tiny, so every highlight point hugs the
    # known crossing of the diagonals
    assert all(abs(x - 0.5) < 0.01 and abs(y - 0.5) < 0.01 for x, y in points)


def test_render_highlight_lands_on_curved_crossing(tmp_path: Path) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(BEZIER_SPEC, encoding="utf-8")
    # certificate file built around the solver crossing of this pair
    s_star, t_star = F("0.4203947993"), F("0.2741969921")
    tight_i = Interval(s_star - F(1, 256), s_star + F(1, 256))
    tight_j = Interval(t_star - F(1, 256), t_star + F(1, 256))
    cert = Certificate(
        (RefinementRecord(0, FULL, FULL), RefinementRecord(1, tight_i, tight_j)),
        tight_i,
        tight_j,
    )
    cert_file = tmp_path / "cert.json"
    cert_file.write_text(emit_certificate(cert, {}), encoding="utf-8")
    out = tmp_path / "curved.svg"
    code = main(
        ["render", str(spec), "--certificate", str(cert_file), "-o", str(out)]
    )
    assert code == 0
    points = _svg_polyline_points(out.read_text("utf-8"))
    assert points
    x_star = (0.2741969921, 0.5665926066)
    assert all(
        abs(x - x_star[0]) < 0.05 and abs(y - x_star[1]) < 0.05
        for x, y in points
    )


def test_render_rejects_invalid_certificate(tmp_path: Path, capsys) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code = main(
        ["render", str(spec), "--certificate", str(bad), "-o", "-"]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize("m", [10**12, -(10**12)])
def test_render_rejects_huge_record_level(tmp_path: Path, capsys, m: int) -> None:
    spec = tmp_path / "spec.json"
    spec.write_text(DIAG_SPEC, encoding="utf-8")
    cert = tmp_path / "huge.json"
    cert.write_text(_huge_level_certificate(1, m), encoding="utf-8")
    code = main(["render", str(spec), "--certificate", str(cert), "-o", "-"])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: record 1 has level {m}"]


def test_render_api_matches_cli_output(deep_run: dict[str, Path]) -> None:
    from curvemeet import diagonal_pair

    cert, _ = parse_certificate(deep_run["cert"].read_text("utf-8"))
    phi, psi = diagonal_pair()
    assert render_svg(phi, psi, cert) == deep_run["svg"].read_text("utf-8")
