"""Command-line front end: intersect, parity and render subcommands.

Input curves arrive as a small JSON document holding two path
descriptors; all coordinates are exact rationals written as integers or
"p/q" strings.  Certificates are emitted as JSON with the same rational
encoding so that emitting and re-parsing loses nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import (
    CurveMeetError,
    EffortExhausted,
    EndpointViolation,
    OutOfDomain,
    PreconditionViolated,
    SpecFileError,
    UsageError,
)
from .exact_geom import Interval, Point, pow2, pt
from .parity import _near_sweep, working_precision
from .paths import (
    _EXTENDED_DOMAIN,
    _UNIT_DOMAIN,
    PathOracle,
    PolylinePath,
    QuadBezierPath,
    Side,
    TablePath,
    extend,
)
from .refine import (
    Certificate,
    RefinementRecord,
    refine_sequence,
    verify_certificate,
)

_CERT_FORMAT = "curvemeet-certificate"
# `TablePath.validate` compares every pair of samples closer in t than the
# table's widest modulus window: about 0.06 s for 500 rows that all share
# one window (Python 3.11, 2 CPUs), growing with the square of the rows.
MAX_TABLE_ROWS = 500
# a round costs more the deeper it refines, and the certificate grows with
# the square of the rounds: `refine_sequence` took 0.98 / 2.3 / 8.7 s on
# the curved pair and 0.08 / 0.17 / 0.40 s on the diagonals for 64 / 128 /
# 256 rounds, with certificates of 26 / 92 / 347 KB (Python 3.11, 2 CPUs)
MAX_ITERATIONS = 256


# ---------------------------------------------------------------- parsing


_RATIONAL_LITERAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def _parse_rational(text: str) -> Fraction:
    """Fraction from an integer or 'p/q' literal, the only accepted forms.

    `Fraction(str)` alone also takes exponents, and "1e999999999" would
    build a billion-digit integer before anything could reject it.
    """
    if not _RATIONAL_LITERAL.fullmatch(text):
        raise ValueError(f"expected an integer or 'p/q' literal, got {text!r}")
    return Fraction(text)


def _rat_value(value) -> Fraction:
    """Rational from the JSON encodings: integer or 'p/q' string."""
    if isinstance(value, bool):
        raise SpecFileError("booleans are not rational values")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _parse_rational(value)
    raise SpecFileError(
        f"rationals must be integers or 'p/q' strings, got {value!r}"
    )


def _point_row(row) -> tuple[Fraction, Fraction]:
    if not isinstance(row, list) or len(row) != 2:
        raise SpecFileError(f"expected an [x, y] pair, got {row!r}")
    return _rat_value(row[0]), _rat_value(row[1])


def _sample_row(row) -> tuple[Fraction, tuple[Fraction, Fraction]]:
    if not isinstance(row, list) or len(row) != 3:
        raise SpecFileError(f"expected a [t, x, y] triple, got {row!r}")
    return _rat_value(row[0]), (_rat_value(row[1]), _rat_value(row[2]))


def _build_path(node) -> PathOracle:
    if not isinstance(node, dict) or "type" not in node:
        raise SpecFileError("each path descriptor needs a 'type' field")
    kind = node["type"]
    data = node.get("data")
    if not isinstance(data, list):
        raise SpecFileError("each path descriptor needs a 'data' array")
    if kind == "polyline":
        path = PolylinePath([_sample_row(r) for r in data])
    elif kind == "quad_bezier":
        if len(data) != 3:
            raise SpecFileError("a quadratic Bezier needs 3 control points")
        points = [_point_row(r) for r in data]
        path = QuadBezierPath(*(pt(x, y) for x, y in points))
    elif kind == "table":
        offset = node.get("modulus")
        # JSON true and false are ints to Python, not offsets
        if not isinstance(offset, int) or isinstance(offset, bool):
            raise SpecFileError("a table path needs an integer 'modulus' offset")
        if len(data) > MAX_TABLE_ROWS:
            raise SpecFileError(
                f"a table path has at most {MAX_TABLE_ROWS} rows, got {len(data)}"
            )
        path = TablePath([_sample_row(r) for r in data], modulus_offset=offset)
        path.validate()
    else:
        raise SpecFileError(f"unknown path type {kind!r}")
    # only a unit-interval path can be extended to [-1, 2]
    if path.domain != _UNIT_DOMAIN:
        raise SpecFileError(f"a path must run over t in [0, 1], not {path.domain}")
    return path


def parse_path_spec(text: str) -> tuple[PathOracle, PathOracle]:
    """Two path oracles from the JSON document {"phi": ..., "psi": ...}."""
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise SpecFileError("the path spec must be a JSON object")
        if "phi" not in data or "psi" not in data:
            raise SpecFileError("the path spec needs 'phi' and 'psi' entries")
        return _build_path(data["phi"]), _build_path(data["psi"])
    except SpecFileError:
        raise
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise SpecFileError(f"invalid path spec: {exc}") from exc


def load_path_spec(path: str) -> tuple[PathOracle, PathOracle, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise SpecFileError(f"cannot read {path}: {exc}") from exc
    phi, psi = parse_path_spec(raw.decode("utf-8", errors="replace"))
    return phi, psi, raw


# ------------------------------------------------- certificate (de)coding


def emit_certificate(cert: Certificate, meta: dict) -> str:
    """Deterministic JSON encoding; identical certificates and metadata
    yield byte-identical text."""
    obj = {
        "meta": meta,
        "records": [
            {
                "m": rec.m,
                "I": [str(rec.i.lo), str(rec.i.hi)],
                "J": [str(rec.j.lo), str(rec.j.hi)],
                "radius": str(pow2(-rec.m)),
            }
            for rec in cert.records
        ],
        "s_phi": [str(cert.s_phi.lo), str(cert.s_phi.hi)],
        "s_psi": [str(cert.s_psi.lo), str(cert.s_psi.hi)],
    }
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _interval_from(value) -> Interval:
    if not isinstance(value, list) or len(value) != 2:
        raise SpecFileError(f"expected an interval [lo, hi], got {value!r}")
    return Interval(_rat_value(value[0]), _rat_value(value[1]))


def parse_certificate(text: str) -> tuple[Certificate, dict]:
    """Inverse of emit_certificate; validates radii and nesting."""
    try:
        data = json.loads(text)
        records = []
        for position, entry in enumerate(data["records"]):
            m = entry["m"]
            if not isinstance(m, int) or isinstance(m, bool):
                raise SpecFileError("record levels must be integers")
            # before pow2(-m), whose cost grows with |m|
            if m != position:
                raise SpecFileError(f"record {position} has level {m}")
            if _rat_value(entry["radius"]) != pow2(-m):
                raise SpecFileError(f"record {m} carries the wrong radius")
            records.append(
                RefinementRecord(
                    m, _interval_from(entry["I"]), _interval_from(entry["J"])
                )
            )
        cert = Certificate(
            tuple(records),
            _interval_from(data["s_phi"]),
            _interval_from(data["s_psi"]),
        )
        meta = data.get("meta", {})
        if not isinstance(meta, dict):
            raise SpecFileError("certificate metadata must be an object")
        return cert, meta
    except SpecFileError:
        raise
    except (ValueError, KeyError, TypeError, ZeroDivisionError, RecursionError) as exc:
        raise SpecFileError(f"invalid certificate: {exc}") from exc


# -------------------------------------------------------------- rendering


def _fmt(x: Fraction) -> str:
    return f"{float(x):.6f}"


def _curve_coords(curve: PathOracle, iv: Interval, count: int) -> list[str]:
    step = iv.width() / count
    coords = []
    for k in range(count + 1):
        z = curve.eval_approx(iv.lo + k * step, 12)
        coords.append(f"{_fmt(z.x)},{_fmt(z.y)}")
    return coords


def render_svg(
    phi: PathOracle, psi: PathOracle, cert: Certificate | None
) -> str:
    """SVG picture of both extended curves over [-1, 2], the unit square,
    and (with a certificate) the images of the final interval pair."""
    f = extend(phi, Side.LOWER)
    g = extend(psi, Side.UPPER)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'viewBox="-1.2 -2.2 3.4 3.4">',
        '<g transform="scale(1,-1)" fill="none">',
        '<rect x="0" y="0" width="1" height="1" stroke="#999999" '
        'stroke-width="0.008"/>',
        f'<path stroke="#1f5fbf" stroke-width="0.016" '
        f'd="M {" L ".join(_curve_coords(f, _EXTENDED_DOMAIN, 256))}"/>',
        f'<path stroke="#bf4f1f" stroke-width="0.016" '
        f'd="M {" L ".join(_curve_coords(g, _EXTENDED_DOMAIN, 256))}"/>',
    ]
    if cert is not None:
        final = cert.final
        lines.append(
            '<g id="highlight" stroke-width="0.04" stroke-linecap="round">'
        )
        lines.append(
            f'<polyline stroke="#00a040" '
            f'points="{" ".join(_curve_coords(f, final.i, 32))}"/>'
        )
        lines.append(
            f'<polyline stroke="#a000a0" '
            f'points="{" ".join(_curve_coords(g, final.j, 32))}"/>'
        )
        lines.append("</g>")
    lines.extend(["</g>", "</svg>", ""])
    return "\n".join(lines)


# ------------------------------------------------------------ subcommands


def _write_output(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc


def _outside_point(path: PathOracle) -> Point | None:
    """A point of a parsed curve outside the unit square, or None if it
    stays inside: a vertex of a polyline or table, else an end of the
    Bezier or, on an axis with coordinates a0, a1, a2, its value at the
    parabola's vertex t* = (a0 - a1) / (a0 - 2*a1 + a2) if 0 < t* < 1;
    each coordinate is extreme at an end or at its t*."""
    if isinstance(path, QuadBezierPath):
        p0, p1, p2 = path.p0, path.p1, path.p2
        points = [p0, p2]
        for a0, a1, a2 in ((p0.x, p1.x, p2.x), (p0.y, p1.y, p2.y)):
            bend = a0 - 2 * a1 + a2
            t = (a0 - a1) / bend if bend else 0
            if 0 < t < 1:
                points.append(
                    p0.scale((1 - t) ** 2) + p1.scale(2 * t * (1 - t)) + p2.scale(t * t)
                )
    else:
        points = [z for _, z in path.entries]
    return next((z for z in points if not (0 <= z.x <= 1 and 0 <= z.y <= 1)), None)


def _cmd_intersect(args: argparse.Namespace) -> int:
    if not 0 <= args.iterations <= MAX_ITERATIONS:
        raise UsageError(f"--iterations must lie in [0, {MAX_ITERATIONS}]")
    phi, psi, raw = load_path_spec(args.spec)
    # the paper's curves map [0, 1] into the unit square; refinement
    # relies on it, the parity and render commands do not
    for name, path in (("phi", phi), ("psi", psi)):
        z = _outside_point(path)
        if z is not None:
            raise SpecFileError(f"{name} leaves the unit square at {z}")
    cert = refine_sequence(
        phi, psi, args.iterations, verify_base_parity=args.verify_base_parity
    )
    if args.verify_postconditions:
        verify_certificate(cert, phi, psi)
    meta = {
        "format": _CERT_FORMAT,
        "version": __version__,
        "input_sha256": hashlib.sha256(raw).hexdigest(),
        "iterations": args.iterations,
        "verified_base_parity": bool(args.verify_base_parity),
        "verified_postconditions": bool(args.verify_postconditions),
    }
    _write_output(args.output, emit_certificate(cert, meta))
    if args.emit_svg:
        _write_output(args.emit_svg, render_svg(phi, psi, cert))
    return 0


def _cli_interval(bounds: list[str] | None) -> Interval:
    if bounds is None:
        return _EXTENDED_DOMAIN
    try:
        lo, hi = _parse_rational(bounds[0]), _parse_rational(bounds[1])
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid interval bound: {exc}") from exc
    if lo >= hi:
        raise UsageError(f"empty parameter interval [{lo}, {hi}]")
    return Interval(lo, hi)


def _cmd_parity(args: argparse.Namespace) -> int:
    if args.effort < 1:
        raise UsageError("--effort must be positive")
    i = _cli_interval(args.first_interval)
    j = _cli_interval(args.second_interval)
    phi, psi, _ = load_path_spec(args.spec)
    f = extend(phi, Side.LOWER)
    g = extend(psi, Side.UPPER)
    enc, n = working_precision(f, g, i, j, effort=args.effort)
    parity = _near_sweep(f, g, i, j, n, enc).parity
    print(f"parity {parity}")
    print(
        f"alpha in [{enc.lo}, {enc.hi}]"
        f" (measured at precision {enc.precision_used}, working precision {n})"
    )
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    phi, psi, _ = load_path_spec(args.spec)
    cert = None
    if args.certificate is not None:
        try:
            text = Path(args.certificate).read_text(encoding="utf-8")
        except OSError as exc:
            raise SpecFileError(
                f"cannot read {args.certificate}: {exc}"
            ) from exc
        cert, _meta = parse_certificate(text)
    _write_output(args.output, render_svg(phi, psi, cert))
    return 0


class _Parser(argparse.ArgumentParser):
    # interval bounds may be negative rationals like -1/2; teach the
    # option tokenizer to treat them as values rather than flags
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-\d+(/\d+)?$|^-\d*\.\d+$"
        )

    # a malformed command line is invalid input: one error line, exit 2
    def error(self, message: str):
        raise UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="curvemeet",
        description=(
            "Certified intersection of two corner-to-corner unit-square"
            " curves."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_int = sub.add_parser(
        "intersect", help="refine nested intervals around a crossing"
    )
    p_int.add_argument("spec", help="path spec JSON file")
    p_int.add_argument(
        "--iterations",
        type=int,
        default=16,
        help=f"number of refinement rounds, at most {MAX_ITERATIONS} (default 16)",
    )
    p_int.add_argument(
        "--verify-base-parity",
        action="store_true",
        help="recompute the full-domain parity instead of trusting it",
    )
    p_int.add_argument(
        "--verify-postconditions",
        action="store_true",
        help="recheck the neighborhood chain by dense sampling",
    )
    p_int.add_argument(
        "--emit-svg", metavar="PATH", help="also write an SVG rendering"
    )
    p_int.add_argument(
        "-o", "--output", default="-", help="certificate file (default stdout)"
    )
    p_int.set_defaults(func=_cmd_intersect)

    p_par = sub.add_parser(
        "parity", help="crossing parity of the extended curves on a window"
    )
    p_par.add_argument("spec", help="path spec JSON file")
    p_par.add_argument(
        "--effort",
        type=int,
        default=64,
        help=(
            "maximum precision of the clearance probes, not of the"
            " working precision they certify (default 64)"
        ),
    )
    p_par.add_argument(
        "-I",
        "--first-interval",
        nargs=2,
        metavar=("LO", "HI"),
        help="parameter window for the first curve (default -1 2)",
    )
    p_par.add_argument(
        "-J",
        "--second-interval",
        nargs=2,
        metavar=("LO", "HI"),
        help="parameter window for the second curve (default -1 2)",
    )
    p_par.set_defaults(func=_cmd_parity)

    p_ren = sub.add_parser("render", help="draw the curves as SVG")
    p_ren.add_argument("spec", help="path spec JSON file")
    p_ren.add_argument(
        "--certificate", metavar="PATH", help="highlight this certificate's final intervals"
    )
    p_ren.add_argument(
        "-o", "--output", default="-", help="SVG file (default stdout)"
    )
    p_ren.set_defaults(func=_cmd_render)
    return parser


# exit code of each error, first match wins; README.md lists them
_EXIT_CODES: tuple[tuple[type[CurveMeetError], int], ...] = (
    (SpecFileError, 2),
    (UsageError, 2),
    (OutOfDomain, 2),
    (EndpointViolation, 3),
    (EffortExhausted, 4),
    (PreconditionViolated, 5),
    (CurveMeetError, 6),
)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except CurveMeetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
