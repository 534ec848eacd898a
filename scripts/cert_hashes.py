"""Certificate hashes of both builtin pairs, for checking bit-identity.

Prints, for each builtin pair and each round count k, the first 16 hex
digits of the sha256 of `emit_certificate(refine_sequence(phi, psi, k),
{})`, and with --expect fails unless they equal the given prefixes, in
the printed order.  With --spec FILE the pair of a path spec file is
hashed instead of the builtin pairs.

Usage:
    python scripts/cert_hashes.py --rounds 6 12 16 [--expect H1 H2 ...]
    python scripts/cert_hashes.py --spec scripts/table_spec.json --rounds 8
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from curvemeet import curved_pair, diagonal_pair, refine_sequence
from curvemeet.cli import emit_certificate, load_path_spec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, nargs="+", default=[6, 12, 16])
    parser.add_argument("--expect", nargs="+", metavar="PREFIX")
    parser.add_argument(
        "--spec", metavar="FILE", help="hash this path spec's pair instead"
    )
    args = parser.parse_args()

    if args.spec:
        pairs = [(Path(args.spec).name, load_path_spec(args.spec)[:2])]
    else:
        pairs = [("diagonals", diagonal_pair()), ("curved", curved_pair())]
    got = []
    for name, pair in pairs:
        for k in args.rounds:
            text = emit_certificate(refine_sequence(*pair, k), {})
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
            got.append(digest)
            print(f"{name} {k} {digest}")
    if args.expect is not None and args.expect != got:
        print("error: hashes differ from --expect", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
