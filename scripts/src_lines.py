"""Count the code lines of each curvemeet module.

A code line holds some token other than a comment; docstrings (the
string that opens a module, class or function) and blank lines are not
code.  Prints one line per module of src/curvemeet, the total, and the
`pipeline` total of the modules that `import curvemeet.cli` loads (found
in a fresh interpreter that imports the package from the parent of
--src), the figures that CHANGES.md quotes for each change:

    python scripts/src_lines.py [--src DIR]
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def pipeline_modules(src: Path) -> set[str]:
    """The file names of the modules of package src that importing its
    cli module loads, in a fresh isolated interpreter that writes no
    bytecode: -I ignores PYTHONDONTWRITEBYTECODE, and a `__pycache__`
    left in src would spare a later run in that tree the compiling that
    its set-up time measures.  Exits 2 with one error line if that
    import fails: src is no package with a cli module."""
    code = (
        "import importlib, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "importlib.import_module(sys.argv[2] + '.cli')\n"
        "for name, mod in list(sys.modules.items()):\n"
        "    if name.split('.')[0] == sys.argv[2]:\n"
        "        print(mod.__file__)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-B", "-c", code, str(src.resolve().parent), src.name],
        capture_output=True,
        text=True,
    )
    if proc.returncode:
        reason = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        print(f"error: cannot import {src.name}.cli from {src}: {reason}", file=sys.stderr)
        raise SystemExit(2)
    return {Path(line).name for line in proc.stdout.splitlines()}


def main() -> None:
    default = Path(__file__).resolve().parents[1] / "src" / "curvemeet"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=default, help="package directory")
    args = parser.parse_args()
    loaded = pipeline_modules(args.src)
    total = pipeline = 0
    for path in sorted(args.src.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        pipeline += count if path.name in loaded else 0
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")
    print(f"{'pipeline':<16} {pipeline:>6}")


if __name__ == "__main__":
    main()
