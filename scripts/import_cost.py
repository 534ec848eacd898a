"""Time a fresh `import curvemeet.cli`, compiled from source and from bytecode.

Each run is a new isolated interpreter that first imports the standard
library modules curvemeet needs, as perfbench's set-up finds them
loaded, and then times the import of curvemeet's command line.  Runs
alternate between two modes, each with its own temporary bytecode
directory (`-X pycache_prefix`), so a `__pycache__` in the source tree
is never read:

* source: the directory stays empty and no bytecode is written (-B),
  so every curvemeet module is compiled, as under perfbench's
  PYTHONDONTWRITEBYTECODE=1;
* bytecode: one untimed run first writes the bytecode there.

Prints the median import time of each mode, the compile share (the part
of the source time that the bytecode saves) and the modules outside
curvemeet that the import adds to a bare interpreter.  The temporary
directories are removed afterwards.

    python scripts/import_cost.py [--runs N] [--src DIR]
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

# prints the modules outside curvemeet that importing its cli adds
ADDED = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import curvemeet.cli
added = set(sys.modules) - before
print(" ".join(sorted(m for m in added if m.split(".")[0] != "curvemeet")))
"""

# imports the given modules, then prints how long importing the cli takes
TIMED = """
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
for name in sys.argv[2:]:
    importlib.import_module(name)
start = time.perf_counter()
import curvemeet.cli
print(time.perf_counter() - start)
"""


def _run(code: str, prefix: str, write: bool, args: list[str]) -> str:
    flags = ["-I", "-X", f"pycache_prefix={prefix}"] + ([] if write else ["-B"])
    return subprocess.run(
        [sys.executable, *flags, "-c", code, *args],
        capture_output=True,
        text=True,
        check=True,
    ).stdout


def main() -> None:
    default = Path(__file__).resolve().parents[1] / "src"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=21, help="timed runs per mode")
    parser.add_argument("--src", type=Path, default=default, help="holds curvemeet/")
    args = parser.parse_args()
    if args.runs < 1:
        parser.error("--runs must be positive")
    src = str(args.src.resolve())
    source_dir, bytecode_dir = tempfile.mkdtemp(), tempfile.mkdtemp()
    try:
        added = _run(ADDED, source_dir, False, [src]).split()
        _run(TIMED, bytecode_dir, True, [src, *added])
        times: dict[str, list[float]] = {"source": [], "bytecode": []}
        for _ in range(args.runs):
            times["source"].append(float(_run(TIMED, source_dir, False, [src, *added])))
            times["bytecode"].append(float(_run(TIMED, bytecode_dir, True, [src, *added])))
    finally:
        shutil.rmtree(source_dir)
        shutil.rmtree(bytecode_dir)
    source, bytecode = (statistics.median(times[k]) for k in ("source", "bytecode"))
    print(f"source       {1000 * source:8.2f} ms  (median of {args.runs})")
    print(f"bytecode     {1000 * bytecode:8.2f} ms")
    print(f"compile share {100 * (1 - bytecode / source):7.1f} %")
    print(f"modules added ({len(added)}): {' '.join(added)}")


if __name__ == "__main__":
    main()
