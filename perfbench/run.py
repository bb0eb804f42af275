"""Run the pulse-serving benchmark once.

    python3 perfbench/run.py --workload warm_hits --seed 1 --seconds 40 --trace 0

Builds nothing: the program is the pure-Python ``src/`` tree next to
this directory.  The last line of standard output is the result as one
JSON object; ``.perfbench/results/`` keeps the full report.
"""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _main() -> int:
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(f"perfbench: nothing to measure, {package} is missing", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from cqbench.main import main

    return main(root=ROOT)


if __name__ == "__main__":
    sys.exit(_main())
