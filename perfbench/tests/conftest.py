"""Make the benchmark package and the program importable for its tests.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import pathlib
import sys

_HERE = pathlib.Path(__file__).resolve().parent
for path in (_HERE.parent.parent / "src", _HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
