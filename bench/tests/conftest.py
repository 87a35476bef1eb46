"""Make the benchmark's modules (``bench/*.py``) importable from its tests."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
