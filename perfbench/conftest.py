"""Test set-up for the benchmark's own tests (``pytest perfbench``):
import the program from this checkout's ``src/`` and write no
bytecode next to it."""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
