"""Make ``fevesbench`` (and the program) importable for the self-tests."""

import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent.parent
for path in (SUITE_DIR, SUITE_DIR.parent.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
