"""Time ``import dsapf`` from this checkout in a fresh interpreter.

    python3 perfbench/import_probe.py

Prints ``{"import_s": ...}``.  Only the standard library is imported before
the package, so the time includes numpy and scipy, as a user's first import
does.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def import_dsapf():
    """Import the package from this checkout's ``src``; returns it and the
    seconds the import took."""
    if not (SRC / "dsapf" / "__init__.py").is_file():
        raise SystemExit(f"no dsapf package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import dsapf
    import dsapf.cli  # noqa: F401  (the module the dsa-pf commands run from)
    elapsed = time.perf_counter() - start
    if Path(dsapf.__file__).resolve().parent != SRC / "dsapf":
        raise SystemExit(f"imported dsapf from {dsapf.__file__}, not from {SRC}")
    return dsapf, elapsed


if __name__ == "__main__":
    print(json.dumps({"import_s": import_dsapf()[1]}))
