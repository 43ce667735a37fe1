"""Make the repository's ``src`` and the benchmark's modules importable."""

import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent

for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

# The benchmark process caps BLAS threads before numpy loads; so do the
# tests, so traced and untraced model runs use the same kernels.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
