"""Process set-up shared by the benchmark's entry points.

``prepare`` must run before numpy is imported: it pins the BLAS thread
count and puts the checkout's ``src`` first on ``sys.path``, so that the
``bwgan`` under test is the one built from this checkout's sources and
never an installed copy.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# One BLAS thread: the matmuls are small (at most 64 x 256 x 256), and with
# two threads OpenBLAS spins a second core without lowering wall time, which
# only adds noise on a 2-core machine.
BLAS_THREADS = 1
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CheckoutError(RuntimeError):
    """The checkout does not hold the bwgan sources."""


def prepare():
    if "numpy" in sys.modules:
        raise RuntimeError("prepare() must run before numpy is imported")
    for var in BLAS_VARIABLES:
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "bwgan" / "__init__.py").is_file():
        raise CheckoutError(f"no bwgan sources under {SRC}")
    sys.path.insert(0, str(SRC))


def check_origin(module):
    """Refuse a ``bwgan`` imported from anywhere but this checkout."""
    origin = Path(module.__file__).resolve()
    if SRC not in origin.parents:
        raise CheckoutError(f"bwgan was imported from {origin}, not {SRC}")
