"""Test-process set-up, run by pytest before it imports any test module.

Pins OpenBLAS to one thread unless the caller chose a count.  The matmuls
under test are small, and with more threads OpenBLAS spins extra cores
without lowering wall time.  The variable only takes effect if numpy has
not been imported yet.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
