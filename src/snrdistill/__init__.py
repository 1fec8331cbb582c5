"""Conditional diffusion training, progressive step-halving distillation with
SNR-based loss weighting, and Frechet-distance evaluation on synthetic data.

The package root exports nothing: import each name from the module that
defines it, e.g. `from snrdistill.config import load_config`. The
`snrdistill` command is `snrdistill.cli:main`.

Importing the package sets OPENBLAS_NUM_THREADS=1 unless one of the
variables OpenBLAS reads (`_blas_threads`) is already set above 0, so a
user's own setting wins. The package's matmuls are forward blocks of at most
257 rows, small enough for one BLAS thread; its parallelism is the forward's
own threads and forked processes, which fork only on one BLAS thread
(`nnet._one_blas_thread`). OpenBLAS reads the variable once, as numpy loads,
so this holds for the `snrdistill` command, `python -m snrdistill.cli` and a
script that imports the package before numpy, but not for a script that
imports numpy first: there the variable is left unset, and OpenBLAS keeps the
threads it started with.
"""

from __future__ import annotations

import os
import sys

__version__ = "0.1.0"


def _blas_threads() -> int | None:
    """The thread count numpy's OpenBLAS takes as it loads: the first of its
    variables that is set above 0, or None, which means one per CPU."""
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(os.environ.get(name, "0"))
        except ValueError:
            continue
        if threads > 0:
            return threads
    return None


if _blas_threads() is None and "numpy" not in sys.modules:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
