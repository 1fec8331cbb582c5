"""Conditional diffusion training, progressive step-halving distillation with
SNR-based loss weighting, and Frechet-distance evaluation on synthetic data.

The package root exports nothing: import each name from the module that
defines it, e.g. `from snrdistill.config import load_config`. The
`snrdistill` command is `snrdistill.cli:main`.
"""

__version__ = "0.1.0"
