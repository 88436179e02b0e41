"""What is left of the elimination backends: two facts for the benchmark.

The Riemann-Roch oracle in ``hyperelliptic`` eliminates nothing: a
remainder sequence gives its dimensions, in pure-Python list arithmetic.
The condition-matrix reference route that checks it, numpy elimination
kernel included, lives in the test suite (tests/reference_oracle.py).
``e2ebench/worker.py`` still reads ``HAVE_NUMBA`` and ``active_backend()``
on every run; both go when ``e2ebench/worker.py`` stops reading them.
"""

HAVE_NUMBA = False


def active_backend() -> str:
    """Name of the arithmetic backend: always ``"python"``."""
    return "python"
