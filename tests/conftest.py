"""Import the package before any test module imports numpy, so the suite
runs with OpenBLAS held to one thread and projection tables summed on the
row threads (bergman.BLAS_ONE_THREAD), as a command-line run does."""

import bergman  # noqa: F401
