"""Environment fingerprint attached to every benchmark result.

numpy and scipy each bundle their own OpenBLAS (``numpy.libs`` exports the
64-bit-integer symbols with a ``64_`` suffix, ``scipy.libs`` the plain
ones), so ``np.linalg`` and ``scipy.linalg`` can run with different thread
pools.  Both are read through their exported getters.  The benchmark only
reads thread settings; it never sets them.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
from pathlib import Path

BLAS_ENV_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def openblas_info(package: str, suffix: str) -> dict:
    """Config string and live thread count of the OpenBLAS bundled with
    ``package`` (``numpy`` or ``scipy``), read through its exported getters."""
    module = __import__(package)
    libdir = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
    paths = sorted(glob.glob(str(libdir / "libscipy_openblas*.so*")))
    if not paths:
        return {"library": None, "config": None, "threads": None}
    # already loaded by the package import, so this returns the live handle
    lib = ctypes.CDLL(paths[0])
    get_threads = getattr(lib, "scipy_openblas_get_num_threads" + suffix)
    get_threads.argtypes = []
    get_threads.restype = ctypes.c_int
    get_config = getattr(lib, "scipy_openblas_get_config" + suffix)
    get_config.argtypes = []
    get_config.restype = ctypes.c_char_p
    return {
        "library": Path(paths[0]).name,
        "config": get_config().decode("ascii", "replace").strip(),
        "threads": int(get_threads()),
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def fingerprint(root: Path) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(root),
        "openblas_numpy": openblas_info("numpy", "64_"),
        "openblas_scipy": openblas_info("scipy", ""),
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV_VARS},
        "executable": Path(sys.executable).name,
    }
