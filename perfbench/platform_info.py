"""Environment block and BLAS thread control for the benchmark process.

numpy and scipy each load their own OpenBLAS, so the thread count is read and
set through a ctypes handle on every loaded OpenBLAS library. Setting it acts
on this process only: nothing is exported to the environment.
"""

from __future__ import annotations

import ctypes
import os
import sys

# exported names differ by build: plain OpenBLAS, scipy-openblas (32-bit
# integers) and scipy-openblas64 (symbol suffix "64_")
_PREFIXES = ("scipy_openblas_", "openblas_")
_SUFFIXES = ("64_", "")


def _symbol(lib, stem):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            try:
                return getattr(lib, f"{prefix}{stem}{suffix}")
            except AttributeError:
                continue
    return None


class OpenBlas:
    """One loaded OpenBLAS library: its owner package, config and threads."""

    def __init__(self, path):
        self.path = path
        self.owner = os.path.basename(os.path.dirname(path))  # numpy.libs, scipy.libs
        lib = ctypes.CDLL(path)  # already mapped: returns the loaded handle
        self._get = _symbol(lib, "get_num_threads")
        self._set = _symbol(lib, "set_num_threads")
        self._config = _symbol(lib, "get_config")
        if self._get is not None:
            self._get.argtypes = []
            self._get.restype = ctypes.c_int
        if self._set is not None:
            self._set.argtypes = [ctypes.c_int]
            self._set.restype = None
        if self._config is not None:
            self._config.argtypes = []
            self._config.restype = ctypes.c_char_p

    @property
    def threads(self):
        return self._get() if self._get is not None else None

    def set_threads(self, n):
        if self._set is not None:
            self._set(int(n))

    @property
    def config(self):
        if self._config is None:
            return None
        return self._config().decode(errors="replace").strip()


def loaded_openblas():
    """Every OpenBLAS library mapped into this process, in load order."""
    paths = []
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.split()
            path = fields[5] if len(fields) >= 6 else ""
            name = os.path.basename(path)
            if "openblas" in name and ".so" in name and path not in paths:
                paths.append(path)
    return [OpenBlas(p) for p in paths]


class BlasThreads:
    """Pin every loaded OpenBLAS to a thread count, then restore it."""

    def __init__(self, n):
        self.n = n
        self._libs = loaded_openblas()
        self._saved = []

    def __enter__(self):
        self._saved = [lib.threads for lib in self._libs]
        for lib in self._libs:
            lib.set_threads(self.n)
        return self

    def __exit__(self, *exc):
        for lib, n in zip(self._libs, self._saved):
            if n is not None:
                lib.set_threads(n)
        return False


def environment():
    """Versions, BLAS libraries and thread settings behind a run."""
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    def build_blas(show_config):
        try:
            blas = show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (KeyError, TypeError, ValueError):
            return None
        return {"name": blas.get("name"), "version": blas.get("version")}

    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "numpy_blas": build_blas(numpy.show_config),
        "scipy": scipy.__version__,
        "scipy_blas": build_blas(scipy.show_config),
        "openblas": [{"owner": lib.owner, "file": os.path.basename(lib.path),
                      "config": lib.config, "threads": lib.threads}
                     for lib in loaded_openblas()],
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.endswith("_NUM_THREADS")},
    }
