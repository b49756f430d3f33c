"""Hot numeric kernels with a numba fast path and a pure-numpy fallback.

The backend is chosen once at import time from the environment variable
``POINTGAP_KERNELS``:

* ``auto`` (default): use numba when importable, else numpy.
* ``numba``: require numba, raise if missing.
* ``numpy``: force the pure-numpy implementations.

Both implementations are always importable (``*_numpy`` names, and ``*_numba``
when numba is present) so tests can compare them directly, and
``python3 perfbench/run.py`` times either backend end to end.  The public
names ``mode_weights`` and ``scan_states`` point at the selected backend.
"""

from __future__ import annotations

import os

import numpy as np

_CHOICE = os.environ.get("POINTGAP_KERNELS", "auto").lower()
if _CHOICE not in {"auto", "numba", "numpy"}:
    raise ValueError(
        f"POINTGAP_KERNELS must be 'auto', 'numba' or 'numpy', got {_CHOICE!r}"
    )

_HAVE_NUMBA = False
if _CHOICE in {"auto", "numba"}:
    try:
        import numba

        _HAVE_NUMBA = True
    except ImportError:
        if _CHOICE == "numba":
            raise
        _HAVE_NUMBA = False

KERNEL_BACKEND = "numba" if _HAVE_NUMBA else "numpy"


def mode_weights_numpy(states, probs, n_modes):
    """Per-mode occupation weights: w[k, m] = sum_s bit(states[s], m) * probs[s, k].

    ``probs`` has shape (dim, n_vec) holding |v_s|^2 for each vector; the
    result has shape (n_vec, n_modes).
    """
    bits = ((states[:, None] >> np.arange(n_modes, dtype=np.uint64)) & np.uint64(1))
    return probs.T @ bits.astype(np.float64)


def scan_states_numpy(n_modes, n_fermions, parity, up_mask, cmasks, ccounts):
    """Enumerate all bitsets with the given fermion number, spin parity and
    per-mask occupation constraints, in ascending order.

    ``parity`` is +-1 and compares against (-1)**popcount(state & up_mask).
    """
    occ = np.arange(1 << n_modes, dtype=np.uint64)
    keep = np.bitwise_count(occ) == n_fermions
    up = np.bitwise_count(occ & np.uint64(up_mask))
    keep &= (up & np.uint64(1)) == np.uint64(parity == -1)
    for mask, count in zip(cmasks, ccounts):
        keep &= np.bitwise_count(occ & np.uint64(mask)) == count
    return occ[keep]


if _HAVE_NUMBA:

    @numba.njit(cache=True)
    def mode_weights_numba(states, probs, n_modes):
        # accumulate transposed so both reads and writes stay contiguous
        dim, nvec = probs.shape
        wt = np.zeros((n_modes, nvec))
        for s in range(dim):
            bits = states[s]
            for m in range(n_modes):
                if (bits >> np.uint64(m)) & np.uint64(1):
                    for k in range(nvec):
                        wt[m, k] += probs[s, k]
        return wt.T.copy()

    @numba.njit(cache=True)
    def scan_states_numba(n_modes, n_fermions, parity, up_mask, cmasks, ccounts):
        odd_up = 1 if parity == -1 else 0
        found = np.empty(1 << n_modes, dtype=np.uint64)
        cnt = 0
        for occ in range(1 << n_modes):
            s = np.uint64(occ)
            if _popcount(s) != n_fermions:
                continue
            if _popcount(s & np.uint64(up_mask)) & 1 != odd_up:
                continue
            ok = True
            for c in range(cmasks.shape[0]):
                if _popcount(s & cmasks[c]) != ccounts[c]:
                    ok = False
                    break
            if ok:
                found[cnt] = s
                cnt += 1
        return found[:cnt].copy()

    @numba.njit(cache=True, inline="always")
    def _popcount(x):
        n = 0
        while x:
            x &= x - np.uint64(1)
            n += 1
        return n

    mode_weights = mode_weights_numba
    scan_states = scan_states_numba
else:
    mode_weights = mode_weights_numpy
    scan_states = scan_states_numpy
