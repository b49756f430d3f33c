import subprocess
import sys

import numpy as np
import pytest

from pointgap import _kernels as K
from pointgap.fock import chain_layout, edge_b_constraints
from pointgap.models import ChainParams, chain_sector_basis, chain_terms, terms_to_coo

HAS_NUMBA = hasattr(K, "mode_weights_numba")

pytestmark = pytest.mark.skipif(not HAS_NUMBA, reason="numba not installed")


@pytest.fixture(scope="module")
def chain_coo():
    p = ChainParams(length=5, t=1.0, j=0.7, v=0.4)
    basis = chain_sector_basis(p, 3, -1)
    lay, terms = chain_terms(p)
    return lay, basis, terms_to_coo(terms, basis)


def test_mode_weights_backends_agree(chain_coo):
    lay, basis, _ = chain_coo
    rng = np.random.default_rng(3)
    v = rng.standard_normal((basis.dim, 6)) + 1j * rng.standard_normal((basis.dim, 6))
    probs = np.abs(v) ** 2
    a = K.mode_weights_numpy(basis.states, probs, lay.n_modes)
    b = K.mode_weights_numba(basis.states, probs, lay.n_modes)
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_scan_backends_agree():
    lay = chain_layout(4)
    cons = edge_b_constraints(lay, 4)
    cmasks = np.array([c.mask for c in cons], dtype=np.uint64)
    ccounts = np.array([c.count for c in cons], dtype=np.int64)
    for n in range(6):
        for p in (1, -1):
            a = K.scan_states_numpy(lay.n_modes, n, p, lay.up_mask, cmasks, ccounts)
            b = K.scan_states_numba(lay.n_modes, n, p, lay.up_mask, cmasks, ccounts)
            np.testing.assert_array_equal(a, b)


def test_env_flag_selects_numpy_backend():
    import os

    code = ("import pointgap._kernels as K; "
            "assert K.KERNEL_BACKEND == 'numpy'; "
            "assert K.mode_weights is K.mode_weights_numpy")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "POINTGAP_KERNELS": "numpy"})


def test_env_flag_rejects_unknown_backend():
    import os

    proc = subprocess.run([sys.executable, "-c", "import pointgap._kernels"],
                          capture_output=True,
                          env={**os.environ, "POINTGAP_KERNELS": "cuda"})
    assert proc.returncode != 0
    assert b"POINTGAP_KERNELS" in proc.stderr
