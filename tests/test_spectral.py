import tracemalloc
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from scipy.linalg import lu_factor

from pointgap.models import (
    ChainParams,
    DotParams,
    build_chain_one_body,
    build_dot_one_body,
    chain_model,
    deformation_params,
    dot_model,
    phase_table,
)
from pointgap.observables import hausdorff_distance, occupation_profiles
from pointgap.oracles import dot_sector21_eigenvalues, eigenvalue_match
from pointgap.spectral import (
    STACK_BYTES,
    EigensolverError,
    ShiftedLU,
    SpectrumHitError,
    cluster_labels,
    eigendecompose,
    factor_shifted,
    factor_stack,
    logdet_phase,
    periodicity_defect,
    phase_from_factors,
    sigma_min_from_factors,
    sweep_theta,
    theta_grid,
    wrap_phase,
)
from pointgap.topology import many_body_winding

FIG_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                    eps_b_dn=-0.25)


def test_eigendecompose_scalar():
    sol = eigendecompose(np.array([[2.0 - 1.0j]]))
    assert sol.values[0] == 2.0 - 1.0j
    assert abs(sol.right_vectors[0, 0] - 1.0) < 1e-15


def test_eigendecompose_residuals_and_norms():
    rng = np.random.default_rng(4)
    a = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    sol = eigendecompose(a)
    norm2 = np.linalg.norm(a, 2)
    res = np.linalg.norm(a @ sol.right_vectors - sol.right_vectors * sol.values,
                         axis=0)
    assert res.max() <= 1e-8 * norm2
    np.testing.assert_allclose(np.linalg.norm(sol.right_vectors, axis=0), 1.0,
                               atol=1e-12)
    assert not sol.defective.any()


def test_eigendecompose_phase_convention():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    sol = eigendecompose(a)
    for k in range(12):
        col = sol.right_vectors[:, k]
        lead = col[np.argmax(np.abs(col))]
        assert abs(lead.imag) < 1e-14 and lead.real > 0


def test_eigendecompose_flags_jordan_block():
    p = ChainParams(length=7, t=1.0, bc="open")
    model = chain_model(p, 3, -1)
    sol = eigendecompose(model.matrix(0.0))
    assert np.abs(sol.values).max() < 1e-8
    assert sol.defective.all()
    # the whole block is one degeneracy cluster
    profiles = occupation_profiles(model.matrix(0.0), model.basis, solution=sol)
    assert [p.degeneracy_cluster for p in profiles] == [0] * model.dim
    # the contract still delivers a full set of unit vectors
    np.testing.assert_allclose(np.linalg.norm(sol.right_vectors, axis=0), 1.0,
                               atol=1e-12)


def test_cluster_labels_join_chains_of_near_ties():
    # the tolerance is 1e-8 times the largest modulus, 2: 0, 8e-9, 1.6e-8
    # and 2.4e-8 are each within it of the previous one, though the ends
    # are not, and they form one cluster
    values = np.array([2.0, 1.6e-8, -1.0 + 1.0j, 0.0, 2.4e-8, -1.0, 8e-9, 2.0 + 5e-9j])
    np.testing.assert_array_equal(cluster_labels(values), [3, 2, 1, 2, 2, 0, 2, 3])
    assert cluster_labels(np.zeros(0, dtype=complex)).shape == (0,)


def test_eigendecompose_ranks_each_cluster():
    # a 2x2 Jordan block at 0 and a diagonalizable pair at 2: only the block
    # lacks eigenvectors
    a = np.zeros((5, 5), dtype=complex)
    a[0, 1] = 1.0
    a[2, 2] = a[3, 3] = 2.0
    a[4, 4] = 1.0
    np.testing.assert_array_equal(eigendecompose(a).defective,
                                  [True, True, False, False, False])


def test_dot_two_level_matches_closed_form():
    p = replace(FIG_DOT, v=1.0)
    for theta in (0.0, 0.7, 2.9, 5.5):
        sol = eigendecompose(dot_model(p, 2, 1).matrix(theta))
        assert eigenvalue_match(sol.values,
                                dot_sector21_eigenvalues(p, theta))[0] < 1e-10


def test_sweep_theta_endpoints_and_periodicity():
    flow = sweep_theta(dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, -1), 32)
    assert flow.grid[0] == 0.0 and flow.grid[-1] == 2 * np.pi
    assert np.all(np.diff(flow.grid) > 0)
    assert periodicity_defect(flow) < 1e-8


def test_sweep_theta_minimum_grid():
    with pytest.raises(ValueError):
        sweep_theta(dot_model(FIG_DOT, 2, 1), 8)


def test_flat_dot_flow_is_static():
    p = replace(FIG_DOT, lam=0.0)
    flow = sweep_theta(partial(build_dot_one_body, p), 16)
    assert np.abs(flow.spectra - flow.spectra[0]).max() < 1e-14


def test_twisted_chain_flow_forms_loops_around_zero():
    """With one itinerant fermion the trace union is the full circle |E| = t."""
    model = chain_model(ChainParams(length=7, t=1.0), 3, -1)
    flow = sweep_theta(model, 64)
    vals = flow.spectra.ravel()
    np.testing.assert_allclose(np.abs(vals), 1.0, atol=1e-12)
    angles = np.sort(np.angle(vals))
    gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
    assert gaps.max() < 0.1  # no angular gap: the loop closes around zero


def test_sweep_matches_pointwise_eigvals_across_stacks():
    # d = 28 stacks 41 matrices at a time: 101 grid points make 41 + 41 + 19
    assert 101 % (STACK_BYTES // (16 * 28 * 28)) != 0
    for matrix_fn in (chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 3, -1),
                      partial(build_chain_one_body, ChainParams(length=14, t=1.0))):
        flow = sweep_theta(matrix_fn, 100)
        assert flow.spectra.shape == (101, 28)
        for theta, row in zip(flow.grid, flow.spectra):
            values = np.linalg.eigvals(np.asarray(matrix_fn(theta), dtype=complex))
            np.testing.assert_array_equal(row, values[np.lexsort((values.imag, values.real))])


def test_sweep_builds_each_callable_matrix_once():
    build = partial(build_chain_one_body, ChainParams(length=14, t=1.0))
    calls = []

    def matrix_fn(theta):
        calls.append(theta)
        return build(theta)
    flow = sweep_theta(matrix_fn, 100)
    assert calls == flow.grid.tolist()


def test_sweep_eigensolver_failure_names_theta(monkeypatch):
    grid = theta_grid(32)
    bad = grid[21]
    real_eigvals = np.linalg.eigvals

    def failing(a):
        if np.any(np.asarray(a) == 99.0):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real_eigvals(a)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    matrix_fn = lambda theta: np.diag([99.0 if theta == bad else 1.0, 2.0j])
    with pytest.raises(EigensolverError, match=f"theta={bad:.6f}"):
        sweep_theta(matrix_fn, 32)


def test_eigenvalue_continuity_on_refined_grid():
    flow = sweep_theta(dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, 1), 64)
    diameter = np.abs(flow.spectra[:, :, None] - flow.spectra[:, None, :]).max()
    worst = max(hausdorff_distance(flow.spectra[k], flow.spectra[k + 1])
                for k in range(len(flow.grid) - 1))
    assert worst < 0.2 * diameter


def _deformation_spectra(path, sector, n_path, n_grid):
    """Spectral flows at n_path + 1 evenly spaced points along a dot path."""
    return [sweep_theta(dot_model(deformation_params(FIG_DOT, path, s), *sector),
                        n_grid).spectra
            for s in np.linspace(0.0, 1.0, n_path + 1).tolist()]


def test_deformation_paths():
    sector = (2, 1)
    ramp = _deformation_spectra("pair-ramp", sector, 8, 16)
    assert min(np.abs(spectra).min() for spectra in ramp) > 0
    # endpoint of the coupling ramp equals a direct sweep at J = V = 1
    end = sweep_theta(dot_model(replace(FIG_DOT, j=1.0, v=1.0), *sector), 16)
    np.testing.assert_allclose(ramp[-1], end.spectra, atol=1e-12)

    final = _deformation_spectra("hop-ramp", sector, 8, 16)[-1]
    # lam = 0: twist-independent spectrum
    assert np.abs(final - final[0]).max() < 1e-12


def test_deformation_param_maps():
    p = deformation_params(FIG_DOT, "pair-ramp", 0.25)
    assert p.j == p.v == 0.25 and p.lam == 1.0
    p = deformation_params(FIG_DOT, "hop-ramp", 0.36)
    assert abs(p.lam - 0.64) < 1e-15 and abs(p.j - 0.8) < 1e-15
    with pytest.raises(ValueError):
        deformation_params(FIG_DOT, "spiral", 0.1)


def test_logdet_phase_basics():
    log_mag, phase = logdet_phase(np.array([[2.0j]]), 0.0)
    assert abs(log_mag - np.log(2.0)) < 1e-14
    assert abs(phase - np.pi / 2) < 1e-14
    assert logdet_phase(np.eye(2), 0.0) == (0.0, 0.0)


def test_logdet_phase_matches_eigenvalue_product():
    rng = np.random.default_rng(10)
    for dim in (3, 17, 48):
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ref = 0.3 + 0.1j
        log_mag, phase = logdet_phase(a, ref)
        direct = np.prod(np.linalg.eigvals(a) - ref)
        assert abs(np.exp(log_mag + 1j * phase) - direct) / abs(direct) < 1e-8


def test_logdet_phase_closed_form_two_level():
    p = replace(FIG_DOT, v=1.0)
    ref = 0.05 - 0.02j
    for theta in (0.3, 1.8, 4.0):
        m = dot_model(p, 2, 1).matrix(theta)
        log_mag, phase = logdet_phase(m, ref)
        ep, em = dot_sector21_eigenvalues(p, theta)
        target = (ep - ref) * (em - ref)
        assert abs(np.exp(log_mag + 1j * phase) - target) / abs(target) < 1e-10


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_logdet_singularity_raises():
    with pytest.raises(SpectrumHitError):
        logdet_phase(np.diag([1.0, 3.0 + 0j]), 3.0)


def test_sigma_min_from_factors():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    est = sigma_min_from_factors(factor_shifted(a, 0.1j)[0], 30, iters=30)
    exact = np.linalg.svd(a - 0.1j * np.eye(30), compute_uv=False)[-1]
    assert abs(est - exact) / exact < 1e-6
    # converged after 30 steps, it lower-bounds the distance to the spectrum
    dist = np.abs(np.linalg.eigvals(a) - 0.1j).min()
    assert est <= dist * (1 + 1e-9)


def _lu_matrices():
    chain = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 4, 1)
    dot = dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, -1)
    return [(chain, 1.3, 0.3j), (dot, 0.77, 0.05 - 0.02j)]


def _dense_lu(a, ref):
    """The dense LU of a - ref, by scipy's ``lu_factor``."""
    return ShiftedLU(*lu_factor(a - ref * np.eye(a.shape[0])))


def _assert_solves(factors, shifted, seed=3):
    """``solve`` with trans 0 and 2 leaves a relative residual <= 1e-12."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal(len(shifted)) + 1j * rng.standard_normal(len(shifted))
    for trans, op in ((0, shifted), (2, shifted.conj().T)):
        x = factors.solve(b, trans=trans)
        assert np.linalg.norm(op @ x - b) <= 1e-12 * np.linalg.norm(b)


@pytest.mark.parametrize("model, theta, ref", _lu_matrices(), ids=["chain", "dot"])
def test_factor_shifted_matches_explicit_shift(model, theta, ref):
    """The dot (d = 6) gets the dense LU bit for bit; the chain (d = 182,
    alone in its stack) a band LU with the same determinant."""
    a = model(theta)
    before = a.copy()
    factors, scale = factor_shifted(a, ref)
    np.testing.assert_array_equal(a, before)  # the input is left unchanged
    shifted = a - ref * np.eye(a.shape[0])
    assert abs(scale - np.linalg.norm(shifted)) <= 1e-14 * scale
    dense = _dense_lu(a, ref)
    if model.dim <= 128:
        assert factors.perm is None
        np.testing.assert_array_equal(factors.lu, dense.lu)
        np.testing.assert_array_equal(factors.piv, dense.piv)
        return
    assert factors.perm is not None  # the band path
    assert 2 * factors.kl + factors.ku + 1 == factors.lu.shape[0] < factors.dim
    _assert_solves(factors, shifted)
    log_mag, phase = phase_from_factors(factors, scale, ref)
    log_ref, phase_ref = phase_from_factors(dense, scale, ref)
    assert abs(log_mag - log_ref) <= 1e-12 * abs(log_ref)
    assert abs(wrap_phase(phase - phase_ref)) <= 1e-12


@pytest.mark.parametrize("model, theta, ref", [
    (chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 3, -1), 1.3, 0.3j),
    _lu_matrices()[1],
], ids=["chain", "dot"])
def test_factor_stack_matches_factor_shifted(model, theta, ref):
    thetas = [theta, theta + 0.5, theta + 1.0]
    stack = model.stack(thetas)
    piv, scales = factor_stack(stack, ref)
    for k, t in enumerate(thetas):
        factors, scale = factor_shifted(model(t), ref)
        np.testing.assert_array_equal(stack[k], factors.lu)  # factored in place
        np.testing.assert_array_equal(piv[k], factors.piv)
        assert scales[k] == scale


def _band_cases():
    for n, parity in ((4, 1), (4, -1), (5, 1), (5, -1)):
        for jv in (0.0, 1.0):
            for gauge in ("boundary", "distributed"):
                for bc in ("twisted", "open"):
                    p = ChainParams(length=7, t=1.0, j=jv, v=jv, bc=bc, gauge=gauge)
                    yield pytest.param(p, n, parity,
                                       id=f"({n},{parity:+d})-jv{jv:g}-{gauge}-{bc}")


@pytest.mark.parametrize("params, n, parity", _band_cases())
def test_band_lu_matches_dense(params, n, parity):
    """Band and dense LUs give the same log|det| and phase; at J = V = 0 the
    pattern's graph falls apart into disconnected blocks."""
    # the open chain at J = V = 0 is nilpotent, and M - E is ill-conditioned
    # for small E (condition number 7e14 at 0.05 + 0.3i, 84 at 2 + i)
    ref = 0.05 + 0.3j if params.bc == "twisted" else 2.0 + 1.0j
    a = chain_model(params, n, parity)(1.1)
    factors, scale = factor_shifted(a, ref)
    assert factors.perm is not None and factors.lu.shape[0] < factors.dim
    log_mag, phase = phase_from_factors(factors, scale, ref)
    log_ref, phase_ref = phase_from_factors(_dense_lu(a, ref), scale, ref)
    assert abs(log_mag - log_ref) <= 1e-12 * abs(log_ref)
    assert abs(wrap_phase(phase - phase_ref)) <= 1e-12
    _assert_solves(factors, a - ref * np.eye(len(a)))


def test_dense_matrix_alone_in_its_stack_keeps_dense_lu():
    """A dense 200 x 200 matrix has no band smaller than itself: it is
    factored dense, as ``lu_factor`` does, bit for bit."""
    rng = np.random.default_rng(5)
    a = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
    factors, scale = factor_shifted(a, 0.2j)
    dense = _dense_lu(a, 0.2j)
    assert factors.perm is None
    np.testing.assert_array_equal(factors.lu, dense.lu)
    np.testing.assert_array_equal(factors.piv, dense.piv)
    _assert_solves(factors, a - 0.2j * np.eye(200))


@pytest.mark.parametrize("model, theta", [case[:2] for case in _lu_matrices()],
                         ids=["chain", "dot"])
def test_sector_matrix_is_fortran_ordered_scatter(model, theta):
    a = model(theta)
    assert a.flags.f_contiguous
    # reference: the row-major scatter of the same term list
    rows, cols, amps, slots = model._coo
    expected = np.zeros((model.dim, model.dim), dtype=complex)
    np.add.at(expected, (rows, cols), amps * phase_table(theta, model.length)[slots])
    np.testing.assert_array_equal(a, expected)


def test_factor_shifted_holds_one_copy():
    # tracemalloc sees numpy's buffers: an eye temporary or a second copy of
    # the d x d matrix would double the traced peak
    a = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 4, 1)(1.3)
    d = a.shape[0]
    factor_shifted(a, 0.3j)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        factor_shifted(a, 0.3j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d == 182
    assert peak <= 1.1 * 16 * d * d


def _traced_peak(fn):
    fn()  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_twist_sweeps_hold_one_stack():
    # the 257 matrices of an n_grid 256 sweep at d = 28 take 3.2 MB; stacks of
    # at most STACK_BYTES, freed one before the next is built, keep the peak
    # near one stack plus a few d x d buffers (and the sweep's own output)
    params = ChainParams(length=7, t=1.0, j=1.0, v=1.0)
    model = chain_model(params, 3, -1)
    d = model.dim
    assert d == 28 and 257 * 16 * d * d > 6 * STACK_BYTES
    spectra_bytes = 257 * d * 16
    allowance = 16 * (16 * d * d)
    assert _traced_peak(lambda: sweep_theta(model, 256)) <= (
        STACK_BYTES + spectra_bytes + allowance)
    assert _traced_peak(lambda: many_body_winding(model, 0.0, n_grid=256)) <= (
        STACK_BYTES + allowance)

