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
    dot_model,
    phase_table,
)
from pointgap.observables import hausdorff_distance
from pointgap.oracles import dot_sector21_eigenvalues, eigenvalue_match
from pointgap.spectral import (
    STACK_BYTES,
    EigensolverError,
    SpectrumHitError,
    deformation_params,
    eigendecompose,
    factor_shifted,
    factor_stack,
    logdet_phase,
    periodicity_defect,
    smallest_singular_estimate,
    sweep_deformation,
    sweep_theta,
    theta_grid,
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
    # the contract still delivers a full set of unit vectors
    np.testing.assert_allclose(np.linalg.norm(sol.right_vectors, axis=0), 1.0,
                               atol=1e-12)


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


def test_deformation_paths():
    sector = (2, 1)
    ramp = sweep_deformation(FIG_DOT, "pair-ramp", sector, 8, 16)
    assert ramp.gap_margin > 0
    # endpoint of the coupling ramp equals a direct sweep at J = V = 1
    end = sweep_theta(dot_model(replace(FIG_DOT, j=1.0, v=1.0), *sector), 16)
    np.testing.assert_allclose(ramp.flows[-1].spectra, end.spectra, atol=1e-12)

    shrink = sweep_deformation(FIG_DOT, "hop-ramp", sector, 8, 16)
    final = shrink.flows[-1].spectra  # lam = 0: twist-independent spectrum
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


def test_smallest_singular_estimate():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    est = smallest_singular_estimate(a, 0.1j, iters=30)
    exact = np.linalg.svd(a - 0.1j * np.eye(30), compute_uv=False)[-1]
    assert abs(est - exact) / exact < 1e-6
    # converged after 30 steps, it lower-bounds the distance to the spectrum
    dist = np.abs(np.linalg.eigvals(a) - 0.1j).min()
    assert est <= dist * (1 + 1e-9)


def _lu_matrices():
    chain = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 4, 1)
    dot = dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, -1)
    return [(chain, 1.3, 0.3j), (dot, 0.77, 0.05 - 0.02j)]


@pytest.mark.parametrize("model, theta, ref", _lu_matrices(), ids=["chain", "dot"])
def test_factor_shifted_matches_explicit_shift(model, theta, ref):
    a = model(theta)
    before = a.copy()
    (lu, piv), scale = factor_shifted(a, ref)
    np.testing.assert_array_equal(a, before)  # the input is left unchanged
    lu_ref, piv_ref = lu_factor(a - ref * np.eye(a.shape[0]))
    np.testing.assert_array_equal(lu, lu_ref)
    np.testing.assert_array_equal(piv, piv_ref)
    assert abs(scale - np.linalg.norm(a - ref * np.eye(a.shape[0]))) <= 1e-14 * scale


@pytest.mark.parametrize("model, theta, ref", _lu_matrices(), ids=["chain", "dot"])
def test_factor_stack_matches_factor_shifted(model, theta, ref):
    thetas = [theta, theta + 0.5, theta + 1.0]
    stack = model.stack(thetas)
    piv, scales = factor_stack(stack, ref)
    for k, t in enumerate(thetas):
        (lu, p), scale = factor_shifted(model(t), ref)
        np.testing.assert_array_equal(stack[k], lu)  # factored in place
        np.testing.assert_array_equal(piv[k], p)
        assert scales[k] == scale


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
    assert _traced_peak(lambda: many_body_winding(params, (3, -1), 0.0, n_grid=256)) <= (
        STACK_BYTES + allowance)

