import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import lu_factor

from pointgap.checks import _turned
from pointgap.models import (
    ChainParams,
    DotParams,
    chain_model,
    deformation_params,
    dot_model,
    one_body_model,
    phase_table,
)
from pointgap.observables import directed_hausdorff_distance, occupation_profiles
from pointgap.oracles import dot_sector21_eigenvalues, eigenvalue_match
from pointgap.spectral import (
    STACK_BYTES,
    EigensolverError,
    ShiftedLU,
    SpectrumHitError,
    cluster_labels,
    eigendecompose,
    factor_model,
    factor_shifted,
    logdet_phase,
    phase_from_factors,
    sigma_min_from_factors,
    sweep_theta,
    theta_grid,
    twist_orbits,
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
    occ = occupation_profiles(sol, model.basis)
    assert occ.clusters.tolist() == [0] * model.dim
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


@pytest.mark.parametrize("sector, pairs", [((4, 1), 91), ((5, 1), 364)],
                         ids=["(4,+1)", "(5,+1)"])
def test_cluster_labels_keep_exact_pairs_together(sector, pairs):
    # at J = V = 0 every chain level is exactly doubly degenerate; values
    # sorting between the two members of a pair must not split it
    model = chain_model(ChainParams(length=7), *sector)
    values = np.linalg.eigvals(model(1.1))
    assert len(values) == 2 * pairs
    np.testing.assert_array_equal(np.bincount(cluster_labels(values)), [2] * pairs)


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
    assert eigenvalue_match(flow.spectra[0], flow.spectra[-1])[0] < 1e-8


def test_sweep_theta_minimum_grid():
    with pytest.raises(ValueError):
        sweep_theta(dot_model(FIG_DOT, 2, 1), 8)


def test_flat_dot_flow_is_static():
    p = replace(FIG_DOT, lam=0.0)
    flow = sweep_theta(one_body_model(p), 16)
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


def _sorted(values):
    return values[np.lexsort((values.imag, values.real))]


def test_sweep_matches_pointwise_eigvals_across_stacks():
    """A sweep longer than one stack (d = 28 stacks 41 matrices) solves the
    lowest point of each orbit of its model's grid reflections: the quarter
    arc of chain (3,-1) at L = 7 for an n_grid divisible by 4, 26 of 101
    points at n_grid 100, the 33 points up to pi at the odd n_grid 65 (no
    theta0 = pi map) and the half arc of the L = 14 one-body chain.  Those
    rows equal pointwise eigvals bit for bit.  Every other row equals its
    source row mapped (conj, -conj, negation or identity) and sorted again,
    bit for bit, and eigvals at its own theta within 1e-12.  A model with a
    twisted amplitude turned by e^{0.3i} keeps no relation, and its 101
    points are all solved, in stacks of 41 + 41 + 19."""
    assert 101 % (STACK_BYTES // (16 * 28 * 28)) != 0
    p = ChainParams(length=7, t=1.0, j=1.0, v=1.0)
    turned = _turned(chain_model(p, 3, -1), np.exp(0.3j))
    assert turned.twist_relations == ()
    cases = [(chain_model(p, 3, -1), 256, 65),
             (chain_model(replace(p, j=0.0, v=0.0), 3, -1), 64, 17),
             (chain_model(p, 3, -1), 100, 26), (chain_model(p, 3, -1), 65, 33),
             (one_body_model(ChainParams(length=14, t=1.0)), 100, 51),
             (turned, 100, 101)]
    for model, n_grid, n_solved in cases:
        solved, stack = [], model.stack
        model.stack = lambda thetas: (solved.append(len(thetas)), stack(thetas))[1]
        flow = sweep_theta(model, n_grid)
        assert flow.spectra.shape == (n_grid + 1, 28)
        assert sum(solved) == n_solved and max(solved) <= 41
        orbits = twist_orbits(model, n_grid)
        np.testing.assert_array_equal(orbits.solved, np.arange(n_solved))
        for k, (theta, row) in enumerate(zip(flow.grid, flow.spectra)):
            direct = _sorted(np.linalg.eigvals(model(theta)))
            source = orbits.source[k]
            if source == k:
                np.testing.assert_array_equal(row, direct)
                continue
            image = flow.spectra[source]
            image = image.conj() if orbits.conjugate[k] else image
            image = -image if orbits.negate[k] else image
            np.testing.assert_array_equal(row, _sorted(image))
            assert eigenvalue_match(row, direct)[0] <= 1e-12


def test_single_stack_sweep_looks_no_relation_up():
    """A grid that fits one stack is solved, or factored, whole: a sweep or
    a winding of the dot's (2,+-1) sectors never evaluates their mirror or
    conjugation relations."""
    runs = (lambda model: sweep_theta(model, 64),
            lambda model: many_body_winding(model, 0.3j, n_grid=64))
    for parity in (1, -1):
        for run in runs:
            model = dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, parity)
            run(model)
            assert "twist_relations" not in model.__dict__


def test_twist_orbits_of_the_chain_reflections():
    """The quarter arc of s = -1 at theta0 = pi and s = +1 at theta0 = 0:
    rows (n/4, n/2] are -conj images, (n/2, 3n/4) negations (the shift by
    pi), [3n/4, n) conjugates and theta = 2 pi the identity image of 0."""
    n = 16
    chain = SimpleNamespace(dim=200, twist_relations=((np.pi, -1, True), (0.0, 1, True)))
    orbits = twist_orbits(chain, n)
    assert orbits.reflections == ((n // 2, -1, True), (0, 1, True))
    assert (orbits.first, orbits.last, orbits.copies) == (0, 4, 4)
    k = np.arange(n + 1)
    want = np.where(k <= 4, k, np.where(k <= 8, 8 - k, np.where(k < 12, k - 8, (n - k) % n)))
    np.testing.assert_array_equal(orbits.source, want)
    np.testing.assert_array_equal(orbits.negate, (k > 4) & (k < 12))
    np.testing.assert_array_equal(orbits.conjugate, ((k > 4) & (k <= 8)) | ((k >= 12) & (k < n)))
    alone = twist_orbits(SimpleNamespace(dim=200, twist_relations=()), n)
    np.testing.assert_array_equal(alone.source, k)
    assert (alone.first, alone.last, alone.copies) == (0, n, 1)


_RELATIONS = ((0.0, 1, False), (np.pi, -1, True), (0.0, 1, True))


@pytest.mark.parametrize("e_ref, kept", [(0.0, (0, 1, 2)), (0.3j, (0, 1)),
                                         (-0.04, (0, 2)), (0.05 + 0.3j, (0,))])
@pytest.mark.parametrize("n_grid", [16, 17])
def test_twist_orbits_keep_the_relations_that_fix_e_ref(e_ref, kept, n_grid):
    """Of the mirror, (pi, -1, antiunitary) and (0, +1, antiunitary), a
    winding at E keeps exactly the relations with s E^(*) = E (conjugated
    where antiunitary): the mirror always, s = -1 for an imaginary E and
    s = +1 for a real one, in the model's order.  theta0 = pi is dropped on
    an odd n_grid.  A relation alone maps each point it moves by
    (negate, conjugate) = (s < 0, antiunitary); theta = 2 pi is the image
    of 0 by periodicity.  A grid of one stack keeps none."""
    model = SimpleNamespace(dim=200, twist_relations=_RELATIONS)
    for i, (_, sign, antiunitary) in enumerate(_RELATIONS):
        assert (sign * (np.conj(e_ref) if antiunitary else e_ref) == e_ref) == (i in kept)
    want = [(0 if theta0 == 0.0 else n_grid // 2, sign, antiunitary)
            for theta0, sign, antiunitary in (_RELATIONS[i] for i in kept)
            if theta0 == 0.0 or n_grid % 2 == 0]
    assert list(twist_orbits(model, n_grid, e_ref).reflections) == want
    for a, sign, antiunitary in want:
        alone = twist_orbits(SimpleNamespace(
            dim=200, twist_relations=[(np.pi if a else 0.0, sign, antiunitary)]), n_grid)
        moved = np.flatnonzero(alone.source[:n_grid] != np.arange(n_grid))
        assert len(moved) == n_grid // 2 - 1 + n_grid % 2
        assert (alone.negate[moved] == (sign < 0)).all()
        assert (alone.conjugate[moved] == antiunitary).all()
    assert twist_orbits(SimpleNamespace(dim=28, twist_relations=_RELATIONS), 16,
                        e_ref).reflections == ()


def test_sweep_eigensolver_failure_names_theta(monkeypatch, matrix_flow):
    grid = theta_grid(32)
    bad = grid[21]
    real_eigvals = np.linalg.eigvals

    def failing(a):
        if np.any(np.asarray(a) == 99.0):
            raise np.linalg.LinAlgError("eigenvalues did not converge")
        return real_eigvals(a)
    monkeypatch.setattr(np.linalg, "eigvals", failing)
    flow = matrix_flow(lambda theta: np.diag([99.0 if theta == bad else 1.0, 2.0j]))
    with pytest.raises(EigensolverError, match=f"theta={bad:.6f}"):
        sweep_theta(flow, 32)


def test_eigenvalue_continuity_on_refined_grid():
    flow = sweep_theta(dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, 1), 64)
    diameter = np.abs(flow.spectra[:, :, None] - flow.spectra[:, None, :]).max()
    # symmetric Hausdorff distance between neighbouring grid points
    worst = max(max(directed_hausdorff_distance(a, b), directed_hausdorff_distance(b, a))
                for a, b in zip(flow.spectra[:-1], flow.spectra[1:]))
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
def test_dense_factor_matches_lu_factor(model, theta, ref):
    """A matrix that shares a stack is copied once, shifted and factored in
    place (``_factor_dense``): the LU and pivots of ``lu_factor`` of M - E
    bit for bit, the Frobenius norm of M - E as its scale, M unchanged, and
    the same LU through ``factor_shifted`` and ``factor_model``."""
    from pointgap.spectral import _factor_dense

    a = model(theta)
    before = a.copy()
    factors, scale = _factor_dense(a, ref)
    expected = _dense_lu(a, ref)
    np.testing.assert_array_equal(factors.lu, expected.lu)
    np.testing.assert_array_equal(factors.piv, expected.piv)
    shifted = a - ref * np.eye(len(a))
    assert abs(scale - np.linalg.norm(shifted)) <= 1e-15 * scale
    np.testing.assert_array_equal(a, before)
    for other, other_scale in (factor_shifted(a, ref), factor_model(model, theta, ref)):
        assert other.perm is None and other_scale == scale
        np.testing.assert_array_equal(other.lu, factors.lu)
        np.testing.assert_array_equal(other.piv, factors.piv)


def _band_cases():
    # the periodic chain is the twisted one at theta = 0
    boundaries = (("twisted", "twisted", 1.1), ("open", "open", 1.1),
                  ("periodic", "twisted", 0.0))
    for n, parity in ((4, 1), (4, -1), (5, 1), (5, -1)):
        for jv in (0.0, 1.0):
            for label, bc, theta in boundaries:
                p = ChainParams(length=7, t=1.0, j=jv, v=jv, bc=bc)
                yield pytest.param(p, n, parity, theta,
                                   id=f"({n},{parity:+d})-jv{jv:g}-boundary-{label}")


@pytest.mark.parametrize("params, n, parity, theta", _band_cases())
def test_band_lu_matches_dense(params, n, parity, theta):
    """Band and dense LUs give the same log|det| and phase; at J = V = 0 the
    pattern's graph falls apart into disconnected blocks.  The band a model
    orders from its term list (``factor_model``) is the band of its scanned
    matrix, bit for bit."""
    # the open chain at J = V = 0 is nilpotent, and M - E is ill-conditioned
    # for small E (condition number 7e14 at 0.05 + 0.3i, 84 at 2 + i)
    ref = 2.0 + 1.0j if params.bc == "open" else 0.05 + 0.3j
    model = chain_model(params, n, parity)
    a = model(theta)
    factors, scale = factor_shifted(a, ref)
    assert factors.perm is not None and factors.lu.shape[0] < factors.dim
    from_model, model_scale = factor_model(model, theta, ref)
    assert model_scale == scale
    assert (from_model.kl, from_model.ku) == (factors.kl, factors.ku)
    for name in ("lu", "piv", "perm"):
        np.testing.assert_array_equal(getattr(from_model, name), getattr(factors, name))
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
    np.add.at(expected, (rows, cols), amps * phase_table(theta)[slots])
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
    # a winding at d <= 128 reads its sweep's spectra
    assert _traced_peak(lambda: many_body_winding(model, 0.0, n_grid=256)) <= (
        STACK_BYTES + spectra_bytes + allowance)

