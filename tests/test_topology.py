from dataclasses import replace
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from pointgap.models import (
    ChainParams,
    DotParams,
    build_chain_one_body,
    build_dot_one_body,
    chain_model,
    dot_model,
    one_body_sz,
)
from pointgap.oracles import CircleFlow, circle_flow_winding
from pointgap.spectral import (
    SpectrumHitError,
    factor_shifted,
    factor_stack,
    openblas_thread_controls,
    phase_from_factors,
    stack_phases,
    twist_stacks,
)
from pointgap.topology import (
    GapClosedError,
    SpinSymmetryError,
    WindingResult,
    many_body_winding,
    one_body_winding,
    spin_winding,
)

FIG_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                    eps_b_dn=-0.25)


def _diag_flow(entries):
    return lambda theta: np.diag([e(theta) for e in entries])


def test_single_circle_winds_once():
    w = one_body_winding(_diag_flow([CircleFlow(plus=1.0, const=0.2j)]), 0.0,
                         n_grid=64)
    assert w.value == 1
    assert abs(w.raw_phase_change - 2 * np.pi) < 1e-6
    assert abs(w.gap_margin - 0.8) < 1e-12


def test_reference_dot_one_body_invariants():
    h = partial(build_dot_one_body, FIG_DOT)
    w = one_body_winding(h, 0.0)
    ws = spin_winding(h, one_body_sz(FIG_DOT), 0.0)
    assert (w.value, ws.value) == (0, 1)
    assert ws.up.value == 1 and ws.down.value == -1


def test_flat_dot_reference_off_spectrum():
    p = replace(FIG_DOT, lam=0.0)
    w = one_body_winding(partial(build_dot_one_body, p), 1.0, n_grid=16)
    assert w.value == 0


def test_chain_one_body_invariants():
    p = ChainParams(length=7, t=1.0)
    h = partial(build_chain_one_body, p)
    w = one_body_winding(h, 0.0)
    ws = spin_winding(h, one_body_sz(p), 0.0)
    assert (w.value, ws.value) == (0, 1)


def test_identical_spin_blocks_cancel():
    # both spins wind the same way: spin winding vanishes
    flows = [CircleFlow(plus=1.0, const=0.1j), CircleFlow(plus=1.0, const=0.1j)]
    ws = spin_winding(_diag_flow(flows), np.array([1, -1]), 0.0, n_grid=64)
    assert ws.value == Fraction(0)
    assert isinstance(ws.value, Fraction)


def test_spin_symmetry_violation_raises():
    def h(theta):
        return np.array([[np.exp(1j * theta), 0.5], [0.5, np.exp(-1j * theta)]])
    with pytest.raises(SpinSymmetryError):
        spin_winding(h, np.array([1, -1]), 0.0, n_grid=16)


def test_gap_closing_raises_with_theta():
    # circle through the reference: eigenvalue hits 0 at theta = pi
    with pytest.raises(GapClosedError):
        one_body_winding(_diag_flow([CircleFlow(plus=1.0, const=1.0)]), 0.0,
                         n_grid=32)


def test_winding_additivity_random_diagonal():
    rng = np.random.default_rng(42)
    for _ in range(10):
        entries = []
        expected = 0
        for _ in range(rng.integers(2, 6)):
            flow = CircleFlow(plus=rng.normal(scale=1.0),
                              minus=rng.normal(scale=1.0),
                              const=rng.normal(scale=1.0) + 1j * rng.normal(scale=1.0))
            try:
                expected += circle_flow_winding(flow, 0.0)
            except ValueError:
                break
            entries.append(flow)
        else:
            try:
                w = one_body_winding(_diag_flow(entries), 0.0, n_grid=128)
            except GapClosedError:
                continue  # grazing flow: winding undefined either way
            assert w.value == expected


def test_block_additivity():
    a = CircleFlow(plus=1.0, const=0.3j)
    b = CircleFlow(minus=0.7, const=0.1)
    w_ab = one_body_winding(_diag_flow([a, b]), 0.0, n_grid=64)
    w_a = one_body_winding(_diag_flow([a]), 0.0, n_grid=64)
    w_b = one_body_winding(_diag_flow([b]), 0.0, n_grid=64)
    assert w_ab.value == w_a.value + w_b.value


def test_many_body_windings_dot():
    for jv in (0.0, 1.0):
        p = replace(FIG_DOT, j=jv, v=jv)
        assert many_body_winding(dot_model(p, 2, 1), 0.0, n_grid=64).value == 0
        assert many_body_winding(dot_model(p, 2, -1), 0.0, n_grid=64).value == 0
    res = many_body_winding(dot_model(FIG_DOT, 1, -1), 0.0, n_grid=64)
    assert res.value == 1
    assert res.gap_margin > 0


def test_many_body_winding_chain():
    for jv in (0.0, 1.0):
        p = ChainParams(length=7, t=1.0, j=jv, v=jv)
        res = many_body_winding(chain_model(p, 3, -1), 0.0, n_grid=64)
        assert res.value == 0
        assert res.gap_margin > 0.5


def test_grid_doubling_stable():
    p = replace(FIG_DOT, j=1.0, v=1.0)
    w1 = many_body_winding(dot_model(p, 2, -1), 0.0, n_grid=64)
    w2 = many_body_winding(dot_model(p, 2, -1), 0.0, n_grid=128)
    assert w1.value == w2.value


def test_winding_result_consistency():
    res = many_body_winding(dot_model(FIG_DOT, 1, -1), 0.0, n_grid=64)
    assert isinstance(res, WindingResult)
    assert abs(res.raw_phase_change / (2 * np.pi) - res.value) < 1e-6
    assert res.max_phase_step <= np.pi / 2
    assert res.grid_size_used >= 65


def test_noninteracting_sum_rule_dot_sectors():
    """At J = V = 0 the sector winding equals the sum of per-state windings
    of the one-body diagonal flows (product-of-circles factorization)."""
    from pointgap.models import dot_sector_basis
    from pointgap.oracles import diagonal_flow_winding, dot_sector_diagonal_flows

    for sector in ((1, 1), (1, -1), (2, 1), (2, -1), (3, 1), (3, -1)):
        basis = dot_sector_basis(*sector)
        analytic = diagonal_flow_winding(dot_sector_diagonal_flows(FIG_DOT, basis))
        numeric = many_body_winding(dot_model(FIG_DOT, *sector), 0.0, n_grid=64)
        assert numeric.value == analytic


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_gap_closed_error_for_many_body():
    # the localized level sits exactly at i(eps_b_up + eps_b_dn): reference on it
    with pytest.raises(GapClosedError):
        many_body_winding(dot_model(FIG_DOT, 2, -1), 1j * (0.35 - 0.25), n_grid=32)


def _pointwise_phase(matrix_fn, ref):
    return lambda theta: phase_from_factors(*factor_shifted(matrix_fn(theta), ref), ref)[1]


@pytest.mark.parametrize("case", ["chain", "dot", "one-body", "chain-182-jv0", "chain-182-jv1"])
def test_stacked_base_grid_equals_pointwise(case):
    """Base-grid phases from stacks, and the winding built on them, equal
    factor_shifted + phase_from_factors point by point, bit for bit.  At
    d = 182 every matrix is alone in its stack and factored as a band."""
    from pointgap.spectral import blas_threads_for, stack_length, theta_grid
    from pointgap.topology import _PhaseTracker

    if case == "chain":  # d = 28: stacks of 41, 41 and 19 points
        matrix_fn = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 3, -1)
        ref = 0.3j
    elif case.startswith("chain-182"):
        jv = float(case[-1])
        matrix_fn, ref = chain_model(ChainParams(length=7, j=jv, v=jv), 4, 1), 0.3j
    elif case == "dot":
        matrix_fn, ref = dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, 1), 0.05 - 0.02j
    else:
        matrix_fn, ref = partial(build_chain_one_body, ChainParams(length=14)), 0.2j
    n_grid = 100
    grid = theta_grid(n_grid)
    phase = _pointwise_phase(matrix_fn, ref)
    with blas_threads_for(28):
        expected = [phase(theta) for theta in grid]
        got = []
        for _, stack in twist_stacks(matrix_fn, grid):
            if stack_length(stack.shape[1]) == 1:  # factored alone, as a band
                factors, scale = factor_shifted(stack[0], ref)
                assert factors.perm is not None
                got.append(phase_from_factors(factors, scale, ref)[1])
                continue
            piv, scales = factor_stack(stack, ref)
            phases, singular = stack_phases(stack, piv, scales)
            assert not singular.any()
            got += phases.tolist()
        assert got == expected
        tracker = _PhaseTracker(phase, n_grid)
        total = tracker.run(expected)
    if case == "one-body":
        result = one_body_winding(matrix_fn, ref, n_grid=n_grid)
    else:
        result = many_body_winding(matrix_fn, ref, n_grid=n_grid)
    assert result.raw_phase_change == total
    assert result.grid_size_used == tracker.evaluations


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_gap_closed_in_later_stack_names_its_theta():
    from pointgap.spectral import STACK_BYTES, theta_grid

    n_grid, k = 100, 60
    assert k > STACK_BYTES // (16 * 28 * 28)  # d = 28: point k is in the second stack
    grid = theta_grid(n_grid)
    ref = np.exp(1j * grid[k])  # the moving level hits ref exactly at theta_k
    matrix_fn = lambda theta: np.diag([np.exp(1j * theta)] + [3.0 + j for j in range(27)])
    with pytest.raises(GapClosedError) as info:
        one_body_winding(matrix_fn, ref, n_grid=n_grid)
    assert info.value.theta == grid[k]
    assert isinstance(info.value.__cause__, SpectrumHitError)  # the pivot test, not the margin


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_gap_closed_through_band_lu_names_its_theta():
    """At d = 200 each matrix is alone in its stack and factored as a band;
    a level that hits ref at theta_k raises there, from the pivot test."""
    from pointgap.spectral import stack_length, theta_grid

    n_grid, k, d = 64, 23, 200
    grid = theta_grid(n_grid)
    ref = np.exp(1j * grid[k])
    matrix_fn = lambda theta: np.diag([np.exp(1j * theta)] + [3.0 + j for j in range(d - 1)])
    assert stack_length(d) == 1
    assert factor_shifted(matrix_fn(grid[0]), ref)[0].perm is not None  # the band path
    with pytest.raises(GapClosedError) as info:
        one_body_winding(matrix_fn, ref, n_grid=n_grid)
    assert info.value.theta == grid[k]
    assert isinstance(info.value.__cause__, SpectrumHitError)


# ---------------------------------------------------------------------------
# gap margins over the base grid
# ---------------------------------------------------------------------------

def test_phase_tracker_labels_every_base_point():
    from pointgap.spectral import theta_grid
    from pointgap.topology import _PhaseTracker

    for n_grid in (64, 256):
        grid = theta_grid(n_grid)
        seen = []
        turns = 3 * n_grid // 8  # 3 pi / 4 per grid step: every step refined once

        def phase(theta):
            seen.append(theta)
            return float(np.angle(np.exp(1j * turns * theta)))
        tracker = _PhaseTracker(phase, n_grid)
        total = tracker.run([float(np.angle(np.exp(1j * turns * t))) for t in grid])
        assert round(total / (2 * np.pi)) == turns
        # base phases are taken by position; the callback sees midpoints only
        assert seen == list(0.5 * (grid[:-1] + grid[1:]))
        assert tracker.evaluations == 2 * n_grid + 1


@pytest.mark.parametrize("n_grid", [64, 256])
@pytest.mark.parametrize("case", ["chain-nonnormal", "dot-tied"])
def test_margin_equals_brute_force_minimum(n_grid, case):
    """The pruned margin is the minimum of eigvals distances over all
    n_grid + 1 base-grid points, bit for bit, at the lowest minimizing theta."""
    from pointgap.spectral import blas_threads_for, theta_grid

    ref = 0.0
    if case == "chain-nonnormal":
        model = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 3, -1)
    else:
        # J = V = 0: diagonal matrices, the static level 0.1i is nearest at every theta
        model = dot_model(FIG_DOT, 2, -1)
    grid = theta_grid(n_grid)
    with blas_threads_for(model.dim):
        dists = [float(np.abs(np.linalg.eigvals(model(t)) - ref).min()) for t in grid]
    res = many_body_winding(model, ref, n_grid=n_grid)
    assert res.gap_margin == min(dists)
    assert res.margin_theta == grid[int(np.argmin(dists))]
    if case == "dot-tied":
        assert len(set(dists)) == 1 and res.margin_theta == 0.0


def test_margin_from_given_spectra():
    from pointgap.spectral import sweep_theta

    model = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 3, -1)
    flow = sweep_theta(model, 64)
    given = many_body_winding(model, 0.0, n_grid=64, spectra=flow.spectra)
    pruned = many_body_winding(model, 0.0, n_grid=64)
    assert given.gap_margin == float(np.abs(flow.spectra).min()) == pruned.gap_margin
    assert given.margin_theta == pruned.margin_theta
    assert given.value == pruned.value
    with pytest.raises(ValueError, match="rows"):
        many_body_winding(model, 0.0, n_grid=32, spectra=flow.spectra)


@pytest.mark.parametrize("jv", [0.0, 1.0])
def test_arpack_margin_is_nearest_distance(jv, monkeypatch):
    """At d = 182 (one matrix per stack) the margin comes from ARPACK on the
    phase LU: the nearest-eigenvalue distance, repeatable bit for bit, and
    the full eigensolve where ARPACK does not converge."""
    import scipy.sparse.linalg
    from scipy.sparse.linalg import ArpackNoConvergence

    from pointgap.spectral import blas_threads_for, stack_length, theta_grid

    ref, n_grid = 0.3j, 16
    model = chain_model(ChainParams(length=7, j=jv, v=jv), 4, 1)
    assert model.dim == 182 and stack_length(model.dim) == 1
    grid = list(theta_grid(n_grid))
    with blas_threads_for(model.dim):
        dists = [float(np.abs(np.linalg.eigvals(model(t)) - ref).min()) for t in grid]
    best = min(dists)
    res = many_body_winding(model, ref, n_grid=n_grid)
    assert abs(res.gap_margin - best) <= 1e-12 * best
    assert abs(dists[grid.index(res.margin_theta)] - best) <= 1e-12 * best
    again = many_body_winding(model, ref, n_grid=n_grid)
    assert (again.gap_margin, again.margin_theta) == (res.gap_margin, res.margin_theta)

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((182, 0)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    fallback = many_body_winding(model, ref, n_grid=n_grid)
    assert fallback.gap_margin == best
    assert fallback.margin_theta == grid[int(np.argmin(dists))]
    assert fallback.value == res.value


def test_trailing_stack_of_one_keeps_eigvals_margin():
    """At d = 2 a grid of stack_length(2) + 1 points ends in a stack of one
    matrix; its margin still comes from eigvals (ARPACK needs d >= 3)."""
    from pointgap.spectral import stack_length, theta_grid

    n_grid = stack_length(2)
    flow = lambda theta: np.array([[np.exp(1j * theta), 0.3], [0.0, 2.0]])
    res = one_body_winding(flow, 0.5j, n_grid=n_grid)
    dists = [float(np.abs(np.linalg.eigvals(flow(t)) - 0.5j).min())
             for t in theta_grid(n_grid)]
    assert res.value == 1
    assert res.gap_margin == min(dists)


@pytest.mark.parametrize("n_grid", [0, 1, 15])
def test_winding_needs_sixteen_grid_points(n_grid):
    """Below 16 points a winding is refused, not reported as 0."""
    circle = lambda theta: [[np.exp(1j * theta)]]
    with pytest.raises(ValueError, match="at least 16"):
        one_body_winding(circle, 0.0, n_grid=n_grid)
    assert one_body_winding(circle, 0.0, n_grid=16).value == 1


# ---------------------------------------------------------------------------
# one BLAS thread for small sectors
# ---------------------------------------------------------------------------

def _thread_counts():
    # the binding imported at the top survives monkeypatching of the module's
    return [get() for get, _ in openblas_thread_controls()]


@pytest.fixture
def two_blas_threads():
    """Every OpenBLAS at two threads for the test, the old counts after."""
    controls = openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS found in this process")
    saved = _thread_counts()
    for _, set_threads in controls:
        set_threads(2)
    yield _thread_counts()
    for (_, set_threads), n in zip(controls, saved):
        set_threads(n)


def _record_threads_during_lu(monkeypatch):
    """Thread counts seen by each LU of a winding: one per base-grid stack
    (``factor_stack``) and one per point factored alone (``factor_shifted``)."""
    import pointgap.topology as topology

    seen = []

    def recording(original):
        def lu(a, ref):
            seen.append(_thread_counts())
            return original(a, ref)
        return lu
    for name in ("factor_shifted", "factor_stack"):
        monkeypatch.setattr(topology, name, recording(getattr(topology, name)))
    return seen


def test_small_sector_wound_on_one_thread(two_blas_threads, monkeypatch):
    seen = _record_threads_during_lu(monkeypatch)
    p = ChainParams(length=7, t=1.0, j=1.0, v=1.0)
    many_body_winding(chain_model(p, 3, -1), 0.0, n_grid=32)
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert _thread_counts() == two_blas_threads


def test_thread_counts_restored_after_gap_closing(two_blas_threads, monkeypatch):
    seen = _record_threads_during_lu(monkeypatch)
    # the a-up level lambda e^{i theta} + 0.2i passes -1 + 0.2i at theta = pi
    with pytest.raises(GapClosedError) as info:
        many_body_winding(dot_model(FIG_DOT, 1, -1), -1.0 + 0.2j, n_grid=32)
    assert 0.0 < info.value.theta < 2 * np.pi
    assert len(seen) > 1  # raised mid-sweep, under the pin
    assert _thread_counts() == two_blas_threads


def test_sector_at_crossover_keeps_thread_counts(two_blas_threads, monkeypatch):
    import pointgap.spectral as spectral

    monkeypatch.setattr(spectral, "BLAS_THREAD_CROSSOVER_DIM", 28)
    seen = _record_threads_during_lu(monkeypatch)
    p = ChainParams(length=7, t=1.0)
    many_body_winding(chain_model(p, 3, -1), 0.0, n_grid=32)  # d = 28
    assert seen and all(counts == two_blas_threads for counts in seen)
    assert _thread_counts() == two_blas_threads


def test_pin_is_noop_without_openblas(two_blas_threads, monkeypatch):
    import pointgap.spectral as spectral

    monkeypatch.setattr(spectral, "openblas_thread_controls", lambda: ())
    seen = _record_threads_during_lu(monkeypatch)
    res = many_body_winding(chain_model(ChainParams(length=7, t=1.0), 3, -1), 0.0,
                            n_grid=32)
    assert res.value == 0
    assert seen and all(counts == two_blas_threads for counts in seen)
    assert _thread_counts() == two_blas_threads


def test_empty_sector_rejected():
    with pytest.raises(ValueError, match="empty"):
        many_body_winding(dot_model(FIG_DOT, 0, -1), 0.5, n_grid=16)
