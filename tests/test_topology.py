from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from pointgap.fock import SectorBasis, dot_layout
from pointgap.models import (
    P_MINUS,
    P_ONE,
    P_PLUS,
    ChainParams,
    DotParams,
    SectorModel,
    chain_model,
    dot_model,
    one_body_model,
)
from pointgap.oracles import CircleFlow, circle_flow_winding
from pointgap.spectral import (
    SpectrumHitError,
    factor_model,
    factor_shifted,
    openblas_thread_controls,
    phase_from_factors,
)
from pointgap.topology import (
    GapClosedError,
    SpinSymmetryError,
    WindingResult,
    many_body_winding,
    spin_winding,
)

FIG_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                    eps_b_dn=-0.25)


def _a_mode_model(terms):
    """The model of ``terms`` on the one-fermion states of the dot's a modes,
    a_up then a_dn."""
    return SectorModel(terms, SectorBasis(dot_layout(), 1, None, [1, 2]))


def _term(dst, src, coeff, slot):
    return (coeff, slot, ((dst, True), (src, False)))


def test_single_circle_winds_once(matrix_flow):
    w = many_body_winding(matrix_flow.diagonal([CircleFlow(plus=1.0, const=0.2j)]), 0.0,
                          n_grid=64)
    assert w.value == 1
    assert abs(w.raw_phase_change - 2 * np.pi) < 1e-6
    assert abs(w.gap_margin - 0.8) < 1e-12


def test_reference_dot_one_body_invariants():
    h = one_body_model(FIG_DOT)
    w = many_body_winding(h, 0.0)
    ws = spin_winding(h, 0.0)
    assert (w.value, ws.value) == (0, 1)
    assert ws.up.value == 1 and ws.down.value == -1


@pytest.mark.parametrize("ref", [0.0, 0.3 + 0.5j])
def test_dot_spin_halves_are_one_fermion_sector_windings(ref):
    # the spin-up and spin-down windings are those of the (1, -1) and
    # (1, +1) sectors, margins and phases included
    h = one_body_model(FIG_DOT)
    ws = spin_winding(h, ref, n_grid=64)
    assert ws.up == many_body_winding(dot_model(FIG_DOT, 1, -1), ref, n_grid=64)
    assert ws.down == many_body_winding(dot_model(FIG_DOT, 1, 1), ref, n_grid=64)


def test_flat_dot_reference_off_spectrum():
    p = replace(FIG_DOT, lam=0.0)
    w = many_body_winding(one_body_model(p), 1.0, n_grid=16)
    assert w.value == 0


def test_chain_one_body_invariants():
    p = ChainParams(length=7, t=1.0)
    h = one_body_model(p)
    w = many_body_winding(h, 0.0)
    ws = spin_winding(h, 0.0)
    assert (w.value, ws.value) == (0, 1)


@pytest.mark.parametrize("params", [FIG_DOT, ChainParams(length=7)], ids=["dot", "chain"])
def test_spin_winding_stacks_once_per_block(params, monkeypatch):
    """A 256-point spin winding builds its matrices in two stacks, each spin
    block's base grid (d <= 7); no matrix is built to split the blocks."""
    calls = []
    stack = SectorModel.stack

    def counting(self, thetas):
        calls.append(len(thetas))
        return stack(self, thetas)
    monkeypatch.setattr(SectorModel, "stack", counting)
    spin_winding(one_body_model(params), 0.0)
    assert calls == [257, 257]


def test_identical_spin_blocks_cancel():
    # both spins wind the same way, diag(e^{i theta} + 0.1i) each: spin winding vanishes
    h = _a_mode_model([_term(m, m, coeff, slot) for m in (0, 1)
                       for coeff, slot in ((1.0, P_PLUS), (0.1j, P_ONE))])
    ws = spin_winding(h, 0.0, n_grid=64)
    assert ws.value == Fraction(0)
    assert isinstance(ws.value, Fraction)


def test_spin_symmetry_violation_raises():
    # h = [[e^{i theta}, c], [c, e^{-i theta}]] with c = 0.5 (e^{i theta} - 1):
    # the blocks commute at theta = 0 only; the first coupling entry, a_up <- a_dn
    # in the constant slot, is named
    h = _a_mode_model([_term(0, 0, 1.0, P_PLUS), _term(1, 1, 1.0, P_MINUS)]
                      + [_term(dst, src, coeff, slot) for dst, src in ((0, 1), (1, 0))
                         for coeff, slot in ((0.5, P_PLUS), (-0.5, P_ONE))])
    with pytest.raises(SpinSymmetryError,
                       match=r"row state 0b1 \(sz \+1\), column state 0b10 "
                             r"\(sz -1\), slot P_ONE: entries sum to -0\.5"):
        spin_winding(h, 0.0, n_grid=16)


def test_spin_mixing_entries_that_cancel_are_accepted():
    # +c and -c on one (row, col, slot) sum to zero: the blocks decouple, and
    # each winds as the diagonal model's
    diagonal = [_term(0, 0, 1.0, P_PLUS), _term(1, 1, 1.0, P_MINUS),
                _term(0, 0, 0.2j, P_ONE), _term(1, 1, -0.1j, P_ONE)]
    h = _a_mode_model(diagonal + [_term(0, 1, c, P_PLUS) for c in (0.3, -0.3)]
                      + [_term(1, 0, c, P_ONE) for c in (-0.7j, 0.7j)])
    assert spin_winding(h, 0.0, n_grid=16) == spin_winding(_a_mode_model(diagonal), 0.0,
                                                           n_grid=16)


def test_tiny_spin_mixing_entry_raises():
    # a coupling of 1e-14 between the blocks is not spin-diagonal, however small
    h = _a_mode_model([_term(0, 0, 1.0, P_PLUS), _term(1, 1, 1.0, P_MINUS),
                       _term(1, 0, 1e-14, P_ONE)])
    with pytest.raises(SpinSymmetryError,
                       match=r"row state 0b10 \(sz -1\), column state 0b1 "
                             r"\(sz \+1\), slot P_ONE: entries sum to 1e-14"):
        spin_winding(h, 0.0, n_grid=16)


def test_gap_closing_raises_with_theta(matrix_flow):
    # circle through the reference: eigenvalue hits 0 at theta = pi
    with pytest.raises(GapClosedError):
        many_body_winding(matrix_flow.diagonal([CircleFlow(plus=1.0, const=1.0)]), 0.0,
                          n_grid=32)


def test_winding_additivity_random_diagonal(matrix_flow):
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
                w = many_body_winding(matrix_flow.diagonal(entries), 0.0, n_grid=128)
            except GapClosedError:
                continue  # grazing flow: winding undefined either way
            assert w.value == expected


def test_block_additivity(matrix_flow):
    a = CircleFlow(plus=1.0, const=0.3j)
    b = CircleFlow(minus=0.7, const=0.1)
    w_ab = many_body_winding(matrix_flow.diagonal([a, b]), 0.0, n_grid=64)
    w_a = many_body_winding(matrix_flow.diagonal([a]), 0.0, n_grid=64)
    w_b = many_body_winding(matrix_flow.diagonal([b]), 0.0, n_grid=64)
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


def _pointwise_phase(model, ref):
    return lambda theta: phase_from_factors(*factor_shifted(model(theta), ref), ref)[1]


@pytest.mark.parametrize("case", ["chain", "dot", "one-body", "chain-182-jv0", "chain-182-jv1"])
def test_stacked_base_grid_equals_pointwise(case):
    """Base-grid phases, and the winding built on them, equal phases taken
    point by point.  Where matrices share a stack (d = 28, and the dot's
    d = 4) a base-grid phase is read from the eigenvalues: bit for bit the
    wrapped sum of arg(lambda - E) over the twist sweep's row at that
    point, and within 1e-12 rad of factor_shifted + phase_from_factors
    there.  At d = 182 every matrix is alone in its stack and factored as
    a band, bit for bit as factor_shifted does.  The winding tracks the
    fundamental arc of its grid reflections only: the quarter arc
    theta <= pi / 2 at d = 182, the half arc [pi / 2, 3 pi / 2] of chain
    (3,-1), the half arc theta <= pi of the one-body chain, and the whole
    circle of the dot, whose grid fits one stack.  Its steps are those of
    the pointwise phases there, its W that of the full circle, and it
    evaluates as many phases as the pointwise LU tracker over the arc."""
    from pointgap.spectral import (
        blas_threads_for,
        stack_length,
        sweep_theta,
        theta_grid,
        twist_orbits,
        wrap_phase,
    )
    from pointgap.topology import _PhaseTracker

    if case == "chain":  # d = 28: stacks of 41, 41 and 19 points
        model = chain_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0), 3, -1)
        ref = 0.3j
    elif case.startswith("chain-182"):
        jv = float(case[-1])
        model, ref = chain_model(ChainParams(length=7, j=jv, v=jv), 4, 1), 0.3j
    elif case == "dot":
        model, ref = dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, 1), 0.05 - 0.02j
    else:  # d = 28
        model, ref = one_body_model(ChainParams(length=14)), 0.2j
    n_grid = 100
    grid = theta_grid(n_grid)
    phase = _pointwise_phase(model, ref)
    with blas_threads_for(28):
        expected = [phase(theta) for theta in grid]
        if stack_length(model.dim) > 1:  # read from the sweep's eigenvalues
            got = wrap_phase(np.angle(sweep_theta(model, n_grid).spectra - ref)
                             .sum(axis=1)).tolist()
            assert max(abs(wrap_phase(a - b)) for a, b in zip(got, expected)) <= 1e-12
        else:  # factored alone, as a band
            got = []
            for theta in grid:
                factors, scale = factor_shifted(model(theta), ref)
                assert factors.perm is not None
                got.append(phase_from_factors(factors, scale, ref)[1])
            assert got == expected
        full_value = round(_PhaseTracker(phase).run(grid, expected) / (2.0 * np.pi))
        orbits = twist_orbits(model, n_grid, ref)
        first, last = orbits.first, orbits.last
        assert (first, last) == {"chain": (25, 75), "dot": (0, n_grid),
                                 "one-body": (0, 50)}.get(case, (0, 25))
        arc = grid[first:last + 1]
        tracker = _PhaseTracker(phase)
        total = orbits.copies * tracker.run(arc, got[first:last + 1])
        pointwise = _PhaseTracker(phase)
        pointwise.run(arc, expected[first:last + 1])
        if (0, 1, False) in orbits.reflections:  # mirror-symmetric: W = 0
            total = 0.0
    result = many_body_winding(model, ref, n_grid=n_grid)
    assert result.raw_phase_change == total
    assert result.max_phase_step == tracker.max_step
    assert result.grid_size_used == tracker.evaluations == pointwise.evaluations
    assert result.value == full_value
    if case.startswith("chain-182"):
        assert result.value == 0 and result.grid_size_used < n_grid // 2
    else:  # matrices that share a stack: factor_model is dense and orders no band
        factors, scale = factor_model(model, grid[1], ref)
        assert factors.perm is None and phase_from_factors(factors, scale, ref)[1] == expected[1]
        assert "band_layout" not in model.__dict__


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_gap_closed_in_later_stack_names_its_theta(matrix_flow):
    from pointgap.spectral import STACK_BYTES, theta_grid

    n_grid, k = 100, 60
    assert k > STACK_BYTES // (16 * 28 * 28)  # d = 28: point k is in the second stack
    grid = theta_grid(n_grid)
    ref = np.exp(1j * grid[k])  # the moving level hits ref exactly at theta_k
    flow = matrix_flow(lambda theta: np.diag([np.exp(1j * theta)]
                                             + [3.0 + j for j in range(27)]))
    with pytest.raises(GapClosedError) as info:
        many_body_winding(flow, ref, n_grid=n_grid)
    assert info.value.theta == grid[k]
    # the eigenvalue-distance test at a base point, not the margin
    assert isinstance(info.value.__cause__, SpectrumHitError)
    assert "an eigenvalue lies" in str(info.value.__cause__)


def _count_factor_model(monkeypatch):
    """The thetas of every LU a winding makes (``factor_model``)."""
    import pointgap.topology as topology

    thetas = []
    factor_model = topology.factor_model

    def counted(model, theta, e_ref):
        thetas.append(theta)
        return factor_model(model, theta, e_ref)
    monkeypatch.setattr(topology, "factor_model", counted)
    return thetas


def _triangular_flow(matrix_flow, diagonal, dim=28, seed=11):
    """A non-normal flow: diag(diagonal(theta) + [3, 4, ...]) plus a fixed
    strictly upper triangle, so its eigenvalues are the diagonal."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((dim, dim)), 1)
    return matrix_flow(lambda theta: upper + np.diag(
        list(diagonal(theta)) + [3.0 + j for j in range(dim - len(diagonal(theta)))]))


@pytest.mark.parametrize("case", ["fast-flow", "fast-flow-spectra", "chain-28-spectra",
                                  "chain-182-spectra"])
def test_winding_holding_eigenvalues_factors_only_midpoints(case, matrix_flow,
                                                            monkeypatch):
    """A winding that holds the eigenvalues of its arc - eigensolved in
    stacks at d <= 128, or given as ``spectra`` at any size - reads its
    base-grid phases from them and makes an LU at refinement midpoints only.
    The fast flow's level e^{5 i theta} turns 5 pi / 8 per step of a
    16-point grid, so every step is refined once."""
    from pointgap.spectral import sweep_theta, theta_grid, twist_orbits

    n_grid, ref = 16, 0.3j
    if case.startswith("fast-flow"):
        model = _triangular_flow(matrix_flow, lambda theta: [np.exp(5j * theta)], dim=3)
        ref = 0.0
    elif case == "chain-28-spectra":
        model, n_grid = chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1), 64
    else:
        model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 4, 1)
    spectra = sweep_theta(model, n_grid).spectra if case.endswith("spectra") else None
    lus = _count_factor_model(monkeypatch)
    res = many_body_winding(model, ref, n_grid=n_grid, spectra=spectra)
    orbits = twist_orbits(model, n_grid, ref)
    arc = orbits.last - orbits.first + 1
    assert len(lus) == res.grid_size_used - arc
    assert not set(lus) & set(theta_grid(n_grid))
    if case.startswith("fast-flow"):
        assert (res.value, len(lus)) == (5, n_grid)


@pytest.mark.parametrize("jv", [0.0, 1.0])
@pytest.mark.parametrize("ref", [0.3j, -0.04])
def test_spectra_given_band_winding_matches_band_path(jv, ref):
    """Chain (4,+1) at d = 182 wound with its sweep's spectra - phases from
    eigenvalues, margin from the rows - gives the band path's W, margin
    (ARPACK, within 1e-12 relative), margin_theta and phase evaluations, and
    its largest phase step within 2e-12 rad."""
    from pointgap.spectral import sweep_theta

    n_grid = 16
    model = chain_model(ChainParams(length=7, j=jv, v=jv), 4, 1)
    band = many_body_winding(model, ref, n_grid=n_grid)
    given = many_body_winding(model, ref, n_grid=n_grid,
                              spectra=sweep_theta(model, n_grid).spectra)
    assert given.value == band.value
    assert abs(given.gap_margin - band.gap_margin) <= 1e-12 * band.gap_margin
    assert given.margin_theta == band.margin_theta
    assert given.grid_size_used == band.grid_size_used
    assert abs(given.max_phase_step - band.max_phase_step) <= 2e-12


@pytest.mark.parametrize("ref", [0.0, 0.3j, 0.05 + 0.3j, -0.5])
def test_stacked_winding_reads_its_sweep(ref):
    """Where matrices share a stack (chain (3,-1), d = 28) a winding given no
    spectra reads its sweep's, so it equals one given them, bit for bit."""
    from pointgap.spectral import sweep_theta

    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1)
    assert many_body_winding(model, ref, 64) == many_body_winding(
        model, ref, 64, spectra=sweep_theta(model, 64).spectra)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
@pytest.mark.parametrize("given", [False, True], ids=["stacked", "spectra"])
def test_gap_closed_at_stacked_base_point_names_its_theta(given, matrix_flow,
                                                          monkeypatch):
    """A non-normal d = 28 flow whose levels e^{i theta} and e^{-i theta}
    meet E = e^{i theta_60} at theta_60 and theta_40 of a 100-point grid, in
    its second and first stacks: the eigenvalue-distance test raises at
    theta_40, the first in grid order, before any LU is made."""
    from pointgap.spectral import sweep_theta, theta_grid

    n_grid = 100
    grid = theta_grid(n_grid)
    ref = np.exp(1j * grid[60])
    flow = _triangular_flow(matrix_flow,
                            lambda theta: [np.exp(1j * theta), np.exp(-1j * theta)])
    spectra = sweep_theta(flow, n_grid).spectra if given else None
    lus = _count_factor_model(monkeypatch)
    with pytest.raises(GapClosedError) as info:
        many_body_winding(flow, ref, n_grid=n_grid, spectra=spectra)
    assert info.value.theta == grid[40]
    assert "an eigenvalue lies" in str(info.value.__cause__)
    assert lus == []


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_gap_closed_through_band_lu_names_its_theta(matrix_flow):
    """At d = 200 each matrix is alone in its stack and factored as a band;
    a level that hits ref at theta_k raises there, from the pivot test."""
    from pointgap.spectral import stack_length, theta_grid

    n_grid, k, d = 64, 23, 200
    grid = theta_grid(n_grid)
    ref = np.exp(1j * grid[k])
    flow = matrix_flow(lambda theta: np.diag([np.exp(1j * theta)]
                                             + [3.0 + j for j in range(d - 1)]))
    assert stack_length(d) == 1
    assert factor_shifted(flow(grid[0]), ref)[0].perm is not None  # the band path
    with pytest.raises(GapClosedError) as info:
        many_body_winding(flow, ref, n_grid=n_grid)
    assert info.value.theta == grid[k]
    assert isinstance(info.value.__cause__, SpectrumHitError)


def test_band_winding_orders_once_and_builds_no_matrix(monkeypatch):
    """At d = 182 every point, refinement midpoints included, is factored
    from the model's pattern: no dense H(theta) is built, and the band is
    ordered once per model."""
    import scipy.sparse.csgraph

    from pointgap.spectral import stack_length

    orderings = []
    rcm = scipy.sparse.csgraph.reverse_cuthill_mckee

    def counting_rcm(*args, **kwargs):
        orderings.append(args)
        return rcm(*args, **kwargs)

    def no_stack(self, thetas):  # model(theta) builds through stack too
        raise AssertionError("a dense H(theta) was built")
    monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", counting_rcm)
    monkeypatch.setattr(SectorModel, "stack", no_stack)
    n_grid = 16
    model = chain_model(ChainParams(length=7, j=0.0, v=0.0), 4, 1)
    assert model.dim == 182 and stack_length(model.dim) == 1
    res = many_body_winding(model, 0.3j, n_grid=n_grid)
    # the arc theta <= pi / 2 holds 5 base-grid points; midpoints were factored too
    assert res.grid_size_used > n_grid // 4 + 1
    assert len(orderings) == 1
    many_body_winding(model, 0.5j, n_grid=n_grid)  # the model keeps its band
    assert len(orderings) == 1


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
        tracker = _PhaseTracker(phase)
        total = tracker.run(grid, [float(np.angle(np.exp(1j * turns * t))) for t in grid])
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
    # a flow of another sector on the same grid: 65 rows of 4 eigenvalues, not 28
    other = sweep_theta(dot_model(FIG_DOT, 2, 1), 64).spectra
    with pytest.raises(ValueError, match="of 28 eigenvalues"):
        many_body_winding(model, 0.0, n_grid=64, spectra=other)


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

    # the sector is mirror-symmetric, and E is imaginary and L odd, so the
    # s = -1 conjugation relation holds with theta0 = pi: the distances at
    # theta, 2 pi - theta and pi - theta agree, and only the points
    # theta <= pi / 2 are eigensolved
    assert model.twist_relations[:2] == ((0.0, 1, False), (np.pi, -1, True))
    for k in range(n_grid + 1):
        assert abs(dists[k] - dists[n_grid - k]) <= 1e-12 * dists[k]
        assert abs(dists[k] - dists[(n_grid // 2 - k) % n_grid]) <= 1e-12 * dists[k]
    quarter = dists[: n_grid // 4 + 1]

    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((182, 0)))
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    fallback = many_body_winding(model, ref, n_grid=n_grid)
    assert fallback.gap_margin == min(quarter)
    assert fallback.margin_theta == grid[int(np.argmin(quarter))]
    assert fallback.value == res.value


@pytest.mark.parametrize("sector, ref, n_grid, calls", [
    ((4, 1), 0.3j, 16, 5), ((5, 1), 0.3j, 16, 9), ((4, 1), 0.05 + 0.3j, 16, 9),
    ((5, 1), 0.05 + 0.3j, 16, 17), ((5, 1), -0.04, 16, 9), ((4, 1), 0.3j, 17, 9),
    ((5, 1), 0.3j, 17, 18)],
    ids=["4+1-imaginary", "5+1-imaginary", "4+1-off-axis", "5+1-off-axis", "5+1-real",
         "4+1-imaginary-odd-grid", "5+1-imaginary-odd-grid"])
def test_symmetries_cut_the_arpack_margins(sector, ref, n_grid, calls, monkeypatch):
    """An ARPACK margin is solved once per orbit of the grid reflections
    that keep the distance to E: the mirror of an even-N sector (k -> -k),
    the s = -1 relation with theta0 = pi for an imaginary E (k -> n_grid/2
    - k, on an even grid only) and the s = +1 one with theta0 = 0 for a
    real E (k -> -k).  Off both axes only the mirror applies.  margin_theta
    is the lowest point of its orbit."""
    import scipy.sparse.linalg

    from pointgap.spectral import theta_grid

    eigs = scipy.sparse.linalg.eigs
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return eigs(*args, **kwargs)
    monkeypatch.setattr(scipy.sparse.linalg, "eigs", counted)
    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), *sector)
    res = many_body_winding(model, ref, n_grid=n_grid)
    assert count[0] == calls
    mirrored = (0.0, 1, False) in model.twist_relations
    assert mirrored == (sector[0] % 2 == 0)
    assert res.margin_theta in list(theta_grid(n_grid))
    if calls == 5:
        assert res.margin_theta <= np.pi / 2
    elif mirrored:
        assert res.margin_theta <= np.pi


@pytest.mark.parametrize("sector, couplings, ref, n_grid, expected", [
    ((4, 1), (0.0, 0.0), 0.3j, 16, 0), ((4, 1), (1.0, 1.0), 0.3j, 16, 0),
    ((5, 1), (1.0, 1.0), -0.6, 16, -1), ((5, 1), (1.0, 1.0), 0.5, 16, 2),
    ((5, 1), (1.0, 1.0), 0.3j, 16, -1), ((5, -1), (1.0, 1.0), -0.7j, 16, 4),
    ((5, 1), (1.0, 2.0), 0.0, 16, -2), ((5, 1), (1.0, 1.0), 0.0, 18, 0),
    ((5, 1), (1.0, 1.0), 0.05 + 0.3j, 16, 1), ((4, 1), (1.0, 1.0), 0.3j, 17, 0),
    *(((3, -1), (jv, jv), ref, 256, 0) for jv in (0.0, 1.0) for ref in (0.0, 0.3j, -0.04)),
    ((3, -1), (1.0, 1.0), 0.0, 65, 0)],
    ids=["4+1-jv0-mirror-quarter", "4+1-mirror-quarter", "5+1-real-half",
         "5+1-real-half-w2", "5+1-imaginary-half-at-pi", "5-1-imaginary-w4",
         "5+1-zero-quarter-v2", "5+1-zero-half-grid-2-mod-4", "5+1-off-axis-full",
         "4+1-odd-grid-full", "3-1-jv0-zero-quarter", "3-1-jv0-imaginary-half-at-pi",
         "3-1-jv0-real-half", "3-1-zero-quarter", "3-1-imaginary-half-at-pi",
         "3-1-real-half", "3-1-odd-grid-full"])
def test_fundamental_arc_winding_matches_full_circle(sector, couplings, ref, n_grid,
                                                     expected, monkeypatch):
    """The phase is tracked over a fundamental arc of the grid reflections
    only: a quarter (m = 4) or a half (m = 2), or the whole circle where the
    reflections leave no arc of grid points (off both axes, an odd n_grid).
    Chain (3,-1) (d = 28) is eigensolved in stacks, (4,+-1) and (5,+-1)
    (d = 182 and 728) factored point by point as bands.  W and the phase
    change equal those of the pointwise tracker over the full grid.  The
    margins equal the full-circle winding's bit for bit where one ARPACK
    margin is solved per orbit on an arc that starts at theta = 0.  They
    agree within 1e-12 on the half arc [pi / 2, 3 pi / 2] of a relation with
    theta0 = pi alone, and where every point is eigensolved in its stack:
    there the circle's winding eigensolves each image point itself, which
    agrees with its arc point only to rounding.  Over the whole circle the
    largest phase step is the pointwise tracker's: bit for bit for the band
    LUs, and within 2e-12 rad (two phases, each within 1e-12 of the LU's)
    where chain (3,-1)'s phases are read from its eigenvalues."""
    from pointgap import spectral
    from pointgap.spectral import blas_threads_for, stack_length, theta_grid
    from pointgap.topology import _PhaseTracker

    j, v = couplings
    model = chain_model(ChainParams(length=7, j=j, v=v), *sector)
    grid = theta_grid(n_grid)
    phase = _pointwise_phase(model, ref)
    with blas_threads_for(model.dim):
        full = _PhaseTracker(phase)
        total = full.run(grid, [phase(theta) for theta in grid])
    assert round(total / (2.0 * np.pi)) == expected
    res = many_body_winding(model, ref, n_grid=n_grid)
    assert res.value == expected
    assert abs(res.raw_phase_change - total) <= 1e-9
    orbits = spectral.twist_orbits(model, n_grid, ref)
    first, last = orbits.first, orbits.last
    if n_grid % 2 or ref.real and ref.imag:
        assert (first, last) == (0, n_grid)
        assert res.grid_size_used == full.evaluations
        if stack_length(model.dim) == 1:  # the same band LUs
            assert res.max_phase_step == full.max_step
        else:  # phases from eigenvalues, each within 1e-12 rad of the LU's
            assert abs(res.max_phase_step - full.max_step) <= 2e-12
    else:
        assert last - first <= n_grid // 2 and res.grid_size_used < full.evaluations
    assert grid[first] <= res.margin_theta <= grid[last]

    monkeypatch.setattr(spectral, "_fundamental_arc", lambda offsets, n: (0, n, 1))
    circle = many_body_winding(model, ref, n_grid=n_grid)
    assert circle.value == expected and circle.grid_size_used == full.evaluations
    if first == 0 and stack_length(model.dim) == 1:
        assert (res.gap_margin, res.margin_theta) == (circle.gap_margin, circle.margin_theta)
    else:
        assert abs(res.gap_margin - circle.gap_margin) <= 1e-12 * circle.gap_margin


@pytest.mark.xfail(strict=True, reason="the sampled tracker misses a fast phase turn "
                   "near theta = 4.669 that no point of the 17-point grid lies near, and "
                   "reports W = 0 with a gap margin 12x the true one")
def test_odd_grid_winding_agrees_with_the_even_grid():
    """Chain (5,+1) at L = 7, J = V = 1, E = 0.3i winds W = -1 at n_grid 16
    (and 20 to 128); the gap stays open (nearest eigenvalue 6.3e-4 from E),
    so n_grid 17 must give the same W."""
    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 5, 1)
    assert many_body_winding(model, 0.3j, n_grid=16).value == -1
    assert many_body_winding(model, 0.3j, n_grid=17).value == -1


def test_fixed_point_phase_is_checked(monkeypatch):
    """At theta = pi / 2, the end of the quarter arc of chain (4,+1) at
    E = 0.3i, the s = -1 relation with theta0 = pi fixes the phase of
    det[H - E] to 0 or pi (d = 182 is even); a pivot turned by 0.01 there is
    refused, naming the sector and the relation."""
    from pointgap import topology
    from pointgap.spectral import SpectralError

    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 4, 1)
    assert many_body_winding(model, 0.3j, n_grid=16).value == 0
    factor_model = topology.factor_model

    def turned(model, theta, e_ref):
        factors, scale = factor_model(model, theta, e_ref)
        if theta == np.pi / 2:
            factors.lu[factors.kl + factors.ku, 0] *= np.exp(0.01j)
        return factors, scale
    monkeypatch.setattr(topology, "factor_model", turned)
    with pytest.raises(SpectralError, match=r"sector \(4, 1\): the s = -1 .*theta=1.570796"):
        many_body_winding(model, 0.3j, n_grid=16)


def test_trailing_stack_of_one_keeps_eigvals_margin(matrix_flow):
    """At d = 2 a grid of stack_length(2) + 1 points ends in a stack of one
    matrix; its margin still comes from eigvals (ARPACK needs d >= 3)."""
    from pointgap.spectral import stack_length, theta_grid

    n_grid = stack_length(2)
    flow = matrix_flow(lambda theta: np.array([[np.exp(1j * theta), 0.3], [0.0, 2.0]]))
    res = many_body_winding(flow, 0.5j, n_grid=n_grid)
    dists = [float(np.abs(np.linalg.eigvals(flow(t)) - 0.5j).min())
             for t in theta_grid(n_grid)]
    assert res.value == 1
    assert res.gap_margin == min(dists)


@pytest.mark.parametrize("n_grid", [0, 1, 15])
def test_winding_needs_sixteen_grid_points(n_grid, matrix_flow):
    """Below 16 points a winding is refused, not reported as 0."""
    circle = matrix_flow(lambda theta: [[np.exp(1j * theta)]])
    with pytest.raises(ValueError, match="at least 16"):
        many_body_winding(circle, 0.0, n_grid=n_grid)
    assert many_body_winding(circle, 0.0, n_grid=16).value == 1


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
    """Thread counts seen by each eigensolve and LU of a winding: one per
    base-grid stack of its sweep (``spectral.stack_eigvals``) and one per
    point factored alone (``factor_model``)."""
    import pointgap.spectral as spectral
    import pointgap.topology as topology

    seen = []

    def recording(original):
        def lu(*args):
            seen.append(_thread_counts())
            return original(*args)
        return lu
    for module, name in ((spectral, "stack_eigvals"), (topology, "factor_model")):
        monkeypatch.setattr(module, name, recording(getattr(module, name)))
    return seen


def test_small_sector_wound_on_one_thread(two_blas_threads, monkeypatch):
    seen = _record_threads_during_lu(monkeypatch)
    p = ChainParams(length=7, t=1.0, j=1.0, v=1.0)
    # stacked (d = 28), and alone in its stack (d = 182)
    for sector, dim, ref in (((3, -1), 28, 0.0), ((4, 1), 182, 0.3j)):
        model = chain_model(p, *sector)
        assert model.dim == dim
        start = len(seen)
        many_body_winding(model, ref, n_grid=32)
        assert len(seen) > start
        assert all(counts == [1] * len(counts) for counts in seen[start:])
        assert _thread_counts() == two_blas_threads


def test_spin_winding_halves_wound_on_one_thread(two_blas_threads, monkeypatch):
    seen = _record_threads_during_lu(monkeypatch)
    spin_winding(one_body_model(ChainParams(length=7, t=1.0, j=1.0, v=1.0)), 0.0,
                 n_grid=32)
    assert seen and all(counts == [1] * len(counts) for counts in seen)
    assert _thread_counts() == two_blas_threads


def test_thread_counts_restored_after_gap_closing(two_blas_threads, monkeypatch):
    seen = _record_threads_during_lu(monkeypatch)
    # the a-up level lambda e^{i theta} + 0.2i passes -1 + 0.2i at theta = pi
    with pytest.raises(GapClosedError) as info:
        many_body_winding(dot_model(FIG_DOT, 1, -1), -1.0 + 0.2j, n_grid=32)
    assert 0.0 < info.value.theta < 2 * np.pi
    # raised from the stack's eigenvalues, solved under the pin
    assert seen and all(counts == [1] * len(counts) for counts in seen)
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
