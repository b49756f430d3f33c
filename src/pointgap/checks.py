"""Self-contained invariant suite behind ``pointgap check``.

Each check returns (ok, detail) and is registered in CHECKS; the CLI prints
one pass/fail line per entry and the pytest suite asserts them individually.
Everything here is deterministic (fixed seeds, fixed grids).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import fock
from .models import (
    P_PLUS,
    ChainParams,
    DotParams,
    chain_model,
    chain_terms,
    dot_model,
    dot_terms,
    full_space_matrix,
    one_body_model,
)
from .oracles import (
    chain_first_order_spectrum,
    dot_sector21_eigenvalues,
    dot_sector2m1_eigenvalues,
    eigenvalue_match,
)
from .spectral import (
    eigendecompose,
    logdet_phase,
    sweep_theta,
    theta_grid,
    twist_orbits,
    wrap_phase,
)
from .observables import occupation_profiles
from .topology import many_body_winding, spin_winding

REFERENCE_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1,
                          eps_b_up=0.35, eps_b_dn=-0.25)
REFERENCE_DOT_INT = replace(REFERENCE_DOT, j=1.0, v=1.0)
# weak chain couplings where the first-order splitting formulas apply: edge
# amplitudes (exchange, pair) = (0.02, 0.03i)
REFERENCE_CHAIN_WEAK = ChainParams(length=7, t=1.0, j=0.04, v=0.03)

DOT_ORACLE_THETAS = np.linspace(0.0, 2.0 * np.pi, 65)
# clear of the isolated angles (pi, 2 pi) where hopping modes from different
# quadruplets cross and the per-quadruplet first-order treatment does not apply
CHAIN_ORACLE_THETAS = np.concatenate([[0.0], np.linspace(0.2, 2.6, 13)])


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def dot_closed_form_verdict(first: DotParams, seed: int):
    """The largest distance between exact and closed-form spectra of the
    dot's (2,+1) and (2,-1) sectors, and whether it is below 1e-10.

    Compares on the 65-point twist grid, at ``first`` and at 20 random
    parameter draws from ``seed``.
    """
    rng = np.random.default_rng(seed)
    draws = [first]
    for _ in range(20):
        lam = rng.uniform(0.5, 2.0)
        eps = rng.uniform(-0.9, 0.9, 4) * lam
        draws.append(DotParams(lam=lam, eps_a_up=eps[0], eps_a_dn=eps[1],
                               eps_b_up=eps[2], eps_b_dn=eps[3],
                               j=rng.uniform(-1.5, 1.5), v=rng.uniform(-1.5, 1.5)))
    worst = 0.0
    for p in draws:
        for sector, formula in (((2, 1), dot_sector21_eigenvalues),
                                ((2, -1), dot_sector2m1_eigenvalues)):
            model = dot_model(p, *sector)
            for theta in DOT_ORACLE_THETAS:
                worst = max(worst, eigenvalue_match(np.linalg.eigvals(model(theta)),
                                                    formula(p, theta))[0])
    return worst, worst < 1e-10


def chain_splitting_verdict(p: ChainParams, sector):
    """(err, err_half, ratio, ok): the distances between exact chain
    spectra and the first-order splitting formulas, at the couplings of
    ``p`` and at half of them, their ratio, and whether the ratio is
    4 +- 0.5.

    Each distance is the largest mean assignment distance over the twist
    window.  The formulas are first order, so halving J and V should shrink
    the distance fourfold: the second-order scaling of a first-order error.
    An exact halved spectrum gives an infinite ratio, which fails.
    """
    errs = []
    for scale in (1.0, 0.5):
        q = replace(p, j=p.j * scale, v=p.v * scale)
        model = chain_model(q, *sector)
        errs.append(max(
            eigenvalue_match(np.linalg.eigvals(model(theta)),
                             chain_first_order_spectrum(q, theta))[1]
            for theta in CHAIN_ORACLE_THETAS))
    err, err_half = errs
    ratio = err / err_half if err_half > 0 else float("inf")
    return err, err_half, ratio, 3.5 <= ratio <= 4.5


def check_anticommutation():
    """Exhaustive fermion algebra on all states and mode pairs of 8 modes."""
    n_modes = 8
    for s in range(1 << n_modes):
        for i in range(n_modes):
            # {c_i, c†_i} = 1 on every state: exactly one order survives,
            # round-trips to the state, and carries total sign +1
            created = fock.apply_create(s, i)
            destroyed = fock.apply_annihilate(s, i)
            if (created is None) == (destroyed is None):
                return False, f"c/c† both (un)defined on state {s:#x} mode {i}"
            mid, sign = created if created is not None else destroyed
            inverse = fock.apply_annihilate if created is not None else fock.apply_create
            back, sign2 = inverse(mid, i)
            if back != s or sign * sign2 != 1:
                return False, f"c/c† identity broken on state {s:#x} mode {i}"
            for j in range(i + 1, n_modes):
                for create in (True, False):
                    ij = fock.apply_ops(s, ((i, create), (j, create)))  # op_i op_j |s>
                    ji = fock.apply_ops(s, ((j, create), (i, create)))
                    if (ij is None) != (ji is None):
                        return False, f"asymmetric annihilation at s={s:#x} ({i},{j})"
                    if ij is not None and (ij[0] != ji[0] or ij[1] != -ji[1]):
                        return False, f"anticommutation broken at s={s:#x} ({i},{j})"
    return True, f"all pairs on {n_modes} modes"


def _block_defect(h: np.ndarray, layout) -> float:
    """Largest matrix element between states of different (N, P)."""
    states = np.arange(h.shape[0])
    n = np.array([int(s).bit_count() for s in states])
    p = np.array([layout.spin_parity(int(s)) for s in states])
    same = (n[:, None] == n[None, :]) & (p[:, None] == p[None, :])
    off = np.abs(h)[~same]
    return float(off.max(initial=0.0))


def check_block_structure():
    """Whole-space Hamiltonians never couple different (N, P) sectors."""
    lay, terms = dot_terms(replace(REFERENCE_DOT, j=0.7, v=0.9))
    defect = _block_defect(full_space_matrix(lay, terms, theta=0.83), lay)
    if defect > 0:
        return False, f"dot couples sectors by {defect:.2e}"
    p = ChainParams(length=3, t=1.0, j=0.8, v=0.6)
    lay, terms = chain_terms(p)
    h = full_space_matrix(lay, terms, theta=1.21)
    defect = _block_defect(h, lay)
    if defect > 0:
        return False, f"chain couples sectors by {defect:.2e}"
    # localized edge fermion numbers are conserved as well
    states = np.arange(h.shape[0])
    for c in fock.edge_b_constraints(lay, 3):
        occ = np.array([int(np.uint64(s) & np.uint64(c.mask)).bit_count()
                        for s in states])
        bad = np.abs(h)[occ[:, None] != occ[None, :]].max(initial=0.0)
        if bad > 0:
            return False, f"edge b occupation not conserved ({bad:.2e})"
    return True, "dot 16-state and chain L=3 1024-state spaces block-diagonal"


def check_boundary_twist():
    """The twist on the boundary link gives the exact J = V = 0 levels of the
    (3,-1) sector: ``chain_first_order_spectrum``, derived with the twist
    spread over every link, is exact there, t e^{i(2 pi n +- theta)/L} with
    each level twice."""
    rng = np.random.default_rng(11)
    worst = 0.0
    for length in (5, 7):
        p = ChainParams(length=length, t=1.0)
        model = chain_model(p, 3, -1)
        for theta in rng.uniform(0.0, 2.0 * np.pi, 4):
            worst = max(worst, eigenvalue_match(np.linalg.eigvals(model(theta)),
                                                chain_first_order_spectrum(p, theta))[0])
    return worst < 1e-10, f"max eigenvalue mismatch {worst:.2e} (tol 1e-10)"


def check_theta_periodicity():
    """Every flow closes: spectra solved at theta = 0 and 2 pi agree as
    multisets.  Both are solved directly, never taken from a sweep, which
    may fill theta = 2 pi as the image of theta = 0."""
    cases = [
        ("dot one-body", one_body_model(REFERENCE_DOT)),
        ("dot (2,1)", dot_model(REFERENCE_DOT_INT, 2, 1)),
        ("dot (2,-1)", dot_model(REFERENCE_DOT_INT, 2, -1)),
        ("chain one-body", one_body_model(ChainParams(length=7))),
        ("chain (3,-1)", chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1)),
    ]
    worst, worst_label = 0.0, ""
    for label, model in cases:
        d = eigenvalue_match(np.linalg.eigvals(model(0.0)),
                             np.linalg.eigvals(model(2.0 * np.pi)))[0]
        if d > worst:
            worst, worst_label = d, label
    return worst < 1e-8, f"max end-to-end defect {worst:.2e} in {worst_label!r}"


def check_winding_grid_stability():
    """Doubling the twist grid never changes a winding value, the dot's
    spin winding included."""
    cases = [
        ("dot one-body", one_body_model(REFERENCE_DOT), 0.0),
        ("dot (2,1)", dot_model(REFERENCE_DOT, 2, 1), 0.0),
        ("dot (2,1) interacting", dot_model(REFERENCE_DOT_INT, 2, 1), 0.0),
        ("dot (1,-1)", dot_model(REFERENCE_DOT, 1, -1), 0.0),
        ("chain (3,-1)", chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1), 0.0),
    ]
    for label, model, ref in cases:
        w1 = many_body_winding(model, ref, n_grid=64)
        w2 = many_body_winding(model, ref, n_grid=128)
        if w1.value != w2.value:
            return False, f"{label} at ref {ref}: {w1.value} -> {w2.value}"
    h = one_body_model(REFERENCE_DOT)
    ws1 = spin_winding(h, 0.0, n_grid=64)
    ws2 = spin_winding(h, 0.0, n_grid=128)
    if ws1.value != ws2.value:
        return False, f"dot spin winding: {ws1.value} -> {ws2.value}"
    return True, "windings stable under grid doubling"


def check_det_consistency():
    """exp(logdet) equals the product of (E_n - ref) over the spectrum."""
    rng = np.random.default_rng(23)
    mats = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for d in (5, 23, 57)]
    mats.append(dot_model(REFERENCE_DOT_INT, 2, -1)(0.77))
    mats.append(chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1)(1.3))
    worst = 0.0
    for a in mats:
        ref = 0.1 - 0.2j
        log_mag, phase = logdet_phase(a, ref)
        direct = np.prod(np.linalg.eigvals(a) - ref)
        rel = abs(np.exp(log_mag + 1j * phase) - direct) / abs(direct)
        worst = max(worst, rel)
    return worst < 1e-8, f"max relative determinant error {worst:.2e}"


def check_occupation_sum_rules():
    """Profiles stay in [0, 1] and a-orbital occupations sum to the conserved
    a-fermion number (an exact integer; N - 2 for every chain sector)."""
    tol = 1e-9
    cases = [
        ("dot (2,1)", dot_model(REFERENCE_DOT_INT, 2, 1), None),
        ("dot (2,-1)", dot_model(REFERENCE_DOT_INT, 2, -1), None),
        ("chain (3,-1) twisted", chain_model(
            ChainParams(length=7, j=1.0, v=1.0), 3, -1), 1),
        ("chain (4,1) open", chain_model(
            ChainParams(length=7, j=0.5, v=0.5, bc="open"), 4, 1), 2),
    ]
    for label, model, n_a in cases:
        occ = occupation_profiles(eigendecompose(model.matrix(0.9)), model.basis)
        excursion = max(-occ.weights.min(), occ.weights.max() - 1.0)
        if excursion > tol:
            return False, f"{label}: value outside [0,1] by {excursion:.2e}"
        a_total = (occ.spin_weights(fock.UP).sum(axis=1)
                   + occ.spin_weights(fock.DOWN).sum(axis=1))
        off = np.abs(a_total - (np.round(a_total) if n_a is None else n_a)).max()
        if off > tol:
            return False, f"{label}: sum rule off by {off:.2e}"
    # noninteracting periodic (theta = 0) states are site-uniform per spin
    model = chain_model(ChainParams(length=7), 3, -1)
    occ = occupation_profiles(eigendecompose(model.matrix(0.0)), model.basis)
    worst = 0.0
    for spin in (fock.UP, fock.DOWN):
        w = occ.spin_weights(spin)
        worst = max(worst, float(np.abs(w - w.mean(axis=1, keepdims=True)).max()))
    if worst > tol:
        return False, f"periodic profiles deviate from uniformity by {worst:.2e}"
    return True, "sum rules, bounds and periodic uniformity hold"


def check_dot_closed_forms():
    """Exact dot spectra match the (2,+1) and (2,-1) closed forms."""
    worst, ok = dot_closed_form_verdict(REFERENCE_DOT_INT, seed=7)
    return ok, f"max closed-form vs ED distance {worst:.2e} over 21 draws"


def check_chain_splitting_scaling():
    """Halving the chain couplings shrinks the first-order formulas' error
    fourfold (4 +- 0.5)."""
    err, err_half, ratio, ok = chain_splitting_verdict(REFERENCE_CHAIN_WEAK, (3, -1))
    return ok, f"assignment distance {err:.3e} -> {err_half:.3e}, halving ratio {ratio:.3f}"


def check_gap_margin_distance():
    """A winding's gap margin, and the distance at its margin_theta, equal the
    nearest-eigenvalue distance over the base grid, for chain (4,+1) at
    reference 0.3i (d = 182, where the margin comes from ARPACK).  The
    reference distances come from ``eigvals`` at every grid point, not from
    a sweep, whose rows off the fundamental arc are images of the arc's."""
    worst = 0.0
    grid = theta_grid(16)
    for jv in (0.0, 1.0):
        model = chain_model(ChainParams(length=7, j=jv, v=jv), 4, 1)
        w = many_body_winding(model, 0.3j, n_grid=16)
        dists = np.array([np.abs(np.linalg.eigvals(model(theta)) - 0.3j).min()
                          for theta in grid])
        best = dists.min()
        at_theta = dists[list(grid).index(w.margin_theta)]
        worst = max(worst, abs(w.gap_margin - best) / best, abs(at_theta - best) / best)
    return worst < 1e-12, f"max relative deviation from the eigvals distance {worst:.2e}"


def _turned(model, factor):
    """``model`` with its first ``P_PLUS`` amplitude times ``factor``."""
    rows, cols, amps, slots = model._coo
    amps = amps.copy()
    amps[np.flatnonzero(slots == P_PLUS)[0]] *= factor
    model._coo = (rows, cols, amps, slots)
    return model


_MIRROR = (0.0, 1, False)
_CONJUGATIONS = ((np.pi, -1, True), (0.0, 1, True))


def _twist_relation_verdict(cases):
    """Compare each case's ``SectorModel.twist_relations`` with the wanted
    tuple, and the spectra at theta = 1.1 and theta0 - 1.1 of the models up
    to d = 200 under each wanted relation: s times each other, conjugated
    where U is antiunitary.  Returns (ok, detail)."""
    worst = 0.0
    for label, model, want in cases:
        if model.twist_relations != want:
            return False, f"{label} gave {model.twist_relations}, not {want}"
        if model.dim > 200:
            continue
        values = np.linalg.eigvals(model(1.1))
        for theta0, sign, antiunitary in want:
            worst = max(worst, eigenvalue_match(
                sign * (values.conj() if antiunitary else values),
                np.linalg.eigvals(model(theta0 - 1.1)))[0])
    return worst < 1e-12, (f"{len(cases)} models as expected; spectra at theta = 1.1 and "
                           f"theta0 - 1.1 differ by {worst:.2e} (tol 1e-12)")


def check_mirror_symmetry():
    """The mirror relation of ``SectorModel.twist_relations`` (site
    reflection times spin flip, unitary, s = +1, theta0 = 0) holds on the
    even-N chain sectors (4,+-1) at J = V in {0, 1}, and is refused where
    it does not: odd N, the dot at unequal spin potentials, and a (4,+1)
    model with one boundary amplitude scaled by 1.5, which keeps both
    conjugations.  Every case's whole relation tuple is compared."""
    p = ChainParams(length=7, j=1.0, v=1.0)
    cases = [(f"chain (4,{parity:+d}) at J = V = {jv}",
              chain_model(replace(p, j=jv, v=jv), 4, parity), (_MIRROR, *_CONJUGATIONS))
             for jv in (0.0, 1.0) for parity in (1, -1)]
    cases += [("chain (3,-1)", chain_model(p, 3, -1), _CONJUGATIONS),
              ("chain (5,+1)", chain_model(p, 5, 1), _CONJUGATIONS),
              ("dot (2,+1)", dot_model(REFERENCE_DOT_INT, 2, 1), _CONJUGATIONS[:1]),
              ("skewed chain (4,+1)", _turned(chain_model(p, 4, 1), 1.5), _CONJUGATIONS)]
    return _twist_relation_verdict(cases)


def check_conjugation_relations():
    """The conjugation relations D conj(H(theta)) D^-1 = s H(theta0 - theta)
    of ``SectorModel.twist_relations`` hold for s = -1 with theta0 = pi and
    for s = +1 with theta0 = 0 on the L = 7 chain sectors (3,-1), (4,+1)
    and (5,+1), for s = -1 with theta0 = 0 on an L = 6 chain, and for
    s = -1 alone on the dot; every relation is refused on a chain (4,+1)
    with one amplitude turned by e^{0.3i} or by i.  Every case's whole
    relation tuple is compared, so the even-N chains also carry the mirror."""
    p = ChainParams(length=7, j=1.0, v=1.0)
    cases = [("chain (3,-1)", chain_model(p, 3, -1), _CONJUGATIONS),
             ("chain (4,+1)", chain_model(p, 4, 1), (_MIRROR, *_CONJUGATIONS)),
             ("chain (5,+1)", chain_model(p, 5, 1), _CONJUGATIONS),
             ("L = 6 chain (4,+1)", chain_model(replace(p, length=6), 4, 1),
              (_MIRROR, (0.0, -1, True), (0.0, 1, True))),
             ("dot (2,-1)", dot_model(REFERENCE_DOT_INT, 2, -1), _CONJUGATIONS[:1])]
    cases += [(f"chain (4,+1) turned by {turn:.3f}", _turned(chain_model(p, 4, 1), turn), ())
              for turn in (np.exp(0.3j), 1j)]
    return _twist_relation_verdict(cases)


def check_determinant_phase_relations():
    """The principal phase phi of det[H(theta) - E] obeys the relations a
    winding over a fundamental arc rebuilds the loop from, at theta = 1.1 on the
    L = 7 chain (4,+1) and (5,+1), J = V = 1: phi(-theta) = phi(theta) under
    the mirror ((4,+1) only), phi(-theta) = -phi(theta) under s = +1 at
    E = -0.04 and phi(pi - theta) = d pi - phi(theta) under s = -1 at
    E = 0.3i, each within 1e-9.  The mirror's prediction applied to the
    s = -1 relation, phi(pi - theta) = phi(theta), is refused."""
    p, theta, tol = ChainParams(length=7, j=1.0, v=1.0), 1.1, 1e-9
    worst, refused = 0.0, np.inf
    for sector in ((4, 1), (5, 1)):
        model = chain_model(p, *sector)
        phase = {(at, e_ref): logdet_phase(model(at), e_ref)[1]
                 for at, e_ref in ((theta, -0.04), (-theta, -0.04), (theta, 0.3j),
                                   (np.pi - theta, 0.3j), (-theta, 0.3j))}
        pairs = [(phase[-theta, -0.04], -phase[theta, -0.04]),
                 (phase[np.pi - theta, 0.3j], model.dim * np.pi - phase[theta, 0.3j])]
        if sector[0] % 2 == 0:  # the mirror maps even-N sectors to themselves
            pairs.append((phase[-theta, 0.3j], phase[theta, 0.3j]))
        worst = max(worst, *(abs(wrap_phase(a - b)) for a, b in pairs))
        refused = min(refused, abs(wrap_phase(phase[np.pi - theta, 0.3j]
                                              - phase[theta, 0.3j])))
    return worst < tol < refused, (f"5 relations hold within {worst:.2e}; the mirror's "
                                   f"prediction for s = -1 misses by {refused:.2e} "
                                   f"(tol {tol:.0e})")


def check_flow_images():
    """Every row of a twist sweep, solved or filled as the image of a solved
    row under a verified relation, matches ``eigvals`` at its theta within
    1e-12: chain (3,-1) at L = 7, J = V = 1, n_grid 64 (17 of 65 rows
    solved) and chain (4,+1) there at n_grid 16 (5 of 17)."""
    p = ChainParams(length=7, j=1.0, v=1.0)
    worst, images = 0.0, 0
    for model, n_grid in ((chain_model(p, 3, -1), 64), (chain_model(p, 4, 1), 16)):
        flow = sweep_theta(model, n_grid)
        images += n_grid + 1 - len(twist_orbits(model, n_grid).solved)
        for theta, row in zip(flow.grid, flow.spectra):
            worst = max(worst, eigenvalue_match(row, np.linalg.eigvals(model(theta)))[0])
    return worst < 1e-12 and images == 60, (
        f"{images} image rows (want 60); every row within {worst:.2e} of eigvals (tol 1e-12)")


def check_eigenvalue_phases():
    """The principal phase of det[H(theta) - E] a winding reads from the
    eigenvalues at a base-grid point, wrap(sum_i arg(lambda_i - E)),
    matches the LU's (``logdet_phase``), which its refinement midpoints
    take, within 1e-9 at every point of the fundamental arc: chain (3,-1)
    at L = 7, J = V = 1, E = 0.3i, n_grid 64, and the dot sectors (2,+-1)."""
    e_ref, n_grid, worst, points = 0.3j, 64, 0.0, 0
    grid = theta_grid(n_grid)
    for model in (chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1),
                  dot_model(REFERENCE_DOT_INT, 2, 1), dot_model(REFERENCE_DOT_INT, 2, -1)):
        orbits = twist_orbits(model, n_grid, e_ref)
        for theta in grid[orbits.first:orbits.last + 1]:
            h = model(theta)
            phase = np.angle(np.linalg.eigvals(h) - e_ref).sum()
            worst = max(worst, abs(wrap_phase(phase - logdet_phase(h, e_ref)[1])))
            points += 1
    return worst <= 1e-9, (f"{points} arc points; eigenvalue and LU phases within "
                           f"{worst:.2e} (tol 1e-9)")


CHECKS = [
    ("fermionic anticommutation (8 modes, exhaustive)", check_anticommutation),
    ("sector block structure (dot, chain L=3)", check_block_structure),
    ("boundary-link twist vs the J = V = 0 closed form", check_boundary_twist),
    ("theta-periodicity of spectral flows", check_theta_periodicity),
    ("winding grid-doubling stability", check_winding_grid_stability),
    ("determinant / eigenvalue-product consistency", check_det_consistency),
    ("occupation sum rules", check_occupation_sum_rules),
    ("dot closed-form spectra", check_dot_closed_forms),
    ("chain first-order splitting scaling", check_chain_splitting_scaling),
    ("gap margin is the nearest-eigenvalue distance", check_gap_margin_distance),
    ("mirror symmetry of even-N chain sectors", check_mirror_symmetry),
    ("conjugation relations of twisted sectors", check_conjugation_relations),
    ("determinant phase relations", check_determinant_phase_relations),
    ("flow images match direct eigensolves", check_flow_images),
    ("eigenvalue phases match LU phases", check_eigenvalue_phases),
]


def run_all(verbose: bool = True):
    results = []
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crash of the suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, ok, detail))
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return results
