"""Right-eigenstate occupations and skin-effect diagnostics.

Expectation values use unit-normalized right eigenstates, so for a Fock-basis
vector ``v`` the occupation of mode ``m`` is the plain weighted bit count
``sum_s bit(s, m) |v_s|^2`` (number operators are diagonal in this basis).
A set of eigenstates is one ``Occupations`` record, whose ``ambiguous``
flag is the engine's defectiveness flag: in a maximally defective
open-boundary block the individual vectors are convention artifacts of the
solver, and the product-state construction below is the documented
alternative built from one-body data.  No output file carries the flag.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from math import comb

import numpy as np

from .fock import DOWN, ORBITAL_A, ORBITAL_B, UP, ModeLayout, SectorBasis
from .models import (
    ChainParams,
    SectorModel,
    chain_model,
    chain_sector_basis,
    one_body_model,
)
from .spectral import EigenSolution, SpectralFlow, eigendecompose, sweep_theta


@dataclass
class Occupations:
    """Right-eigenstate occupations: row k of the (states x modes)
    ``weights`` is state k's occupation of each mode of ``layout``, with the
    states' energies ``values``, degeneracy ``clusters`` (-1 where none was
    computed) and ``ambiguous`` flags (weights that are a convention).
    """

    layout: ModeLayout
    values: np.ndarray
    weights: np.ndarray
    clusters: np.ndarray
    ambiguous: np.ndarray

    def spin_weights(self, spin: str) -> np.ndarray:
        """(states x sites): each state's a-orbital occupation of ``spin``,
        site by site."""
        labels = self.layout.labels
        sites = sorted({site for site, orbital, _ in labels if orbital == ORBITAL_A})
        return self.weights[:, [self.layout.mode(j, ORBITAL_A, spin) for j in sites]]


def occupation_profiles(solution: EigenSolution, basis: SectorBasis) -> Occupations:
    """The occupations of every right eigenvector of ``solution``, the
    eigensolution of a sector matrix on ``basis``.

    States of defective clusters are marked ``ambiguous``; their individual
    vectors (hence weights) are solver-convention dependent.
    """
    layout = basis.layout
    # weights[k, m] = sum_s bit(states[s], m) |v_k[s]|^2
    bits = (basis.states[:, None] >> np.arange(layout.n_modes, dtype=np.uint64)) & np.uint64(1)
    weights = (np.abs(solution.right_vectors) ** 2).T @ bits.astype(np.float64)
    return Occupations(layout, solution.values, weights, solution.clusters,
                       solution.defective)


def product_state_profiles(p: ChainParams, sector) -> Occupations:
    """Noninteracting occupations from one-body right eigenvectors.

    Valid only for the open-boundary chain at J = V = 0, where every
    many-body eigenstate is a product of one-body states per spin block and
    frozen edge b fermions; occupations are summed mode-wise over the chosen
    unit-norm one-body vectors.  States run over the up count, the two edge
    b spins, then the up and down orbital subsets in lexicographic order.
    When a one-body block is defective the chosen vectors are not
    independent and multi-fermion states are marked ``ambiguous`` (their
    weights are a convention, not an observable).
    """
    if p.bc != "open":
        raise ValueError("product-state construction requires the open chain")
    if p.j != 0.0 or p.v != 0.0:
        raise ValueError("product-state construction is noninteracting only (J=V=0)")
    n, parity = sector
    layout = chain_sector_basis(p, n, parity).layout  # validates sector/constraints
    L = p.length
    # the one-body blocks per spin, and the mode of each of their rows
    sols, modes = {}, {}
    for spin, block in zip((UP, DOWN), one_body_model(p).spin_blocks()):
        sols[spin] = eigendecompose(block(0.0))
        modes[spin] = [int(s).bit_length() - 1 for s in block.basis.states]
    block_defective = {s: bool(sols[s].defective.any()) for s in (UP, DOWN)}

    n_a = n - 2
    # subsets[k]: every k-subset of the L orbitals as a row, lexicographic
    subsets = [np.array(list(combinations(range(L), k)), dtype=np.intp).reshape(comb(L, k), k)
               for k in range(n_a + 1)]
    blocks = []  # (energies, weights, ambiguous) per (n_up, b0, bl)
    for n_up in range(n_a + 1):
        n_dn = n_a - n_up
        # every (up set, down set) pair, up sets outermost; energies and
        # weights are added orbital by orbital from zero, up spins first
        up_sets, dn_sets = subsets[n_up], subsets[n_dn]
        chosen = {UP: np.repeat(up_sets, len(dn_sets), axis=0),
                  DOWN: np.tile(dn_sets, (len(up_sets), 1))}
        energy = np.zeros(len(up_sets) * len(dn_sets), dtype=complex)
        a_weights = np.zeros((len(energy), layout.n_modes))
        for spin in (UP, DOWN):
            probs = np.abs(sols[spin].right_vectors.T) ** 2  # row m: orbital m's weights
            for orbital in chosen[spin].T:
                energy += sols[spin].values[orbital]
                a_weights[:, modes[spin]] += probs[orbital]
        flagged = (n_up > 1 and block_defective[UP]) or (n_dn > 1 and block_defective[DOWN])
        for b0, bl in product((UP, DOWN), repeat=2):
            if (-1) ** (n_up + (b0 == UP) + (bl == UP)) == parity:
                w = a_weights.copy()
                w[:, [layout.mode(0, ORBITAL_B, b0), layout.mode(L - 1, ORBITAL_B, bl)]] = 1.0
                blocks.append((energy, w, np.full(len(energy), flagged)))
    values, weights, ambiguous = (np.concatenate(part) for part in zip(*blocks))
    return Occupations(layout, values, weights, np.full(len(values), -1), ambiguous)


@dataclass
class BoundarySensitivity:
    """How strongly the sector spectrum and eigenstates feel the boundary.

    ``hausdorff_obc_pbc`` is the directed Hausdorff distance from the
    open-boundary spectrum to the twisted-flow union: how far any boundary
    eigenvalue sits from the flow.  The reverse direction is not informative
    here - the theta-swept union always extends beyond one fixed-boundary
    snapshot - so it would swamp the sensitivity signal being measured.
    ``flow`` is the twisted flow and ``twisted_model`` the sector model
    behind it, for a winding of the same matrices.  ``obc_occupations``
    holds the open-boundary spectrum (its ``values``) and the eigenstates
    the two edge measures are read from.
    """

    hausdorff_obc_pbc: float
    edge_weight: float
    max_site_occupation: float
    flow: SpectralFlow
    obc_occupations: Occupations
    twisted_model: SectorModel


def directed_hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of ``a`` of the distance to the nearest point of ``b``."""
    from scipy.spatial import cKDTree

    pa = np.column_stack([a.real, a.imag])
    pb = np.column_stack([b.real, b.imag])
    return float(cKDTree(pb).query(pa)[0].max())


def boundary_sensitivity(p: ChainParams, sector, n_grid: int) -> BoundarySensitivity:
    """Distance from the open-boundary spectrum to the twisted flow (swept
    on ``n_grid`` twist intervals), plus edge-localization measures of the
    open-boundary eigenstates: the largest weight a state of either spin
    puts on the two end sites, and the largest single-site weight."""
    if not isinstance(p, ChainParams):
        raise TypeError("boundary sensitivity is defined for chain models only")
    n, parity = sector
    obc = replace(p, bc="open")
    twisted = replace(p, bc="twisted")

    obc_model = chain_model(obc, n, parity)
    sol = eigendecompose(obc_model.matrix(0.0))
    occupations = occupation_profiles(sol, obc_model.basis)

    twisted_model = chain_model(twisted, n, parity)
    flow = sweep_theta(twisted_model, n_grid)

    edge = 0.0
    peak = 0.0
    for spin in (UP, DOWN):
        w = occupations.spin_weights(spin)
        edge = max(edge, float((w[:, 0] + w[:, -1]).max()))
        peak = max(peak, float(w.max()))
    return BoundarySensitivity(
        hausdorff_obc_pbc=directed_hausdorff_distance(sol.values, flow.spectra.ravel()),
        edge_weight=edge,
        max_site_occupation=peak,
        flow=flow,
        obc_occupations=occupations,
        twisted_model=twisted_model,
    )
