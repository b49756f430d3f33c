"""Right-eigenstate occupation profiles and skin-effect diagnostics.

Expectation values use unit-normalized right eigenstates, so for a Fock-basis
vector ``v`` the occupation of mode ``m`` is the plain weighted bit count
``sum_s bit(s, m) |v_s|^2`` (number operators are diagonal in this basis).
Profiles inherit the engine's defectiveness flag: in a maximally defective
open-boundary block the individual vectors are convention artifacts of the
solver, and the product-state construction below is the documented
alternative built from one-body data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .fock import DOWN, ORBITAL_A, UP, SectorBasis
from .models import (
    ChainParams,
    SectorModel,
    chain_model,
    chain_sector_basis,
    one_body_model,
)
from .spectral import EigenSolution, SpectralFlow, eigendecompose, sweep_theta


@dataclass
class OccupationProfile:
    """Per-mode occupation expectations of one right eigenstate."""

    eigenstate_index: int
    eigenvalue: complex
    per_site: dict
    degeneracy_cluster: int
    jordan_ambiguous: bool = False

    def spin_weights(self, length: int, spin: str) -> np.ndarray:
        return np.array([self.per_site[(j, ORBITAL_A, spin)] for j in range(length)])


def occupation_profiles(matrix, basis: SectorBasis, solution: EigenSolution = None):
    """One profile per right eigenstate of a sector matrix.

    Profiles of defective clusters are marked ``jordan_ambiguous``; their
    individual vectors (hence values) are solver-convention dependent.
    """
    sol = solution if solution is not None else eigendecompose(matrix)
    layout = basis.layout
    probs = np.abs(sol.right_vectors) ** 2
    # weights[k, m] = sum_s bit(states[s], m) |v_k[s]|^2
    bits = (basis.states[:, None] >> np.arange(layout.n_modes, dtype=np.uint64)) & np.uint64(1)
    weights = probs.T @ bits.astype(np.float64)
    profiles = []
    for k in range(sol.dim):
        per_site = {lbl: float(weights[k, m]) for m, lbl in enumerate(layout.labels)}
        profiles.append(OccupationProfile(
            eigenstate_index=k,
            eigenvalue=complex(sol.values[k]),
            per_site=per_site,
            degeneracy_cluster=int(sol.clusters[k]),
            jordan_ambiguous=bool(sol.defective[k]),
        ))
    return profiles


def product_state_profiles(p: ChainParams, sector):
    """Noninteracting occupation profiles from one-body right eigenvectors.

    Valid only for the open-boundary chain at J = V = 0, where every
    many-body eigenstate is a product of one-body states per spin block and
    frozen edge b fermions; occupations are summed mode-wise over the chosen
    unit-norm one-body vectors.  When a one-body block is defective the
    chosen vectors are not independent and multi-fermion profiles are marked
    ``jordan_ambiguous`` (their values are a convention, not an observable).
    """
    if p.bc != "open":
        raise ValueError("product-state construction requires the open chain")
    if p.j != 0.0 or p.v != 0.0:
        raise ValueError("product-state construction is noninteracting only (J=V=0)")
    n, parity = sector
    basis = chain_sector_basis(p, n, parity)  # validates sector/constraints
    L = p.length
    layout = basis.layout
    # the one-body blocks per spin, and the (site, a, spin) label of each row
    one_body = one_body_model(p)
    up = one_body.basis.sz > 0
    sols, rows = {}, {}
    for spin, keep in ((UP, up), (DOWN, ~up)):
        block = one_body.restrict(keep)
        sols[spin] = eigendecompose(block(0.0))
        rows[spin] = [layout.labels[int(s).bit_length() - 1] for s in block.basis.states]
    block_defective = {s: bool(sols[s].defective.any()) for s in (UP, DOWN)}

    n_a = n - 2
    profiles = []
    k = 0
    for n_up in range(n_a + 1):
        n_dn = n_a - n_up
        for b0 in (UP, DOWN):
            for bl in (UP, DOWN):
                b_ups = (b0 == UP) + (bl == UP)
                if (-1) ** (n_up + b_ups) != parity:
                    continue
                for up_set in combinations(range(L), n_up):
                    for dn_set in combinations(range(L), n_dn):
                        per_site = {lbl: 0.0 for lbl in layout.labels}
                        energy = 0.0 + 0.0j
                        for spin, chosen in ((UP, up_set), (DOWN, dn_set)):
                            sol = sols[spin]
                            for m in chosen:
                                energy += sol.values[m]
                                w = np.abs(sol.right_vectors[:, m]) ** 2
                                for label, wj in zip(rows[spin], w):
                                    per_site[label] += float(wj)
                        per_site[(0, "b", b0)] = 1.0
                        per_site[(L - 1, "b", bl)] = 1.0
                        ambiguous = ((n_up > 1 and block_defective[UP])
                                     or (n_dn > 1 and block_defective[DOWN]))
                        profiles.append(OccupationProfile(
                            eigenstate_index=k,
                            eigenvalue=complex(energy),
                            per_site=per_site,
                            degeneracy_cluster=-1,
                            jordan_ambiguous=ambiguous,
                        ))
                        k += 1
    return profiles


@dataclass
class BoundarySensitivity:
    """How strongly the sector spectrum and eigenstates feel the boundary.

    ``hausdorff_obc_pbc`` is the directed Hausdorff distance from the
    open-boundary spectrum to the twisted-flow union: how far any boundary
    eigenvalue sits from the flow.  The reverse direction is not informative
    here - the theta-swept union always extends beyond one fixed-boundary
    snapshot - so it would swamp the sensitivity signal being measured.
    ``flow`` is the twisted flow and ``twisted_model`` the sector model
    behind it, for a winding of the same matrices.
    """

    hausdorff_obc_pbc: float
    edge_weight: float
    max_site_occupation: float
    obc_spectrum: np.ndarray
    flow: SpectralFlow
    obc_profiles: list
    twisted_model: SectorModel


def directed_hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """max over points of ``a`` of the distance to the nearest point of ``b``."""
    from scipy.spatial import cKDTree

    pa = np.column_stack([a.real, a.imag])
    pb = np.column_stack([b.real, b.imag])
    return float(cKDTree(pb).query(pa)[0].max())


def boundary_sensitivity(p: ChainParams, sector, n_grid: int = 64) -> BoundarySensitivity:
    """Distance from the open-boundary spectrum to the twisted flow, plus
    edge-localization measures of the open-boundary eigenstates."""
    if not isinstance(p, ChainParams):
        raise TypeError("boundary sensitivity is defined for chain models only")
    n, parity = sector
    obc = replace(p, bc="open")
    twisted = replace(p, bc="twisted")

    obc_model = chain_model(obc, n, parity)
    matrix = obc_model.matrix(0.0)
    sol = eigendecompose(matrix)
    profiles = occupation_profiles(matrix, obc_model.basis, solution=sol)

    twisted_model = chain_model(twisted, n, parity)
    flow = sweep_theta(twisted_model, n_grid)

    L = p.length
    edge = 0.0
    peak = 0.0
    for prof in profiles:
        for spin in (UP, DOWN):
            w = prof.spin_weights(L, spin)
            edge = max(edge, float(w[0] + w[-1]))
            peak = max(peak, float(w.max()))
    return BoundarySensitivity(
        hausdorff_obc_pbc=directed_hausdorff_distance(sol.values, flow.spectra.ravel()),
        edge_weight=edge,
        max_site_occupation=peak,
        obc_spectrum=sol.values,
        flow=flow,
        obc_profiles=profiles,
        twisted_model=twisted_model,
    )
