from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from pointgap.fock import DOWN, ORBITAL_B, UP
from pointgap.models import (
    ChainParams,
    DotParams,
    chain_model,
    chain_sector_basis,
    one_body_model,
)
from pointgap.observables import (
    boundary_sensitivity,
    directed_hausdorff_distance,
    occupation_profiles,
    product_state_profiles,
)
from pointgap.spectral import eigendecompose

CHAIN = ChainParams(length=7, t=1.0)


def _occupations(model, theta):
    return occupation_profiles(eigendecompose(model.matrix(theta)), model.basis)


def _rows(w):
    """The rows of a (states x sites) array, rounded, as a sorted list."""
    return sorted(tuple(row) for row in np.round(w, 9).tolist())


def test_profiles_sum_rule_and_bounds():
    occ = _occupations(chain_model(replace(CHAIN, j=1.0, v=1.0), 3, -1), 0.8)
    assert occ.weights.shape == (28, 18)
    assert occ.weights.min() > -1e-9 and occ.weights.max() < 1 + 1e-9
    a_total = occ.spin_weights(UP).sum(axis=1) + occ.spin_weights(DOWN).sum(axis=1)
    assert np.abs(a_total - 1.0).max() < 1e-9


def test_periodic_profiles_uniform():
    # the periodic ring is the twisted one at theta = 0
    occ = _occupations(chain_model(CHAIN, 3, -1), 0.0)
    for spin in (UP, DOWN):
        w = occ.spin_weights(spin)
        assert w.shape == (28, 7)
        assert np.abs(w - w.sum(axis=1, keepdims=True) / 7).max() < 1e-9


def test_spin_mirror_symmetry():
    """Up-spin profiles match down-spin profiles reflected through the chain."""
    occ = _occupations(chain_model(replace(CHAIN, j=0.8, v=0.5, bc="open"), 4, 1), 0.0)
    assert _rows(occ.spin_weights(UP)) == _rows(occ.spin_weights(DOWN)[:, ::-1])


def test_degeneracy_clusters_labelled():
    occ = _occupations(chain_model(CHAIN, 3, -1), 1.0)
    for cluster in np.unique(occ.clusters):
        vals = occ.values[occ.clusters == cluster]
        assert np.abs(np.diff(sorted(vals, key=lambda z: (z.real, z.imag)))).max(
            initial=0.0) < 1e-7


def test_obc_profiles_flagged_ambiguous():
    occ = _occupations(chain_model(replace(CHAIN, bc="open"), 3, -1), 0.0)
    assert occ.ambiguous.all()


def test_product_profiles_two_sites():
    occ = product_state_profiles(ChainParams(length=2, t=1.0, bc="open"), (3, -1))
    up, dn = occ.spin_weights(UP), occ.spin_weights(DOWN)
    has_up = up.sum(axis=1) > 1e-9
    # single Jordan block: all weight on the last site
    assert np.abs(up[has_up, 1] - 1.0).max() < 1e-12
    assert np.abs(dn[~has_up, 0] - 1.0).max() < 1e-12


def test_product_profiles_skin_localization():
    occ = product_state_profiles(replace(CHAIN, bc="open"), (3, -1))
    assert len(occ.values) == 28
    up, dn = occ.spin_weights(UP), occ.spin_weights(DOWN)
    has_up = up.sum(axis=1) > 1e-9
    assert (np.argmax(up[has_up], axis=1) == 6).all()
    assert (np.argmax(dn[~has_up], axis=1) == 0).all()
    assert np.abs(occ.values).max() < 1e-10   # nilpotent blocks
    # frozen edge b fermions are singly occupied
    b_modes = [m for m, (_, orbital, _) in enumerate(occ.layout.labels) if orbital == ORBITAL_B]
    assert (occ.weights[:, b_modes].sum(axis=1) == 2.0).all()


def test_product_profiles_mirror():
    occ = product_state_profiles(replace(CHAIN, bc="open"), (3, -1))
    up, dn = occ.spin_weights(UP), occ.spin_weights(DOWN)
    assert _rows(up[up.sum(axis=1) > 1e-9]) == _rows(dn[dn.sum(axis=1) > 1e-9, ::-1])


def _nested_loop_product_profiles(p, sector, eigendecompose=eigendecompose):
    """The product-state construction one state at a time: per-site dicts
    summed orbital by orbital in nested loops over the up count, the edge b
    spins and the up and down subsets; as (values, weights, ambiguous) with
    weights in layout mode order."""
    n, parity = sector
    L = p.length
    layout = chain_sector_basis(p, n, parity).layout
    one_body = one_body_model(p)
    up = one_body.basis.sz > 0
    sols, rows = {}, {}
    for spin, keep in ((UP, up), (DOWN, ~up)):
        block = one_body.restrict(keep)
        sols[spin] = eigendecompose(block(0.0))
        rows[spin] = [layout.labels[int(s).bit_length() - 1] for s in block.basis.states]
    block_defective = {s: bool(sols[s].defective.any()) for s in (UP, DOWN)}
    values, weights, ambiguous = [], [], []
    n_a = n - 2
    for n_up in range(n_a + 1):
        n_dn = n_a - n_up
        for b0 in (UP, DOWN):
            for bl in (UP, DOWN):
                b_ups = (b0 == UP) + (bl == UP)
                if (-1) ** (n_up + b_ups) != parity:
                    continue
                for up_set in combinations(range(L), n_up):
                    for dn_set in combinations(range(L), n_dn):
                        occupation = {lbl: 0.0 for lbl in layout.labels}
                        energy = 0.0 + 0.0j
                        for spin, chosen in ((UP, up_set), (DOWN, dn_set)):
                            sol = sols[spin]
                            for m in chosen:
                                energy += sol.values[m]
                                w = np.abs(sol.right_vectors[:, m]) ** 2
                                for label, wj in zip(rows[spin], w):
                                    occupation[label] += float(wj)
                        occupation[(0, "b", b0)] = 1.0
                        occupation[(L - 1, "b", bl)] = 1.0
                        values.append(complex(energy))
                        weights.append([occupation[lbl] for lbl in layout.labels])
                        ambiguous.append((n_up > 1 and block_defective[UP])
                                         or (n_dn > 1 and block_defective[DOWN]))
    return (np.array(values, dtype=complex),
            np.array(weights, dtype=float).reshape(len(values), layout.n_modes),
            np.array(ambiguous, dtype=bool))


def _open_chain_sectors(length):
    return [(length, (n, parity)) for n in range(2, 2 * length + 3) for parity in (1, -1)]


def _generic_eigendecompose(matrix):
    """The eigensolution of ``matrix`` plus a fixed dense complex matrix:
    distinct eigenvalues and vectors, where the open chain's one-body blocks
    are single Jordan blocks whose vectors all coincide."""
    rng = np.random.default_rng(len(matrix))
    noise = rng.standard_normal((2,) + matrix.shape)
    return eigendecompose(matrix + 0.3 * (noise[0] + 1j * noise[1]))


@pytest.mark.parametrize(
    "length,sector",
    [case for length in (2, 3, 5) for case in _open_chain_sectors(length)]
    + [(7, (n, parity)) for n in (4, 5) for parity in (1, -1)] + [(7, (9, -1))],
    ids=lambda case: f"L{case}" if isinstance(case, int) else "({},{:+d})".format(*case))
def test_product_profiles_match_the_nested_loop_construction(length, sector, monkeypatch):
    """The product states are the nested-loop construction's bit for bit:
    same order, and energies and weights summed in the same order.  The
    chain's own one-body vectors coincide, so the two are also compared on
    generic one-body solutions, where any change of order shows."""
    from pointgap import observables

    p = ChainParams(length=length, t=1.0, bc="open")
    for solver in (eigendecompose, _generic_eigendecompose):
        monkeypatch.setattr(observables, "eigendecompose", solver)
        occ = product_state_profiles(p, sector)
        values, weights, ambiguous = _nested_loop_product_profiles(p, sector, solver)
        assert occ.values.dtype == values.dtype and occ.values.tobytes() == values.tobytes()
        assert occ.weights.shape == weights.shape
        assert occ.weights.tobytes() == weights.tobytes()
        assert occ.ambiguous.tolist() == ambiguous.tolist()
        assert (occ.clusters == -1).all()


def test_product_profiles_reject_interactions_and_rings():
    with pytest.raises(ValueError):
        product_state_profiles(replace(CHAIN, bc="open", j=0.5), (3, -1))
    with pytest.raises(ValueError):
        product_state_profiles(CHAIN, (3, -1))  # twisted ring


def _hausdorff(a, b):
    """Symmetric Hausdorff distance, from the directed one both ways."""
    return max(directed_hausdorff_distance(a, b), directed_hausdorff_distance(b, a))


def test_hausdorff_distances():
    a = np.array([0.0 + 0.0j])
    circle = np.exp(1j * np.linspace(0, 2 * np.pi, 400))
    assert abs(directed_hausdorff_distance(a, circle) - 1.0) < 1e-3
    assert abs(_hausdorff(a, circle) - 1.0) < 1e-3
    # directed version is asymmetric
    b = np.array([0.0 + 0.0j, 5.0 + 0.0j])
    assert directed_hausdorff_distance(a, b) == 0.0
    assert directed_hausdorff_distance(b, a) == 5.0


def test_boundary_sensitivity_noninteracting():
    bs = boundary_sensitivity(CHAIN, (3, -1), n_grid=64)
    assert abs(bs.hausdorff_obc_pbc - CHAIN.t) < 1e-6
    assert np.abs(bs.obc_occupations.values).max() < 1e-10
    assert bs.edge_weight > 0.99
    assert bs.max_site_occupation > 0.99


def test_boundary_sensitivity_interacting_drop():
    bs0 = boundary_sensitivity(CHAIN, (3, -1), n_grid=64)
    bs1 = boundary_sensitivity(replace(CHAIN, j=1.0, v=1.0), (3, -1), n_grid=64)
    assert bs1.hausdorff_obc_pbc < 0.2 * bs0.hausdorff_obc_pbc
    assert bs1.max_site_occupation < bs0.max_site_occupation


def test_boundary_sensitivity_rejects_dot():
    with pytest.raises(TypeError, match="chain models only"):
        boundary_sensitivity(DotParams(), (2, 1), n_grid=16)
