from dataclasses import replace

import numpy as np
import pytest

from pointgap.fock import DOWN, UP
from pointgap.models import ChainParams, DotParams, chain_model
from pointgap.observables import (
    boundary_sensitivity,
    directed_hausdorff_distance,
    occupation_profiles,
    product_state_profiles,
)

CHAIN = ChainParams(length=7, t=1.0)


def test_profiles_sum_rule_and_bounds():
    model = chain_model(replace(CHAIN, j=1.0, v=1.0), 3, -1)
    profiles = occupation_profiles(model.matrix(0.8), model.basis)
    assert len(profiles) == 28
    for prof in profiles:
        vals = np.array(list(prof.per_site.values()))
        assert vals.min() > -1e-9 and vals.max() < 1 + 1e-9
        a_total = prof.spin_weights(7, UP).sum() + prof.spin_weights(7, DOWN).sum()
        assert abs(a_total - 1.0) < 1e-9


def test_periodic_profiles_uniform():
    # the periodic ring is the twisted one at theta = 0
    model = chain_model(CHAIN, 3, -1)
    profiles = occupation_profiles(model.matrix(0.0), model.basis)
    for prof in profiles:
        for spin in (UP, DOWN):
            w = prof.spin_weights(7, spin)
            assert np.abs(w - w.sum() / 7).max() < 1e-9


def test_spin_mirror_symmetry():
    """Up-spin profiles match down-spin profiles reflected through the chain."""
    model = chain_model(replace(CHAIN, j=0.8, v=0.5, bc="open"), 4, 1)
    profiles = occupation_profiles(model.matrix(0.0), model.basis)
    ups = sorted(tuple(np.round(p.spin_weights(7, UP), 9)) for p in profiles)
    dns = sorted(tuple(np.round(p.spin_weights(7, DOWN)[::-1], 9)) for p in profiles)
    assert ups == dns


def test_degeneracy_clusters_labelled():
    model = chain_model(CHAIN, 3, -1)
    profiles = occupation_profiles(model.matrix(1.0), model.basis)
    clusters = {}
    for prof in profiles:
        clusters.setdefault(prof.degeneracy_cluster, []).append(prof.eigenvalue)
    for vals in clusters.values():
        assert np.abs(np.diff(sorted(vals, key=lambda z: (z.real, z.imag)))).max(
            initial=0.0) < 1e-7


def test_obc_profiles_flagged_ambiguous():
    model = chain_model(replace(CHAIN, bc="open"), 3, -1)
    profiles = occupation_profiles(model.matrix(0.0), model.basis)
    assert all(p.jordan_ambiguous for p in profiles)


def test_product_profiles_two_sites():
    p = ChainParams(length=2, t=1.0, bc="open")
    profiles = product_state_profiles(p, (3, -1))
    for prof in profiles:
        up = prof.spin_weights(2, UP)
        dn = prof.spin_weights(2, DOWN)
        if up.sum() > 1e-9:   # single Jordan block: all weight on the last site
            assert abs(up[1] - 1.0) < 1e-12
        else:
            assert abs(dn[0] - 1.0) < 1e-12


def test_product_profiles_skin_localization():
    p = replace(CHAIN, bc="open")
    profiles = product_state_profiles(p, (3, -1))
    assert len(profiles) == 28
    for prof in profiles:
        up = prof.spin_weights(7, UP)
        dn = prof.spin_weights(7, DOWN)
        if up.sum() > 1e-9:
            assert np.argmax(up) == 6
        else:
            assert np.argmax(dn) == 0
        assert abs(prof.eigenvalue) < 1e-10   # nilpotent blocks
        # frozen edge b fermions are singly occupied
        b_tot = sum(v for (j, orb, s), v in prof.per_site.items() if orb == "b")
        assert b_tot == 2.0


def test_product_profiles_mirror():
    p = replace(CHAIN, bc="open")
    profiles = product_state_profiles(p, (3, -1))
    ups = sorted(tuple(np.round(q.spin_weights(7, UP), 9)) for q in profiles
                 if q.spin_weights(7, UP).sum() > 1e-9)
    dns = sorted(tuple(np.round(q.spin_weights(7, DOWN)[::-1], 9)) for q in profiles
                 if q.spin_weights(7, DOWN).sum() > 1e-9)
    assert ups == dns


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
    assert np.abs(bs.obc_spectrum).max() < 1e-10
    assert bs.edge_weight > 0.99
    assert bs.max_site_occupation > 0.99


def test_boundary_sensitivity_interacting_drop():
    bs0 = boundary_sensitivity(CHAIN, (3, -1), n_grid=64)
    bs1 = boundary_sensitivity(replace(CHAIN, j=1.0, v=1.0), (3, -1), n_grid=64)
    assert bs1.hausdorff_obc_pbc < 0.2 * bs0.hausdorff_obc_pbc
    assert bs1.max_site_occupation < bs0.max_site_occupation


def test_boundary_sensitivity_rejects_dot():
    with pytest.raises(TypeError):
        boundary_sensitivity(DotParams(), (2, 1))
