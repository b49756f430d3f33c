from dataclasses import replace

import numpy as np
import pytest

from pointgap.fock import dot_layout
from pointgap.models import (
    P_ONE,
    P_PLUS,
    ChainParams,
    DotParams,
    SectorModel,
    build_chain_many_body,
    build_chain_one_body,
    build_dot_many_body,
    build_dot_one_body,
    chain_model,
    chain_sector_basis,
    dot_model,
    dot_sector_basis,
    phase_table,
)
from pointgap.oracles import eigenvalue_match

FIG_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                    eps_b_dn=-0.25)


def test_dot_one_body_reference_values():
    h = build_dot_one_body(FIG_DOT, 0.0)
    np.testing.assert_allclose(
        np.diag(h), [1 + 0.2j, 1 - 0.1j, 0.35j, -0.25j], atol=1e-15)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_dot_one_body_periodic_and_flat():
    np.testing.assert_allclose(build_dot_one_body(FIG_DOT, 2 * np.pi),
                               build_dot_one_body(FIG_DOT, 0.0), atol=1e-15)
    flat = replace(FIG_DOT, lam=0.0)
    for theta in (0.0, 1.1, 4.4):
        np.testing.assert_allclose(build_dot_one_body(flat, theta),
                                   build_dot_one_body(flat, 0.0), atol=1e-15)


def test_dot_two_level_sector_matrix():
    p = replace(FIG_DOT, v=0.9)
    theta = 0.83
    m = build_dot_many_body(p, theta, (2, 1)).entries
    ref = np.array([
        [np.exp(1j * theta) + 1j * (0.2 + 0.35), 0.45j],
        [0.45j, np.exp(-1j * theta) + 1j * (-0.1 - 0.25)],
    ])
    np.testing.assert_allclose(m, ref, atol=1e-15)


def test_dot_four_level_sector_structure():
    p = replace(FIG_DOT, j=0.7, v=0.9)
    m = build_dot_many_body(p, 0.4, (2, -1)).entries
    # ascending-bitset basis: (a_up a_dn, a_dn b_up, a_up b_dn, b_up b_dn)
    diag = [2 * np.cos(0.4) + 1j * (0.2 - 0.1),
            np.exp(-0.4j) + 1j * (-0.1 + 0.35),
            np.exp(0.4j) + 1j * (0.2 - 0.25),
            1j * (0.35 - 0.25)]
    np.testing.assert_allclose(np.diag(m), diag, atol=1e-15)
    off = m - np.diag(np.diag(m))
    assert off[1, 2] == off[2, 1] == 1j * 0.7 / 2
    off[1, 2] = off[2, 1] = 0
    assert np.abs(off).max() == 0


def test_dot_interaction_is_i_times_hermitian():
    p = DotParams(lam=0.0, j=0.8, v=1.3)
    for sector in ((2, 1), (2, -1), (3, 1), (3, -1)):
        m = build_dot_many_body(p, 0.0, sector).entries
        herm = m / 1j
        np.testing.assert_allclose(herm, herm.conj().T, atol=1e-15)


def test_noninteracting_dot_sums_of_one_body():
    p = FIG_DOT
    theta = 1.9
    h = np.diag(build_dot_one_body(p, theta))
    for sector in ((2, 1), (2, -1), (1, -1), (3, 1)):
        basis = dot_sector_basis(*sector)
        expected = [sum(h[m] for m in range(4) if (int(s) >> m) & 1)
                    for s in basis.states]
        ed = np.linalg.eigvals(build_dot_many_body(p, theta, basis).entries)
        assert eigenvalue_match(ed, expected)[0] < 1e-10


def test_chain_one_body_circulant_spectrum():
    p = ChainParams(length=7, t=1.0, bc="periodic")
    h = build_chain_one_body(p, 0.0)
    up = h[np.ix_(range(0, 14, 2), range(0, 14, 2))]
    expected = np.exp(2j * np.pi * np.arange(7) / 7)
    assert eigenvalue_match(np.linalg.eigvals(up), expected)[0] < 1e-12


def test_chain_open_blocks_are_nilpotent():
    p = ChainParams(length=6, t=1.3, bc="open")
    h = build_chain_one_body(p, 0.0)
    assert np.abs(np.linalg.eigvals(h)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(h, 6)).max() < 1e-12


def test_chain_gauge_spectra_agree():
    rng = np.random.default_rng(1)
    for theta in rng.uniform(0, 2 * np.pi, 3):
        pb = ChainParams(length=5, t=1.0, j=0.3, v=0.8, gauge="boundary")
        pd = replace(pb, gauge="distributed")
        e1 = np.linalg.eigvals(build_chain_one_body(pb, theta))
        e2 = np.linalg.eigvals(build_chain_one_body(pd, theta))
        assert eigenvalue_match(e1, e2)[0] < 1e-12
        m1 = build_chain_many_body(pb, theta, (3, -1)).entries
        m2 = build_chain_many_body(pd, theta, (3, -1)).entries
        assert eigenvalue_match(np.linalg.eigvals(m1),
                                np.linalg.eigvals(m2))[0] < 1e-10


def test_boundary_gauge_entries_periodic():
    model = chain_model(ChainParams(length=5, j=1.0, v=1.0), 3, -1)
    np.testing.assert_allclose(model.matrix(2 * np.pi).entries,
                               model.matrix(0.0).entries, atol=1e-14)


def test_periodic_equals_twisted_at_zero():
    p_per = ChainParams(length=5, t=1.0, bc="periodic")
    p_tw = ChainParams(length=5, t=1.0, bc="twisted")
    for theta in (0.0, 1.0, 3.3):
        np.testing.assert_allclose(
            build_chain_many_body(p_per, theta, (3, -1)).entries,
            build_chain_many_body(p_tw, 0.0, (3, -1)).entries, atol=1e-15)


def test_chain_open_many_body_nilpotent():
    p = ChainParams(length=7, t=1.0, bc="open")
    m = build_chain_many_body(p, 0.0, (3, -1)).entries
    assert np.abs(np.linalg.eigvals(m)).max() < 1e-12


def test_noninteracting_chain_sums_of_one_body():
    p = ChainParams(length=5, t=1.0)
    theta = 0.9
    h = build_chain_one_body(p, theta)
    up = np.linalg.eigvals(h[np.ix_(range(0, 10, 2), range(0, 10, 2))])
    dn = np.linalg.eigvals(h[np.ix_(range(1, 10, 2), range(1, 10, 2))])
    # (3,-1): one a fermion, edge b spins fixed up to parity (2 choices each)
    expected = np.concatenate([np.repeat(up, 2), np.repeat(dn, 2)])
    ed = np.linalg.eigvals(build_chain_many_body(p, theta, (3, -1)).entries)
    assert eigenvalue_match(ed, expected)[0] < 1e-10


def test_interaction_preserves_per_orbital_number():
    # spin-flip pair couplings move spin, not charge, between orbitals: the
    # sector matrix never connects states with different a-fermion counts
    p = replace(FIG_DOT, j=1.0, v=1.0)
    model = dot_model(p, 2, -1)
    m = model.matrix(0.7).entries
    counts = np.array([int(np.uint64(s) & np.uint64(0b11)).bit_count()
                       for s in model.basis.states])
    differ = counts[:, None] != counts[None, :]
    assert differ.any() and np.abs(m[differ]).max() == 0


def test_incompatible_chain_sector_errors():
    p = ChainParams(length=5)
    with pytest.raises(ValueError):
        chain_sector_basis(p, 1, 1)  # cannot hold two edge b fermions


def test_dot_empty_sector_gives_empty_matrix():
    m = build_dot_many_body(FIG_DOT, 0.0, (0, -1))
    assert m.dim == 0 and m.entries.shape == (0, 0)


def test_sector_matrix_accumulates_duplicate_entries():
    # two terms on one (row, col) add up instead of overwriting each other
    lay = dot_layout()
    a_up = lay.mode(0, "a", "up")
    number = ((a_up, True), (a_up, False))
    basis = dot_sector_basis(1, -1)
    model = SectorModel(lay, [(1.0, P_ONE, number), (2.0j, P_PLUS, number)], basis)
    m = model.matrix(0.5).entries
    occupied = np.array([(int(s) >> a_up) & 1 for s in basis.states], dtype=bool)
    assert occupied.sum() == 1
    np.testing.assert_array_equal(np.diag(m), np.where(occupied, 1.0 + 2.0j * np.exp(0.5j), 0))
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0


def test_phase_table_matches_scalar_phases():
    # a stack's phases are bitwise those of one twist at a time, computed on
    # Python scalars: (1j * theta) / L divides exactly, where numpy arrays
    # would multiply by 1 / L
    for length in (1, 3, 7):
        thetas = np.linspace(0.0, 2 * np.pi, 257)
        table = phase_table(thetas, length)
        for theta, row in zip(thetas.tolist(), table):
            expected = [1.0, np.exp(1j * theta), np.exp(-1j * theta),
                        np.exp(1j * theta / length), np.exp(-1j * theta / length)]
            np.testing.assert_array_equal(row, expected)
            np.testing.assert_array_equal(phase_table(theta, length), expected)


@pytest.mark.parametrize("model", [
    dot_model(replace(FIG_DOT, j=0.7, v=0.3), 2, 1),
    chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1),
    chain_model(ChainParams(length=7, j=1.0, v=1.0, gauge="distributed"), 3, -1),
    chain_model(ChainParams(length=7, j=1.0, v=1.0, bc="periodic"), 3, -1),
], ids=["dot", "chain-boundary", "chain-distributed", "chain-periodic"])
def test_stack_slices_equal_single_matrices(model):
    grid = np.linspace(0.0, 2 * np.pi, 41)
    stack = model.stack(grid)
    assert stack.shape == (len(grid), model.dim, model.dim)
    for k, theta in enumerate(grid):
        assert stack[k].flags.f_contiguous
        np.testing.assert_array_equal(stack[k], model.matrix(theta).entries)
        if model.freeze_theta is not None:  # periodic: every twist gives H(0)
            np.testing.assert_array_equal(stack[k], model.matrix(0.0).entries)


def test_param_validation():
    with pytest.raises(ValueError):
        ChainParams(length=1)
    with pytest.raises(ValueError):
        ChainParams(length=4, bc="moebius")
    with pytest.raises(ValueError):
        ChainParams(length=4, edge_convention="exchange-maybe")
    with pytest.raises(ValueError):
        DotParams(lam=float("nan"))


def test_edge_convention_coefficients():
    # the three bookkeeping variants only rescale the two coupling channels
    base = dict(length=5, t=1.0, j=0.6, v=0.0, bc="twisted")
    half = chain_model(ChainParams(**base, edge_convention="exchange-half"), 3, -1)
    full = chain_model(ChainParams(**base, edge_convention="exchange-full"), 3, -1)
    h_half = half.matrix(0.0).entries
    h_full = full.matrix(0.0).entries
    hop = chain_model(ChainParams(**{**base, "j": 0.0}), 3, -1).matrix(0.0).entries
    np.testing.assert_allclose(h_full - hop, 2 * (h_half - hop), atol=1e-15)
