import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from pointgap.fock import (
    Constraint,
    apply_annihilate,
    apply_create,
    apply_ops,
    chain_layout,
    dot_layout,
    edge_b_constraints,
    enumerate_sector,
    mirror_modes,
    permute_modes_array,
    spin_flip_ops,
)
from pointgap.models import ChainParams, chain_sector_basis


def test_create_on_vacuum():
    assert apply_create(0, 0) == (1, 1)


def test_create_anticommutes():
    a = apply_ops(0, ((0, True), (1, True)))   # c†_0 c†_1 |0>
    b = apply_ops(0, ((1, True), (0, True)))   # c†_1 c†_0 |0>
    assert a[0] == b[0] == 0b11
    assert a[1] == -b[1]


def test_pauli_exclusion():
    assert apply_create(0b1, 0) is None
    assert apply_annihilate(0, 0) is None


def test_annihilate_vacuum_and_sign():
    assert apply_annihilate(0b1, 0) == (0, 1)
    # one occupied mode below index 1 flips the sign
    assert apply_annihilate(0b11, 1) == (0b01, -1)


def test_dot_layout_mode_order():
    lay = dot_layout()
    assert [lay.mode(0, "a", "up"), lay.mode(0, "a", "dn"),
            lay.mode(0, "b", "up"), lay.mode(0, "b", "dn")] == [0, 1, 2, 3]


def test_chain_layout_mode_order():
    lay = chain_layout(7)
    assert lay.n_modes == 18
    assert lay.mode(3, "a", "up") == 6
    assert lay.mode(3, "a", "dn") == 7
    assert lay.mode(0, "b", "up") == 14
    assert lay.mode(0, "b", "dn") == 15
    assert lay.mode(6, "b", "up") == 16
    assert lay.mode(6, "b", "dn") == 17


def test_layout_width_limit():
    with pytest.raises(ValueError):
        chain_layout(31)  # 66 modes


def test_dot_sector_dimensions():
    lay = dot_layout()
    assert enumerate_sector(lay, 2, 1).dim == 2
    assert enumerate_sector(lay, 2, -1).dim == 4
    # the parity +1 two-fermion basis is (a_up b_up, a_dn b_dn)
    assert [int(s) for s in enumerate_sector(lay, 2, 1).states] == [0b0101, 0b1010]


def test_chain_sector_dimension_28():
    lay = chain_layout(7)
    basis = enumerate_sector(lay, 3, -1, edge_b_constraints(lay, 7))
    assert basis.dim == 28
    # brute-force recount over every bitset
    count = 0
    for s in range(1 << lay.n_modes):
        if int(s).bit_count() != 3:
            continue
        if lay.spin_parity(s) != -1:
            continue
        if any(int(np.uint64(s) & np.uint64(c.mask)).bit_count() != c.count
               for c in edge_b_constraints(lay, 7)):
            continue
        count += 1
    assert count == 28


def test_sector_completeness():
    lay = chain_layout(2)  # 8 modes
    total = sum(enumerate_sector(lay, n, p).dim
                for n in range(lay.n_modes + 1) for p in (1, -1))
    assert total == 1 << lay.n_modes


def test_parity_from_quantum_numbers():
    lay = chain_layout(3)
    for s in range(256):
        n_up = int(np.uint64(s) & np.uint64(lay.up_mask)).bit_count()
        assert lay.spin_parity(s) == (-1) ** n_up


def test_ordering_is_ascending():
    lay = chain_layout(4)
    basis = enumerate_sector(lay, 3, -1)
    assert np.all(np.diff(basis.states.astype(np.int64)) > 0)


def test_empty_sector_is_valid():
    lay = dot_layout()
    basis = enumerate_sector(lay, 0, -1)
    assert basis.dim == 0


def test_constraint_filtering():
    lay = dot_layout()
    basis = enumerate_sector(lay, 2, -1, (Constraint(0b1100, 1),))
    # exactly one fermion in the b orbital
    assert all(int(np.uint64(s) & np.uint64(0b1100)).bit_count() == 1
               for s in basis.states)
    assert basis.dim == 2


def test_spin_flip_action():
    lay = dot_layout()
    ops = spin_flip_ops(lay, 0, "a", raise_spin=True)
    # S+ on an a-down fermion raises it
    assert apply_ops(0b10, ops) == (0b01, 1)
    # S+ on an empty a orbital annihilates
    assert apply_ops(0b100, ops) is None
    # (S+)^2 = 0
    out = apply_ops(0b10, ops)
    assert apply_ops(out[0], ops) is None


def _scan_reference(layout, n, parity, constraints=()):
    """Every bitset of the layout, filtered one by one."""
    return [s for s in range(1 << layout.n_modes)
            if s.bit_count() == n and layout.spin_parity(s) == parity
            and all((s & c.mask).bit_count() == c.count for c in constraints)]


@pytest.mark.parametrize("length", [None, 2, 3, 4],
                         ids=["dot", "chain-2", "chain-3", "chain-4"])
def test_enumeration_equals_full_scan(length):
    if length is None:
        layout, constraint_sets = dot_layout(), [()]
    else:
        layout = chain_layout(length)
        constraint_sets = [(), edge_b_constraints(layout, length)]
    for constraints in constraint_sets:
        for n in range(layout.n_modes + 1):
            for parity in (1, -1):
                basis = enumerate_sector(layout, n, parity, constraints)
                assert basis.states.dtype == np.uint64
                np.testing.assert_array_equal(
                    basis.states,
                    np.array(_scan_reference(layout, n, parity, constraints),
                             dtype=np.uint64))


def _combination_reference(layout, n):
    """Every placement of n fermions, from itertools.combinations, ascending."""
    return sorted(sum(1 << m for m in modes)
                  for modes in combinations(range(layout.n_modes), n))


@pytest.mark.parametrize("length, counts", [
    (None, range(5)),
    (3, range(11)),
    (7, (2, 7, 9, 11, 16)),
], ids=["dot", "chain-3", "chain-7"])
def test_enumeration_equals_combinations(length, counts):
    # N runs on both sides of n_modes / 2
    if length is None:
        layout, constraint_sets = dot_layout(), [()]
    else:
        layout = chain_layout(length)
        constraint_sets = [(), edge_b_constraints(layout, length)]
    for n in counts:
        placed = _combination_reference(layout, n)
        for constraints in constraint_sets:
            kept = [s for s in placed
                    if all((s & c.mask).bit_count() == c.count for c in constraints)]
            for parity in (1, -1):
                expected = [s for s in kept if layout.spin_parity(s) == parity]
                basis = enumerate_sector(layout, n, parity, constraints)
                np.testing.assert_array_equal(basis.states,
                                              np.array(expected, dtype=np.uint64))


def test_index_of_finds_positions_and_refuses_outsiders():
    lay = chain_layout(3)
    basis = enumerate_sector(lay, 4, -1, edge_b_constraints(lay, 3))
    for i, s in enumerate(basis.states.tolist()):
        assert basis.index_of(s) == i
    np.testing.assert_array_equal(basis.index_of(basis.states[::-1]),
                                  np.arange(basis.dim)[::-1])
    above = int(basis.states[-1]) << 1 | 1
    outside = [0b1111, above, int(basis.states[0]) ^ 0b11]  # wrong N or P, or past the end
    for s in outside:
        with pytest.raises(KeyError):
            basis.index_of(s)
    with pytest.raises(KeyError):
        basis.index_of(np.array([basis.states[0], outside[0]], dtype=np.uint64))
    with pytest.raises(KeyError):
        enumerate_sector(dot_layout(), 0, -1).index_of(0)


def test_large_chain_sector_scales_with_its_size():
    # 32 modes: a scan of all 2**32 bitsets would need 32 GiB
    start = time.perf_counter()
    basis = chain_sector_basis(ChainParams(length=14), 3, -1)
    assert time.perf_counter() - start < 1.0
    assert basis.dim == 56


def test_candidate_limit_refuses_before_allocating():
    lay = chain_layout(30)  # 64 modes, C(64, 32) ~ 1.8e18 candidates
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="enumeration limit"):
            enumerate_sector(lay, 32, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mirror_modes_reflect_sites_and_flip_spins():
    lay = chain_layout(3)
    image = mirror_modes(lay)
    assert sorted(image) == list(range(lay.n_modes))
    assert image[lay.mode(0, "a", "up")] == lay.mode(2, "a", "dn")
    assert image[lay.mode(1, "a", "dn")] == lay.mode(1, "a", "up")
    assert image[lay.mode(2, "b", "up")] == lay.mode(0, "b", "dn")
    dot = dot_layout()
    assert mirror_modes(dot) == [dot.mode(0, "a", "dn"), dot.mode(0, "a", "up"),
                                 dot.mode(0, "b", "dn"), dot.mode(0, "b", "up")]


def test_permute_modes_array_matches_creation_in_image_order():
    # a state is its creators in ascending mode order on the vacuum; moving
    # each to its image gives the permuted state with the sign of apply_ops
    lay = chain_layout(3)
    image = mirror_modes(lay)
    states = np.random.default_rng(5).integers(0, 1 << lay.n_modes, 300, dtype=np.uint64)
    out, signs = permute_modes_array(states, image)
    for state, got, sign in zip(states.tolist(), out.tolist(), signs.tolist()):
        ops = tuple((image[m], True) for m in range(lay.n_modes) if state >> m & 1)
        assert apply_ops(0, ops) == (got, sign)
