import mmap
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pointgap.fock import (
    apply_ops,
    apply_ops_array,
    dot_layout,
    mirror_modes,
    permute_modes_array,
)
from pointgap.models import (
    DEFORM_PATHS,
    P_ONE,
    P_PLUS,
    ChainParams,
    DotParams,
    SectorModel,
    chain_model,
    chain_sector_basis,
    chain_terms,
    deformation_params,
    dot_model,
    dot_sector_basis,
    dot_terms,
    full_space_matrix,
    one_body_model,
    phase_table,
    terms_to_coo,
)
from pointgap.oracles import eigenvalue_match

FIG_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                    eps_b_dn=-0.25)


def test_dot_one_body_reference_values():
    h = one_body_model(FIG_DOT)(0.0)
    np.testing.assert_allclose(
        np.diag(h), [1 + 0.2j, 1 - 0.1j, 0.35j, -0.25j], atol=1e-15)
    assert np.count_nonzero(h - np.diag(np.diag(h))) == 0


def test_dot_one_body_periodic_and_flat():
    np.testing.assert_allclose(one_body_model(FIG_DOT)(2 * np.pi),
                               one_body_model(FIG_DOT)(0.0), atol=1e-15)
    flat = replace(FIG_DOT, lam=0.0)
    for theta in (0.0, 1.1, 4.4):
        np.testing.assert_allclose(one_body_model(flat)(theta),
                                   one_body_model(flat)(0.0), atol=1e-15)


def test_dot_one_body_spin_blocks_are_one_fermion_sectors():
    # the spin-up and spin-down blocks of h(theta) are, bit for bit, the
    # (1, -1) and (1, +1) sector matrices of the same terms
    p = replace(FIG_DOT, j=0.7, v=0.9)
    one_body = one_body_model(p)
    up = one_body.basis.sz > 0
    for theta in (0.0, 0.83, 4.4):
        h = one_body(theta)
        np.testing.assert_array_equal(h[np.ix_(up, up)], dot_model(p, 1, -1)(theta))
        np.testing.assert_array_equal(h[np.ix_(~up, ~up)], dot_model(p, 1, 1)(theta))


def test_dot_two_level_sector_matrix():
    p = replace(FIG_DOT, v=0.9)
    theta = 0.83
    m = dot_model(p, 2, 1)(theta)
    ref = np.array([
        [np.exp(1j * theta) + 1j * (0.2 + 0.35), 0.45j],
        [0.45j, np.exp(-1j * theta) + 1j * (-0.1 - 0.25)],
    ])
    np.testing.assert_allclose(m, ref, atol=1e-15)


def test_dot_four_level_sector_structure():
    p = replace(FIG_DOT, j=0.7, v=0.9)
    m = dot_model(p, 2, -1)(0.4)
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
        m = dot_model(p, *sector)(0.0)
        herm = m / 1j
        np.testing.assert_allclose(herm, herm.conj().T, atol=1e-15)


def test_noninteracting_dot_sums_of_one_body():
    p = FIG_DOT
    theta = 1.9
    h = np.diag(one_body_model(p)(theta))
    for sector in ((2, 1), (2, -1), (1, -1), (3, 1)):
        model = dot_model(p, *sector)
        expected = [sum(h[m] for m in range(4) if (int(s) >> m) & 1)
                    for s in model.basis.states]
        ed = np.linalg.eigvals(model(theta))
        assert eigenvalue_match(ed, expected)[0] < 1e-10


def test_chain_one_body_circulant_spectrum():
    # the periodic ring is the twisted one at theta = 0
    p = ChainParams(length=7, t=1.0)
    h = one_body_model(p)(0.0)
    up = h[np.ix_(range(0, 14, 2), range(0, 14, 2))]
    expected = np.exp(2j * np.pi * np.arange(7) / 7)
    assert eigenvalue_match(np.linalg.eigvals(up), expected)[0] < 1e-12


def test_chain_open_blocks_are_nilpotent():
    p = ChainParams(length=6, t=1.3, bc="open")
    h = one_body_model(p)(0.0)
    assert np.abs(np.linalg.eigvals(h)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(h, 6)).max() < 1e-12


def test_boundary_gauge_entries_periodic():
    model = chain_model(ChainParams(length=5, j=1.0, v=1.0), 3, -1)
    np.testing.assert_allclose(model(2 * np.pi), model(0.0), atol=1e-14)


def test_chain_open_many_body_nilpotent():
    p = ChainParams(length=7, t=1.0, bc="open")
    m = chain_model(p, 3, -1)(0.0)
    assert np.abs(np.linalg.eigvals(m)).max() < 1e-12


def test_noninteracting_chain_sums_of_one_body():
    p = ChainParams(length=5, t=1.0)
    theta = 0.9
    h = one_body_model(p)(theta)
    up = np.linalg.eigvals(h[np.ix_(range(0, 10, 2), range(0, 10, 2))])
    dn = np.linalg.eigvals(h[np.ix_(range(1, 10, 2), range(1, 10, 2))])
    # (3,-1): one a fermion, edge b spins fixed up to parity (2 choices each)
    expected = np.concatenate([np.repeat(up, 2), np.repeat(dn, 2)])
    ed = np.linalg.eigvals(chain_model(p, 3, -1)(theta))
    assert eigenvalue_match(ed, expected)[0] < 1e-10


def test_interaction_preserves_per_orbital_number():
    # spin-flip pair couplings move spin, not charge, between orbitals: the
    # sector matrix never connects states with different a-fermion counts
    p = replace(FIG_DOT, j=1.0, v=1.0)
    model = dot_model(p, 2, -1)
    m = model(0.7)
    counts = np.array([int(np.uint64(s) & np.uint64(0b11)).bit_count()
                       for s in model.basis.states])
    differ = counts[:, None] != counts[None, :]
    assert differ.any() and np.abs(m[differ]).max() == 0


def test_incompatible_chain_sector_errors():
    p = ChainParams(length=5)
    with pytest.raises(ValueError):
        chain_sector_basis(p, 1, 1)  # cannot hold two edge b fermions


def test_dot_empty_sector_gives_empty_matrix():
    model = dot_model(FIG_DOT, 0, -1)
    assert model.dim == 0 and model(0.0).shape == (0, 0)


def test_sector_matrix_accumulates_duplicate_entries():
    # two terms on one (row, col) add up instead of overwriting each other
    lay = dot_layout()
    a_up = lay.mode(0, "a", "up")
    number = ((a_up, True), (a_up, False))
    basis = dot_sector_basis(1, -1)
    model = SectorModel([(1.0, P_ONE, number), (2.0j, P_PLUS, number)], basis)
    m = model(0.5)
    occupied = np.array([(int(s) >> a_up) & 1 for s in basis.states], dtype=bool)
    assert occupied.sum() == 1
    np.testing.assert_array_equal(np.diag(m), np.where(occupied, 1.0 + 2.0j * np.exp(0.5j), 0))
    assert np.count_nonzero(m - np.diag(np.diag(m))) == 0


def _scalar_coo(terms, basis, actions):
    """terms_to_coo, one state and one term at a time with fock.apply_ops.

    ``actions`` caches each operator's (row, col, sign) list on this basis.
    """
    position = {s: i for i, s in enumerate(basis.states.tolist())}
    rows, cols, amps, slots = [], [], [], []
    for coeff, slot, ops in terms:
        if coeff == 0:
            continue
        if ops not in actions:
            actions[ops] = []
            for col, s in enumerate(basis.states.tolist()):
                res = apply_ops(s, ops)
                if res is not None:
                    actions[ops].append((position[res[0]], col, res[1]))
        for row, col, sign in actions[ops]:
            rows.append(row)
            cols.append(col)
            amps.append(sign * coeff)
            slots.append(slot)
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(amps, dtype=complex), np.asarray(slots, dtype=np.int64))


def _assert_same_coo(got, want):
    for name, g, w in zip(("rows", "cols", "amps", "slots"), got, want):
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name  # bitwise, signed zeros included


def _chain_cases(length, sectors):
    for n, parity in sectors:
        try:
            basis = chain_sector_basis(ChainParams(length=length), n, parity)
        except ValueError:  # no room for the two edge b fermions
            continue
        actions = {}
        for bc in ("twisted", "open"):
            for j, v in ((0.0, 0.0), (0.37, 0.0), (0.0, 0.53), (1.0, 1.0)):
                p = ChainParams(length=length, t=0.9, j=j, v=v, bc=bc)
                yield chain_terms(p)[1], basis, actions


def test_term_scatter_matches_scalar_reference():
    # every dot sector, chain L = 3 and 5 sectors, and (4, +-1) at L = 7
    for n in range(5):
        for parity in (1, -1):
            basis, actions = dot_sector_basis(n, parity), {}
            for j, v in ((0.0, 0.0), (0.7, 0.0), (0.0, 0.9), (0.7, 0.9)):
                terms = dot_terms(replace(FIG_DOT, lam=0.8, j=j, v=v))[1]
                _assert_same_coo(terms_to_coo(terms, basis),
                                 _scalar_coo(terms, basis, actions))
    sectors = {3: [(n, p) for n in range(2, 9) for p in (1, -1)],
               5: [(n, p) for n in range(2, 13) for p in (1, -1)],
               7: [(4, 1), (4, -1)]}
    for length, chain_sectors in sectors.items():
        for terms, basis, actions in _chain_cases(length, chain_sectors):
            _assert_same_coo(terms_to_coo(terms, basis),
                             _scalar_coo(terms, basis, actions))


def _term_by_term_coo(terms, basis):
    """terms_to_coo as it was before its patterns were cached: each nonzero
    term's operator pattern on its own, amplitudes ``signs * coeff``, joined."""
    rows, cols, amps, slots = [], [], [], []
    for coeff, slot, ops in terms:
        if coeff == 0:
            continue
        term_cols, images, signs = apply_ops_array(basis.states, ops)
        rows.append(basis.index_of(images))
        cols.append(term_cols)
        amps.append(signs * coeff)
        slots.append(np.full(len(signs), slot))

    def joined(parts, dtype):
        return np.concatenate([np.zeros(0, dtype=dtype), *parts], dtype=dtype)
    return (joined(rows, np.int64), joined(cols, np.int64), joined(amps, complex),
            joined(slots, np.int64))


def _cached_coo_cases():
    """(terms, basis) of the dot path points (s = 0 and 1 drop zero terms),
    twisted and open chains at J = V in {0, 1} and with negative real
    coefficients, and the one-body models."""
    for path in DEFORM_PATHS:
        for s in np.linspace(0.0, 1.0, 9).tolist():
            params = deformation_params(FIG_DOT, path, s)
            for sector in ((2, 1), (2, -1), (3, 1)):
                yield dot_terms(params)[1], dot_sector_basis(*sector)
    for bc in ("twisted", "open"):
        for t, g in ((1.0, 0.0), (1.0, 1.0), (-0.9, -0.4)):
            p = ChainParams(length=7, t=t, j=g, v=g, bc=bc)
            for sector in ((3, -1), (4, 1)):
                yield chain_terms(p)[1], chain_sector_basis(p, *sector)
            yield chain_terms(p)[1], one_body_model(p).basis
    for lam in (1.0, -0.8, 0.0):
        p = replace(FIG_DOT, lam=lam, j=0.7, v=0.3)
        yield dot_terms(p)[1], one_body_model(p).basis


def test_cached_term_patterns_match_term_by_term_scatter():
    """The cached patterns give the term-by-term COO bit for bit (signed
    zeros included), as read-only arrays; models that differ only in their
    coefficients share the cached rows, columns and slots."""
    for terms, basis in _cached_coo_cases():
        got = terms_to_coo(terms, basis)
        _assert_same_coo(got, _term_by_term_coo(terms, basis))
        assert not any(array.flags.writeable for array in got)
    first, second = (dot_model(deformation_params(FIG_DOT, "pair-ramp", s), 2, 1)._coo
                     for s in (0.25, 0.5))
    assert all(a is b for a, b in zip(first[:2] + first[3:], second[:2] + second[3:]))


def test_clearing_the_models_caches_clears_the_term_patterns():
    """Clearing every cache of ``models``, as the benchmark does before a cold
    task, empties the term patterns too."""
    import pointgap.models as models

    dot_model(FIG_DOT, 2, 1)
    assert models._term_pattern.cache_info().currsize > 0
    for obj in vars(models).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()
    assert models._term_pattern.cache_info().currsize == 0


def test_phase_table_matches_scalar_phases():
    # a stack's phases are bitwise those of one twist at a time, computed on
    # Python scalars
    thetas = np.linspace(0.0, 2 * np.pi, 257)
    table = phase_table(thetas)
    for theta, row in zip(thetas.tolist(), table):
        expected = [1.0, np.exp(1j * theta), np.exp(-1j * theta)]
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(phase_table(theta), expected)


@pytest.mark.parametrize("model, untwisted", [
    (dot_model(replace(FIG_DOT, j=0.7, v=0.3), 2, 1), False),
    (chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1), False),
    (chain_model(ChainParams(length=7, j=1.0, v=1.0, bc="open"), 3, -1), True),
], ids=["dot", "chain-boundary", "chain-open"])
def test_stack_slices_equal_single_matrices(model, untwisted):
    grid = np.linspace(0.0, 2 * np.pi, 41)
    stack = model.stack(grid)
    assert stack.shape == (len(grid), model.dim, model.dim)
    for k, theta in enumerate(grid):
        assert stack[k].flags.f_contiguous
        np.testing.assert_array_equal(stack[k], model(theta))
        if untwisted:  # no term carries the twist: every twist gives H(0)
            np.testing.assert_array_equal(stack[k], model(0.0))


def _boundary(label, thetas):
    """ChainParams bc and twist angles of a boundary label: the periodic
    chain is the twisted one at theta = 0."""
    return ("twisted", (0.0,)) if label == "periodic" else (label, thetas)


@pytest.mark.parametrize("label", ["twisted", "periodic", "open"],
                         ids=lambda label: f"boundary-{label}")
def test_sector_models_are_blocks_of_the_full_space_matrix(label):
    # the term list decides the boundary: a sector model is, bit for bit,
    # the block of the whole-space matrix built from the same terms
    bc, thetas = _boundary(label, (0.0, 1.21))
    p = ChainParams(length=3, j=0.8, v=0.6, bc=bc)
    lay, terms = chain_terms(p)
    for theta in thetas:
        h = full_space_matrix(lay, terms, theta)
        # the one-body model is the block of one a fermion
        for model in (chain_model(p, 3, -1), chain_model(p, 4, 1), one_body_model(p)):
            states = model.basis.states.astype(np.intp)
            np.testing.assert_array_equal(h[np.ix_(states, states)], model(theta))


def _restrict_cases():
    yield pytest.param(one_body_model(FIG_DOT), None, (0.0, 1.21), id="dot-one-body")
    for label in ("twisted", "periodic", "open"):
        bc, thetas = _boundary(label, (0.0, 1.21))
        yield pytest.param(one_body_model(ChainParams(length=7, bc=bc)),
                           None, thetas, id=f"chain-one-body-{label}-boundary")
    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 3, -1)
    keep = np.random.default_rng(3).random(model.dim) < 0.5
    yield pytest.param(model, keep, (0.0, 1.21), id="chain-(3,-1)-mask")


@pytest.mark.parametrize("model, mask, thetas", _restrict_cases())
def test_restrict_builds_the_kept_block(model, mask, thetas):
    # a restricted model is, bit for bit, the kept rows and columns of the
    # model's matrix, on the kept states; one-body models are cut into their
    # spin blocks, which spin_blocks() gives bit for bit: the same states, the
    # same entries in the same order, the same stacks
    masks = [mask] if mask is not None else [model.basis.sz > 0, model.basis.sz < 0]
    blocks = [None] if mask is not None else model.spin_blocks()
    for keep, block in zip(masks, blocks, strict=True):
        sub = model.restrict(keep)
        np.testing.assert_array_equal(sub.basis.states, model.basis.states[keep])
        assert (sub.basis.n, sub.basis.parity) == (model.basis.n, model.basis.parity)
        for theta in thetas:
            np.testing.assert_array_equal(sub(theta), model(theta)[np.ix_(keep, keep)])
        if block is not None:
            np.testing.assert_array_equal(block.basis.states, sub.basis.states)
            _assert_same_coo(block._coo, sub._coo)
            assert block.stack(thetas).tobytes() == sub.stack(thetas).tobytes()


def _one_matrix_stack_cases():
    for n, parity in ((4, 1), (5, 1)):
        model = chain_model(ChainParams(length=7, j=1.0, v=1.0), n, parity)
        yield pytest.param(model, id=f"chain-({n},{parity:+d})-d{model.dim}")
    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 5, 1)
    block = model.restrict(np.random.default_rng(6).random(model.dim) < 0.5)
    yield pytest.param(block, id=f"chain-(5,+1)-restricted-d{block.dim}")


@pytest.mark.parametrize("model", _one_matrix_stack_cases())
def test_one_matrix_stack_is_the_row_major_scatter(model):
    """A stack of one matrix (d > 128) lives on lazily zeroed pages, and
    holds, bit for bit, what the row-major scatter of the term list gives,
    in writable F-contiguous slices; ``tracemalloc`` does not see it."""
    from pointgap.spectral import stack_length

    d, theta = model.dim, 1.3
    assert stack_length(d) == 1
    rows, cols, amps, slots = model._coo
    expected = np.zeros((d, d), dtype=complex)
    np.add.at(expected, (rows, cols), amps * phase_table(theta)[slots])
    for a in (model.stack([theta])[0], model(theta)):
        np.testing.assert_array_equal(a, expected)
        assert a.flags.f_contiguous and a.flags.writeable
        a[d - 1, 0] += 1.0
        assert a[d - 1, 0] == expected[d - 1, 0] + 1.0
    assert model.stack([]).shape == (0, d, d)
    if hasattr(mmap, "MAP_PRIVATE"):
        tracemalloc.start()
        try:
            model(theta)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * d * d / 2


@pytest.mark.skipif(not os.access("/proc/self/status", os.R_OK),
                    reason="/proc is unreadable, so VmRSS cannot be read")
@pytest.mark.skipif(not hasattr(mmap, "MAP_PRIVATE"),
                    reason="no private anonymous mappings: stacks are np.zeros")
def test_large_matrix_keeps_only_the_pages_it_writes():
    """The (7,-1) H(theta) is 256 MB dense; building it in a fresh process
    grows VmRSS by less than half of that (48 MB at J = V = 1)."""
    import pointgap

    src = os.path.dirname(os.path.dirname(os.path.abspath(pointgap.__file__)))
    code = ("from pointgap.models import ChainParams, chain_model\n"
            "def rss():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) * 1024 for line in fh\n"
            "                    if line.startswith('VmRSS:'))\n"
            "model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 7, -1)\n"
            "before = rss()\n"
            "a = model(1.3)\n"
            "print(a.nbytes, rss() - before)\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    nbytes, grown = map(int, proc.stdout.split())
    assert nbytes == 16 * 4004 ** 2
    assert grown < 128 * 2 ** 20


def test_restrict_orders_its_own_band():
    """A restricted model does not keep its parent's band: it orders the
    kept block's pattern, and factors as its own matrices do, bit for bit."""
    from pointgap.spectral import factor_model, factor_shifted

    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 5, -1)
    assert model.band_layout is not None and len(model.band_layout.perm) == model.dim
    keep = np.random.default_rng(4).random(model.dim) < 0.5
    sub = model.restrict(keep)
    assert sub.dim > 128 and sub.band_layout is not model.band_layout
    assert len(sub.band_layout.perm) == sub.dim
    got, got_scale = factor_model(sub, 1.1, 0.3j)
    want, want_scale = factor_shifted(sub(1.1), 0.3j)
    assert got_scale == want_scale and (got.kl, got.ku) == (want.kl, want.ku)
    for name in ("lu", "piv", "perm"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("label", ["twisted", "periodic", "open"])
@pytest.mark.parametrize("parity", [1, -1])
def test_mirror_conjugates_h_theta_to_h_minus_theta(label, parity):
    """The signed permutation R of an even-N chain sector gives
    R H(theta) R^T = H(-theta) on the dense matrices, bit for bit."""
    bc, thetas = _boundary(label, (0.0, 1.1, 2.9))
    model = chain_model(ChainParams(length=5, j=0.7, v=0.4, bc=bc), 4, parity)
    assert model.twist_relations[0] == (0.0, 1, False)
    images, signs = permute_modes_array(model.basis.states,
                                        mirror_modes(model.basis.layout))
    r = np.zeros((model.dim, model.dim))
    r[model.basis.index_of(images), np.arange(model.dim)] = signs
    for theta in thetas:
        np.testing.assert_array_equal(r @ model(theta) @ r.T, model(-theta))


def test_mirror_of_the_dot_and_of_restricted_models():
    # the refusals of odd N, unequal dot potentials and a skewed amplitude
    # are in checks.check_mirror_symmetry
    mirror = (0.0, 1, False)
    dot = dot_model(replace(FIG_DOT, eps_a_dn=0.2, eps_b_dn=0.35), 2, 1)
    assert mirror in dot.twist_relations
    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 4, 1)
    assert mirror in model.twist_relations
    # the cached value is not carried into a restricted model
    assert mirror in model.restrict(np.ones(model.dim, dtype=bool)).twist_relations
    assert mirror not in model.restrict(np.arange(model.dim) < 100).twist_relations


def _conjugation_diagonal(basis, sign):
    """The diagonal of D for the relation of ``sign``, state by state:
    i^N_up for s = +1; for s = -1, the product over occupied modes of
    (-1)^site on a modes, times i on a_up and -i on b_up."""
    factors = []
    for site, orbital, spin in basis.layout.labels:
        if sign > 0:
            factors.append(1j if spin == "up" else 1)
        elif orbital == "a":
            factors.append((-1) ** site * (1j if spin == "up" else 1))
        else:
            factors.append(-1j if spin == "up" else 1)
    return np.array([np.prod([complex(f) for m, f in enumerate(factors) if int(s) >> m & 1]
                             + [1 + 0j]) for s in basis.states])


@pytest.mark.parametrize("length", [5, 6])
@pytest.mark.parametrize("sector", [(3, -1), (4, 1), (5, -1)])
def test_conjugation_relations_on_dense_matrices(length, sector):
    """D conj(H(theta)) D^-1 = s H(theta0 - theta) on the dense matrices, bit
    for bit, with theta0 = pi for s = -1 on odd L and 0 otherwise.
    H(theta0 - theta) is scattered from the term list in ``stack``'s order,
    at slot phases e^(+-i(theta0 - theta)) = +-e^(-+i theta) exactly."""
    model = chain_model(ChainParams(length=length, j=0.7, v=0.4), *sector)
    rows, cols, amps, slots = model._coo

    def scatter(values):
        h = np.zeros((model.dim, model.dim), dtype=complex)
        np.add.at(h, (rows, cols), values)
        return h

    expected = {-1: np.pi if length % 2 else 0.0, 1: 0.0}
    assert [relation for relation in model.twist_relations if relation[2]] == [
        (theta0, sign, True) for sign, theta0 in expected.items()]
    for sign, theta0 in expected.items():
        diag = _conjugation_diagonal(model.basis, sign)
        turn = np.array([1.0, 1.0, 1.0]) if theta0 == 0.0 else np.array([1.0, -1.0, -1.0])
        for theta in (0.0, 1.1, 2.9):
            h = model(theta)
            np.testing.assert_array_equal(scatter(model.values(theta)), h)
            mapped = diag[:, None] * h.conj() * diag.conj()[None, :]
            reflected = scatter(amps * (turn * phase_table(theta).conj())[slots])
            np.testing.assert_array_equal(mapped, sign * reflected)
        # and the spectra: -conj (s = -1) or conj (s = +1) of those at theta0 - 1.1
        values = np.linalg.eigvals(model(1.1)).conj() * sign
        assert eigenvalue_match(values, np.linalg.eigvals(model(theta0 - 1.1)))[0] < 1e-12


def test_conjugation_twists_are_checked_lazily(monkeypatch):
    """Building a model evaluates no twist relation; a restricted model
    checks its own; a relation broken in one entry is refused."""
    from pointgap import models

    calls = []
    exponents = models._conjugation_exponents
    monkeypatch.setattr(models, "_conjugation_exponents",
                        lambda *args: calls.append(args) or exponents(*args))
    conjugations = ((np.pi, -1, True), (0.0, 1, True))
    model = chain_model(ChainParams(length=7, j=1.0, v=1.0), 4, 1)
    assert calls == [] and "twist_relations" not in model.__dict__
    assert model.twist_relations == ((0.0, 1, False), *conjugations) and len(calls) == 2
    sub = model.restrict(np.arange(model.dim) < 100)
    assert "twist_relations" not in sub.__dict__
    assert sub.twist_relations == conjugations and len(calls) == 4
    # one off-diagonal amplitude turned by i breaks both relations
    rows, cols, amps, slots = sub._coo
    amps = amps.copy()
    amps[np.flatnonzero((slots == P_ONE) & (rows != cols))[-1]] *= 1j
    broken = sub.restrict(np.ones(sub.dim, dtype=bool))
    broken._coo = (rows, cols, amps, slots)
    assert broken.twist_relations == ()
    # the dot keeps s = -1 only, at unequal potentials, with D = 1: its
    # exchange amplitude iJ/2 is imaginary
    dot = dot_model(replace(FIG_DOT, j=1.0, v=1.0), 2, -1)
    assert dot.twist_relations == conjugations[:1]


def test_one_body_basis_refuses_outsiders_by_name():
    basis = one_body_model(DotParams()).basis
    assert repr(basis) == "SectorBasis(N=1, P=both, dim=4)"
    with pytest.raises(KeyError, match="P=both"):
        basis.index_of(3)  # two fermions


def test_param_validation():
    with pytest.raises(ValueError):
        ChainParams(length=1)
    with pytest.raises(ValueError):
        ChainParams(length=4, bc="moebius")
    with pytest.raises(ValueError):
        ChainParams(length=4, bc="periodic")  # the twisted chain at theta = 0
    with pytest.raises(ValueError):
        DotParams(lam=float("nan"))
    # an integer beyond the float range, or a value that is not a number, is
    # refused by name like a non-finite float
    for value in (10 ** 400, "1.0", None):
        with pytest.raises(ValueError, match="lam must be a finite number"):
            DotParams(lam=value)
    with pytest.raises(ValueError, match="t must be a finite number"):
        ChainParams(length=4, t=-10 ** 400)


def test_edge_convention_coefficients():
    # the exchange channel is linear in J: its amplitude is J / 2, so a
    # full-strength exchange J is the chain at 2J
    base = dict(length=5, t=1.0, v=0.0, bc="twisted")
    h_half = chain_model(ChainParams(**base, j=0.6), 3, -1)(0.0)
    h_full = chain_model(ChainParams(**base, j=1.2), 3, -1)(0.0)
    hop = chain_model(ChainParams(**base, j=0.0), 3, -1)(0.0)
    np.testing.assert_allclose(h_full - hop, 2 * (h_half - hop), atol=1e-15)
