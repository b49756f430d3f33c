"""Sector-restricted dense Hamiltonians for the two reference models.

Both models share the structure ``H = H0(theta) + H_int`` with a twist angle
``theta`` entering one-body hoppings only:

* **dot** - one site, orbitals a and b.  One-body part is diagonal,
  ``diag(lam*e^{i theta} + i eps_a_up, lam*e^{-i theta} + i eps_a_dn,
  i eps_b_up, i eps_b_dn)``; the two-body part is
  ``(iJ/2)(S+_a S-_b + S-_a S+_b) + (iV/2)(S+_a S+_b + S-_a S-_b)``.
* **chain** - L-site ring of itinerant a fermions (up spins hop rightward,
  down spins leftward, amplitude ``t``) with a localized, singly occupied
  b fermion at each edge site coupled through on-site spin exchange and
  spin pair terms at ``j = 0`` and ``j = L-1``.

A twisted chain (``bc="twisted"``) carries its twist on the boundary link
alone, as ``e^{+-i theta}`` on the hops from site L-1 to site 0, so its
entries are exactly periodic in theta.  Spreading the twist as
``e^{+-i theta/L}`` over every link is a diagonal gauge transformation of
this matrix (Niu, Thouless & Wu, PRB 31, 3372 (1985)): it leaves the
spectrum, the phase of det[H(theta) - E] and the occupations |v|^2
unchanged, so only the boundary-link form is built.  The periodic chain is
the twisted one at theta = 0.  An open chain (``bc="open"``) drops the
boundary link, so its terms do not depend on theta.  Both edges carry the
same spin-exchange and spin-pair amplitudes (``edge_amplitudes``).

A ``SectorModel`` (from ``dot_model`` or ``chain_model``) is the one way to
build a sector Hamiltonian: it keeps the sparse term list of one model and
sector, and calling it at a twist returns H(theta) as a plain ndarray.  The
one-body matrix h(theta) is built the same way (``one_body_model``): it is
the one-fermion sector of the same term list, with both spin parities, whose
(1, -1) and (1, +1) halves are its spin blocks (``spin_blocks``).
This module is the only one that turns parameters into sector models, the
dot's deformation paths (``deformation_params``) included; ``spectral`` and
``topology`` take the models it builds.  The sector bases and each
operator's scatter pattern on a basis (its rows, columns and fermionic
signs) are cached in this module, so models that differ only in their
couplings, such as the points of a deformation path, enumerate a sector
once and apply each operator to it once.  A
twist sweep builds the matrices in stacks: one dense scatter fills the
matrices of many angles at once.  Each matrix of a stack is Fortran-ordered,
the layout LAPACK works in, so a factorization can take one (or a copy of
one) as it is.  A stack of one matrix (d > 128) lives on lazily zeroed
pages: its resident size is the pages its entries are written to, and
``tracemalloc`` does not see it.  A matrix too large to share a stack
(d > 128) is not built for a winding at all: the model hands ``spectral``
its entries at theta (``values``) and the band ordering of its
theta-independent pattern (``band_layout``, made at its first band factor
and kept).  A model also
lists, at first use, the relations U H(theta)^(*) U^-1 = s H(theta0 - theta)
that hold on its term list (``twist_relations``): the unitary mirror, site
reflection times spin flip, and the antiunitary conjugations by a diagonal
D of either sign.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache

import numpy as np

from . import fock, spectral
from .fock import (
    MAX_MODES,
    ModeLayout,
    SectorBasis,
    chain_layout,
    dot_layout,
    edge_b_constraints,
    enumerate_sector,
    spin_flip_ops,
)

# phase slots attached to each term; resolved per theta by phase_table()
P_ONE, P_PLUS, P_MINUS = range(3)
_SLOT_NAMES = ("P_ONE", "P_PLUS", "P_MINUS")


# sign of theta in the phase of each slot (P_ONE carries none)
_SLOT_SIGNS = np.array([0.0, 1.0, -1.0])


def phase_table(theta) -> np.ndarray:
    """Values of the phase slots: shape (3,) at one theta, (n, 3) at n."""
    return np.exp(1j * (np.asarray(theta, dtype=float)[..., None] * _SLOT_SIGNS))


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

def _require_finite(params, names):
    for name in names:
        value = getattr(params, name)
        if isinstance(value, bool) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number")


@dataclass(frozen=True)
class DotParams:
    """Two-orbital dot: hopping drive lam, imaginary on-site potentials eps,
    spin-exchange J and spin-pair V couplings."""

    lam: float = 1.0
    eps_a_up: float = 0.0
    eps_a_dn: float = 0.0
    eps_b_up: float = 0.0
    eps_b_dn: float = 0.0
    j: float = 0.0
    v: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("lam", "eps_a_up", "eps_a_dn", "eps_b_up", "eps_b_dn",
                               "j", "v"))

    def eps(self):
        return (self.eps_a_up, self.eps_a_dn, self.eps_b_up, self.eps_b_dn)


DEFORM_PATHS = ("pair-ramp", "hop-ramp")


def deformation_params(base: DotParams, path: str, s: float) -> DotParams:
    """Dot parameters at ``s`` in [0, 1] along one of ``DEFORM_PATHS``.

    * ``pair-ramp``: couplings J = V = s grow from 0 to 1 at fixed lam = 1.
    * ``hop-ramp``: lam = 1 - s shrinks to 0 with J = V = sqrt(lam).
    """
    if path == "pair-ramp":
        return replace(base, lam=1.0, j=s, v=s)
    if path == "hop-ramp":
        lam = 1.0 - s
        g = np.sqrt(lam)
        return replace(base, lam=lam, j=g, v=g)
    raise ValueError(f"unknown deformation path {path!r}")


@dataclass(frozen=True)
class ChainParams:
    """Extended ring chain: L sites, hop t, edge couplings J and V (see
    ``edge_amplitudes``); ``bc`` is twisted (theta = 0 is the periodic ring)
    or open."""

    length: int
    t: float = 1.0
    j: float = 0.0
    v: float = 0.0
    bc: str = "twisted"           # twisted | open

    def __post_init__(self):
        # 2L itinerant modes and four edge b modes in one bitset
        max_length = (MAX_MODES - 4) // 2
        if (isinstance(self.length, bool) or not isinstance(self.length, int)
                or not 2 <= self.length <= max_length):
            raise ValueError(
                f"length must be an integer in [2, {max_length}], got {self.length!r} "
                f"(layouts above {MAX_MODES} modes are not supported)")
        if self.bc not in ("twisted", "open"):
            raise ValueError(f"unknown bc {self.bc!r}")
        _require_finite(self, ("t", "j", "v"))


# ---------------------------------------------------------------------------
# term lists
# ---------------------------------------------------------------------------

def _number_term(mode: int, coeff: complex, slot: int):
    return (coeff, slot, ((mode, True), (mode, False)))


def _hop_term(dst: int, src: int, coeff: complex, slot: int):
    return (coeff, slot, ((dst, True), (src, False)))


def _edge_coupling_terms(layout: ModeLayout, site: int, exchange: complex, pair: complex):
    up, dn = True, False
    terms = []
    for coeff, a_raise, b_raise in (
        (exchange, up, dn), (exchange, dn, up),   # S+_a S-_b + S-_a S+_b
        (pair, up, up), (pair, dn, dn),           # S+_a S+_b + S-_a S-_b
    ):
        ops = (spin_flip_ops(layout, site, fock.ORBITAL_A, a_raise)
               + spin_flip_ops(layout, site, fock.ORBITAL_B, b_raise))
        terms.append((coeff, P_ONE, ops))
    return terms


def dot_terms(p: DotParams):
    lay = dot_layout()
    a_up, a_dn = lay.mode(0, "a", "up"), lay.mode(0, "a", "dn")
    b_up, b_dn = lay.mode(0, "b", "up"), lay.mode(0, "b", "dn")
    terms = [
        _number_term(a_up, p.lam, P_PLUS),
        _number_term(a_dn, p.lam, P_MINUS),
        _number_term(a_up, 1j * p.eps_a_up, P_ONE),
        _number_term(a_dn, 1j * p.eps_a_dn, P_ONE),
        _number_term(b_up, 1j * p.eps_b_up, P_ONE),
        _number_term(b_dn, 1j * p.eps_b_dn, P_ONE),
    ]
    terms += _edge_coupling_terms(lay, 0, 0.5j * p.j, 0.5j * p.v)
    return lay, terms


def edge_amplitudes(p: ChainParams):
    """(exchange, pair) = (J/2, iV): the chain's coefficients of
    (S+_a S-_b + S-_a S+_b) and (S+_a S+_b + S-_a S-_b) at each edge site."""
    return 0.5 * p.j, 1j * p.v


def chain_terms(p: ChainParams):
    lay = chain_layout(p.length)
    L = p.length
    terms = []
    for j in range(L - 1 if p.bc == "open" else L):
        up_slot, dn_slot = (P_PLUS, P_MINUS) if j == L - 1 else (P_ONE, P_ONE)
        jn = (j + 1) % L
        terms.append(_hop_term(lay.mode(jn, "a", "up"), lay.mode(j, "a", "up"),
                               p.t, up_slot))
        terms.append(_hop_term(lay.mode(j, "a", "dn"), lay.mode(jn, "a", "dn"),
                               p.t, dn_slot))
    exchange, pair = edge_amplitudes(p)
    for site in (0, L - 1):
        terms += _edge_coupling_terms(lay, site, exchange, pair)
    return lay, terms


# keyed by basis object and operator product; a chain sector has 2L + 8
# operators, and at d = 6864 the pattern of one takes at most 165 KB
@lru_cache(maxsize=512)
def _operator_pattern(basis: SectorBasis, ops):
    """(rows, cols, signs) of an operator product on a basis, read-only.

    Columns ascend; a product that leaves the sector raises KeyError.
    """
    cols, out, signs = fock.apply_ops_array(basis.states, ops)
    pattern = (basis.index_of(out), cols, signs)
    for array in pattern:
        array.flags.writeable = False
    return pattern


def terms_to_coo(terms, basis: SectorBasis):
    """Scatter pattern of a term list on a sector basis (theta-independent).

    Entries come term by term, each term's in ascending column order, so
    duplicate (row, col) pairs accumulate in a fixed order.
    """
    rows, cols, amps, slots = [], [], [], []
    for coeff, slot, ops in terms:
        if coeff == 0:
            continue
        term_rows, term_cols, signs = _operator_pattern(basis, ops)
        rows.append(term_rows)
        cols.append(term_cols)
        amps.append(signs * coeff)
        slots.append(np.full(len(signs), slot))

    def joined(parts, dtype):
        return np.concatenate([np.zeros(0, dtype=dtype), *parts], dtype=dtype)
    return (joined(rows, np.int64), joined(cols, np.int64), joined(amps, complex),
            joined(slots, np.int64))


# i^k for k = 0..3: products of these with a float complex are exact
_POWERS_OF_I = np.array([1, 1j, -1, -1j])

# each phase slot's partner under theta -> -theta
_SWAPPED_SLOTS = np.array([P_ONE, P_MINUS, P_PLUS])


def _conjugation_exponents(layout: ModeLayout, sign: int) -> list:
    """Exponent k_m of each mode's phase i^k_m in the diagonal D of the
    antiunitary relation of sign s (``SectorModel.twist_relations``).

    s = +1: i on each up mode, so D = i^N_up.  s = -1: on a chain,
    (-1)^site on each a mode, times i on a_up and -i on b_up; on the dot,
    whose exchange amplitude iJ/2 is imaginary where the chain's J/2 is
    real, the identity.
    """
    if sign > 0:
        return [int(spin == fock.UP) for _, _, spin in layout.labels]
    if layout == dot_layout():
        return [0] * layout.n_modes
    return [2 * site + (spin == fock.UP) if orbital == fock.ORBITAL_A
            else 3 * (spin == fock.UP) for site, orbital, spin in layout.labels]


class SectorModel:
    """Reusable theta -> dense matrix assembler for one model and sector,
    and the source of its matrices' band entries (``values``,
    ``band_layout``)."""

    def __init__(self, terms, basis: SectorBasis):
        self.basis = basis
        self._coo = terms_to_coo(terms, basis)

    @property
    def dim(self):
        return self.basis.dim

    def stack(self, thetas) -> np.ndarray:
        """H(theta_k) for each twist, as an (n, d, d) array of writable
        F-contiguous slices.

        A stack of one matrix too large to share it (d > 128) lives in a
        private anonymous mapping kept off huge pages: its pages stay the
        kernel's shared zero page until written, so its resident size is
        the pages the scatter writes (building the 754 MB H(theta) of
        d = 6864, J = V = 1, grows a process by 95 MB), and ``tracemalloc``
        does not see it.  numpy advises its own zeroed buffers of 4 MiB or
        more onto 2 MiB huge pages, and nearly every huge page of a sector
        matrix holds an entry.  Shared stacks (d <= 128) have nearly every
        page written and keep ``np.zeros``, whose memory the allocator
        reuses from stack to stack.
        """
        thetas = np.asarray(thetas, dtype=float)
        rows, cols, amps, slots = self._coo
        n, d = len(thetas), self.dim
        if n and spectral.stack_length(d) == 1 and hasattr(mmap, "MAP_PRIVATE"):
            buf = mmap.mmap(-1, 16 * n * d * d, flags=mmap.MAP_PRIVATE)
            if hasattr(mmap, "MADV_NOHUGEPAGE"):  # even where huge pages are always on
                buf.madvise(mmap.MADV_NOHUGEPAGE)
            out = np.frombuffer(buf, dtype=complex).reshape(n, d, d)
        else:
            out = np.zeros((n, d, d), dtype=complex)
        # slice k of the C-ordered buffer holds H(theta_k) transposed, so
        # entry (r, c) sits at flat index k*d*d + c*d + r and the returned
        # transpose has F-contiguous slices.  Duplicate (row, col) pairs
        # accumulate.
        np.add.at(out.reshape(-1),
                  (np.arange(n)[:, None] * (d * d) + (cols * d + rows)).reshape(-1),
                  (amps * phase_table(thetas)[:, slots]).reshape(-1))
        return out.transpose(0, 2, 1)

    def values(self, theta: float) -> np.ndarray:
        """The entries of H(theta) at the term list's (row, col) pairs, in
        ``stack``'s order: summed in that order, they give its matrix."""
        amps, slots = self._coo[2:]
        return amps * phase_table(theta)[slots]

    @cached_property
    def band_layout(self):
        """``spectral.band_layout`` of the term list's (row, col) pairs: the
        band ordering of every H(theta), made at the first band factor and
        kept, or None where the band would not be smaller than the matrix."""
        rows, cols = self._coo[:2]
        return spectral.band_layout(rows, cols, self.dim)

    @cached_property
    def _summed_terms(self):
        """(keys, rows, cols, slots, sums): the term list summed per (row,
        col) and phase slot, nonzero sums only, by ascending key (row * d +
        col) * 3 + slot.  Made at first use and kept."""
        rows, cols, amps, slots = self._coo
        d = self.dim
        keys, inverse = np.unique((rows * d + cols) * 3 + slots, return_inverse=True)
        sums = np.zeros(len(keys), dtype=complex)
        np.add.at(sums, inverse, amps)
        keys, sums = keys[sums != 0], sums[sums != 0]
        pairs, slots = np.divmod(keys, 3)
        rows, cols = np.divmod(pairs, d)
        return keys, rows, cols, slots, sums

    @cached_property
    def twist_relations(self) -> tuple:
        """(theta0, s, antiunitary) for each relation U H(theta)^(*) U^-1 =
        s H(theta0 - theta) that holds on this basis, theta0 in {0, pi}, in
        this order: the mirror (s = +1, unitary), U = R, site reflection
        times spin flip (``fock.mirror_modes``) as a signed permutation of
        the basis states; then the conjugations U = D conj of s = -1 and
        s = +1, D diagonal with a phase in {+-1, +-i} per occupied mode
        (``_conjugation_exponents``).  H^(*) is conj(H) where U is
        antiunitary.

        Checked on the term list, not assumed: summed per (row, col) and
        phase slot, the entries mapped by U - moved by its permutation,
        times its phases U_row conj(U_col), conjugated where U is
        antiunitary and with ``P_PLUS`` and ``P_MINUS`` swapped where it is
        unitary - must equal s times the entries, times -1 on ``P_PLUS`` and
        ``P_MINUS`` for theta0 = pi, exactly: every factor is +-1 or +-i.
        theta0 = 0 is tried first, so a model without twisted entries gets
        it.  The mirror is refused where R maps a state outside the basis:
        an odd-N chain sector goes to (N, -P), and a ``restrict``ed basis
        may not be closed.

        Where a relation holds, spec H(theta0 - theta) is s times spec
        H(theta), conjugated where U is antiunitary: the mirror keeps every
        E at the same distance from both, s = -1 an imaginary E and s = +1
        a real one.  Made at first use and kept.
        """
        d = self.dim
        keys, r, c, slot, sums = self._summed_terms
        at_pi = np.where(slot == P_ONE, 1, -1)  # each slot's phase at theta0 = pi
        relations = []
        for sign, antiunitary, perm, exponents in self._relation_candidates():
            mapped_keys = (perm[r] * d + perm[c]) * 3 + (slot if antiunitary
                                                         else _SWAPPED_SLOTS[slot])
            order = np.argsort(mapped_keys)
            if not np.array_equal(mapped_keys[order], keys):
                continue
            units = _POWERS_OF_I[(exponents[r] - exponents[c]) % 4]
            mapped = (units * (sums.conj() if antiunitary else sums))[order]
            for theta0, factor in ((0.0, 1), (np.pi, at_pi)):
                if np.array_equal(mapped, sign * factor * sums):
                    relations.append((theta0, sign, antiunitary))
                    break
        return tuple(relations)

    def _relation_candidates(self):
        """(s, antiunitary, permutation, exponents) of each candidate U of
        ``twist_relations``, in its order: U maps state k to i^exponents[k]
        times state permutation[k]."""
        basis = self.basis
        images, signs = fock.permute_modes_array(basis.states,
                                                 fock.mirror_modes(basis.layout))
        try:
            perm = basis.index_of(images)
        except KeyError:
            perm = None
        if perm is not None:
            yield 1, False, perm, np.where(signs < 0, 2, 0)
        modes = np.arange(basis.layout.n_modes, dtype=np.uint64)
        occupied = ((basis.states[:, None] >> modes) & np.uint64(1)).astype(np.int64)
        for sign in (-1, 1):  # each state's power of i in D
            yield sign, True, np.arange(self.dim), occupied @ np.array(
                _conjugation_exponents(basis.layout, sign), dtype=np.int64)

    def restrict(self, keep) -> "SectorModel":
        """The model on the basis states selected by the boolean mask ``keep``.

        Its entries are this model's, in the same order, with both indices
        kept, so every matrix it builds equals ``self(theta)[np.ix_(keep,
        keep)]`` bit for bit.  Its basis keeps the layout, N and parity.  It
        is a new model made from that basis and those entries alone, so no
        cached property of this one is carried into it.
        """
        keep = np.asarray(keep, dtype=bool)
        basis = self.basis
        position = np.cumsum(keep) - 1
        rows, cols, amps, slots = self._coo
        inside = keep[rows] & keep[cols]
        sub = SectorModel.__new__(SectorModel)
        sub.basis = SectorBasis(basis.layout, basis.n, basis.parity, basis.states[keep])
        sub._coo = (position[rows[inside]], position[cols[inside]], amps[inside],
                    slots[inside])
        return sub

    def spin_blocks(self) -> tuple:
        """(up, down) = (restrict(sz > 0), restrict(sz < 0)) of ``basis.sz``,
        split on the term list, not sampled.  An entry that couples the
        blocks, summed per (row, col) and phase slot so that entries which
        cancel exactly do not count, raises ``SpinSymmetryError`` naming its
        row and column states and its slot."""
        sz = self.basis.sz
        _, rows, cols, slots, sums = self._summed_terms
        mixed = np.flatnonzero(sz[rows] * sz[cols] < 0)
        if len(mixed):
            k = mixed[0]
            r, c = (int(self.basis.states[i]) for i in (rows[k], cols[k]))
            raise spectral.SpinSymmetryError(
                f"spin-parity constraint broken: [s^z, h] != 0 at row state {r:#b} "
                f"(sz {sz[rows[k]]:+d}), column state {c:#b} (sz {sz[cols[k]]:+d}), "
                f"slot {_SLOT_NAMES[slots[k]]}: entries sum to {sums[k]:.6g}")
        return self.restrict(sz > 0), self.restrict(sz < 0)

    def matrix(self, theta: float) -> np.ndarray:
        """H(theta) as an F-contiguous (d, d) array; above d = 128 its
        untouched pages are lazily zeroed, as ``stack`` says."""
        return self.stack([theta])[0]

    def __call__(self, theta: float) -> np.ndarray:
        return self.matrix(theta)


# ---------------------------------------------------------------------------
# sector bases and builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def dot_sector_basis(n: int, parity: int) -> SectorBasis:
    return enumerate_sector(dot_layout(), n, parity)


@lru_cache(maxsize=32)
def _chain_sector_cached(length: int, n: int, parity: int) -> SectorBasis:
    lay = chain_layout(length)
    return enumerate_sector(lay, n, parity, edge_b_constraints(lay, length))


def chain_sector_basis(p: ChainParams, n: int, parity: int) -> SectorBasis:
    basis = _chain_sector_cached(p.length, n, parity)
    if basis.dim == 0:
        raise ValueError(
            f"sector (N={n}, P={parity:+d}) is incompatible with singly "
            f"occupied edge b sites for L={p.length}")
    return basis


def dot_model(p: DotParams, n: int, parity: int) -> SectorModel:
    _, terms = dot_terms(p)
    return SectorModel(terms, dot_sector_basis(n, parity))


def chain_model(p: ChainParams, n: int, parity: int) -> SectorModel:
    _, terms = chain_terms(p)
    return SectorModel(terms, chain_sector_basis(p, n, parity))


# cached like the sector bases: _operator_pattern keys on the basis object,
# so a fresh basis per model would evict the many-body patterns
@lru_cache(maxsize=32)
def _one_body_basis(layout: ModeLayout, frozen=()) -> SectorBasis:
    """One fermion on each mode outside the ``frozen`` constraints, in mode
    order.  Its parity is None: the basis holds both spin parities."""
    fixed = 0
    for c in frozen:
        fixed |= c.mask
    return SectorBasis(layout, 1, None,
                       [1 << m for m in range(layout.n_modes) if not fixed >> m & 1])


def one_body_model(p) -> SectorModel:
    """The one-body matrix h(theta): the model on the one-fermion states
    ``1 << m`` of its itinerant modes, all four dot modes or the 2L chain a
    modes (the edge b modes are frozen), in mode order.  The four-operator
    edge couplings vanish there."""
    if isinstance(p, DotParams):
        lay, terms = dot_terms(p)
        return SectorModel(terms, _one_body_basis(lay))
    lay, terms = chain_terms(p)
    return SectorModel(terms, _one_body_basis(lay, edge_b_constraints(lay, p.length)))


def full_space_matrix(layout, terms, theta: float) -> np.ndarray:
    """Hamiltonian on the whole Fock space (no sector restriction).

    Exponentially large; intended for small-layout symmetry tests where the
    block structure in (N, P) is verified directly.
    """
    phases = phase_table(theta)
    dim = 1 << layout.n_modes
    h = np.zeros((dim, dim), dtype=complex)
    for coeff, slot, ops in terms:
        if coeff == 0:
            continue
        val = coeff * phases[slot]
        for s in range(dim):
            res = fock.apply_ops(s, ops)
            if res is None:
                continue
            out, sign = res
            h[out, s] += sign * val
    return h
