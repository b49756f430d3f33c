"""Occupation-number basis with exact fermionic sign bookkeeping.

States are plain integers whose bit ``m`` holds the occupation of
single-particle mode ``m``.  The frozen sign convention counts occupied modes
*strictly below* the acted index, so creating into mode ``m`` on state ``s``
carries ``(-1)**popcount(s & ((1 << m) - 1))``.

Mode layouts
------------
* dot (one site, two orbitals): modes ``(a_up, a_dn, b_up, b_dn) = (0, 1, 2, 3)``.
* chain of ``L`` sites: itinerant a-orbital modes interleaved as
  ``(j, a, up) = 2j`` and ``(j, a, dn) = 2j + 1``; the four localized
  b-orbital modes appended afterwards, ``(0, b, up) = 2L``, ``(0, b, dn) = 2L+1``,
  ``(L-1, b, up) = 2L+2``, ``(L-1, b, dn) = 2L+3``.

Symmetry sectors are labeled by total fermion number ``N`` and spin parity
``P = (-1)**N_up``.  A sector is enumerated from the ``C(n_modes, N)`` ways
to place ``N`` fermions on the modes, filtered by spin parity and by any
occupation constraints; its cost grows with that count, not with
``2**n_modes``.  Basis order is ascending bitset value so every downstream
matrix is reproducible bit-for-bit.

``apply_ops`` acts with an operator product on one state.  ``apply_ops_array``
is its array form: it acts on every state of a basis at once, with the same
blocking rules and signs, and is what sector matrices are built from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MAX_MODES = 64

# Largest C(n_modes, N) that enumerate_sector accepts.  Its temporaries are
# a few 8-byte bitsets per candidate (8 MiB each at the limit).  The heaviest
# preset sector, (9, -1) on the 18 modes of L = 7, has 48,620 candidates.
MAX_CANDIDATES = 1 << 20

UP, DOWN = "up", "dn"
ORBITAL_A, ORBITAL_B = "a", "b"


def sign_below(state: int, mode: int) -> int:
    """(-1)**(number of occupied modes with index < mode)."""
    return -1 if ((state & ((1 << mode) - 1)).bit_count() & 1) else 1


def apply_create(state: int, mode: int):
    """Apply c†_mode; returns (new_state, sign) or None if Pauli-blocked."""
    if (state >> mode) & 1:
        return None
    return state | (1 << mode), sign_below(state, mode)


def apply_annihilate(state: int, mode: int):
    """Apply c_mode; returns (new_state, sign) or None if the mode is empty."""
    if not (state >> mode) & 1:
        return None
    return state & ~(1 << mode), sign_below(state, mode)


@dataclass(frozen=True)
class ModeLayout:
    """Static description of the single-particle modes of a model."""

    n_modes: int
    up_mask: int
    labels: tuple  # per-mode (site, orbital, spin)
    index: dict = field(repr=False, hash=False, compare=False, default=None)

    def __post_init__(self):
        if self.n_modes > MAX_MODES:
            raise ValueError(f"layouts above {MAX_MODES} modes are not supported")
        object.__setattr__(
            self, "index", {lbl: m for m, lbl in enumerate(self.labels)}
        )

    def mode(self, site: int, orbital: str, spin: str) -> int:
        return self.index[(site, orbital, spin)]

    def spin_parity(self, state: int) -> int:
        return -1 if ((state & self.up_mask).bit_count() & 1) else 1


def dot_layout() -> ModeLayout:
    labels = ((0, ORBITAL_A, UP), (0, ORBITAL_A, DOWN),
              (0, ORBITAL_B, UP), (0, ORBITAL_B, DOWN))
    return ModeLayout(n_modes=4, up_mask=0b0101, labels=labels)


def chain_layout(length: int) -> ModeLayout:
    if length < 2:
        raise ValueError("chain needs at least 2 sites")
    labels = []
    for j in range(length):
        labels.append((j, ORBITAL_A, UP))
        labels.append((j, ORBITAL_A, DOWN))
    labels += [(0, ORBITAL_B, UP), (0, ORBITAL_B, DOWN),
               (length - 1, ORBITAL_B, UP), (length - 1, ORBITAL_B, DOWN)]
    n = 2 * length + 4
    up_mask = sum(1 << m for m, lbl in enumerate(labels) if lbl[2] == UP)
    return ModeLayout(n_modes=n, up_mask=up_mask, labels=tuple(labels))


@dataclass(frozen=True)
class Constraint:
    """popcount(state & mask) == count, enforced at enumeration time."""

    mask: int
    count: int


def edge_b_constraints(layout: ModeLayout, length: int):
    """One fermion on each edge b site (their occupation is conserved)."""
    b0 = (1 << layout.mode(0, ORBITAL_B, UP)) | (1 << layout.mode(0, ORBITAL_B, DOWN))
    bL = (1 << layout.mode(length - 1, ORBITAL_B, UP)) | (
        1 << layout.mode(length - 1, ORBITAL_B, DOWN))
    return (Constraint(b0, 1), Constraint(bL, 1))


class SectorBasis:
    """Ordered basis of Fock states with fixed (N, P) quantum numbers; a
    ``parity`` of None holds states of both spin parities."""

    def __init__(self, layout: ModeLayout, n: int, parity: int, states):
        self.layout = layout
        self.n = n
        self.parity = parity
        # ascending; bases are cached and shared, so the array is read-only
        self.states = np.array(states, dtype=np.uint64)
        self.states.flags.writeable = False

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def sz(self) -> np.ndarray:
        """n_up - n_down of each state: the +-1 diagonal of s^z on one fermion."""
        n_up = np.bitwise_count(self.states & np.uint64(self.layout.up_mask))
        return 2 * n_up.astype(np.int64) - self.n

    def index_of(self, state):
        """Position of a state, or an array of positions for an array of
        states; KeyError for any state outside the sector."""
        states = np.asarray(state, dtype=np.uint64)
        pos = np.searchsorted(self.states, states)
        if not (np.all(pos < self.dim) and np.array_equal(self.states[pos], states)):
            raise KeyError(f"state outside sector {self!r}")
        return int(pos) if pos.ndim == 0 else pos

    def __repr__(self):
        parity = "both" if self.parity is None else f"{self.parity:+d}"
        return f"SectorBasis(N={self.n}, P={parity}, dim={self.dim})"


def enumerate_sector(layout: ModeLayout, n: int, parity: int, constraints=()) -> SectorBasis:
    """All states with the exact (N, P) satisfying the constraints, ascending.

    Raises ValueError, before allocating anything, when the sector has more
    than ``MAX_CANDIDATES`` ways to place its fermions.
    """
    if not 0 <= n <= layout.n_modes:
        raise ValueError(f"fermion number {n} outside [0, {layout.n_modes}]")
    if parity not in (1, -1):
        raise ValueError("parity must be +1 or -1")
    count = math.comb(layout.n_modes, n)
    if count > MAX_CANDIDATES:
        raise ValueError(
            f"sector N={n} on {layout.n_modes} modes has {count} candidate "
            f"states, above the enumeration limit of {MAX_CANDIDATES}")
    occ = _placements(layout.n_modes, n)
    keep = (np.bitwise_count(occ & np.uint64(layout.up_mask)) & 1) == (parity == -1)
    for c in constraints:
        keep &= np.bitwise_count(occ & np.uint64(c.mask)) == c.count
    return SectorBasis(layout, n, parity, occ[keep])


def _placements(n_modes: int, n: int) -> np.ndarray:
    """Every bitset of ``n`` fermions on ``n_modes`` modes, ascending.

    Built mode by mode with Pascal's rule: the k-fermion sets on modes
    0..m are those on 0..m-1 followed by the (k-1)-fermion ones with mode m
    added, which are all larger.  Only the counts that can still end at ``n``
    are kept, at most min(n, n_modes - n) + 1 of them, so a sector and its
    particle-hole mirror cost the same.
    """
    empty = np.zeros(0, dtype=np.uint64)
    by_count = {0: np.zeros(1, dtype=np.uint64)}
    for m in range(n_modes):
        bit = np.uint64(1 << m)
        reachable = range(max(0, n - (n_modes - m - 1)), min(n, m + 1) + 1)
        by_count = {k: np.concatenate((by_count.get(k, empty),
                                       by_count.get(k - 1, empty) | bit))
                    for k in reachable}
    return by_count[n]


def apply_ops(state: int, ops):
    """Apply a product of elementary operators, rightmost first.

    ``ops`` is a sequence of (mode, is_creation) read left to right in operator
    order, e.g. c†_i c_j is ((i, True), (j, False)).  Returns (state, sign) or
    None when any factor annihilates the amplitude.
    """
    sign = 1
    for mode, create in reversed(ops):
        res = apply_create(state, mode) if create else apply_annihilate(state, mode)
        if res is None:
            return None
        state, s = res
        sign *= s
    return state, sign


def apply_ops_array(states: np.ndarray, ops):
    """``apply_ops`` on every state of an array at once.

    Returns ``(index, out, sign)``: the ascending positions in ``states`` of
    the states the product does not annihilate, the states it maps them to,
    and the fermionic signs as +-1.0.
    """
    index = np.arange(len(states))
    out = np.asarray(states, dtype=np.uint64)
    odd = np.zeros(len(out), dtype=np.uint8)
    for mode, create in reversed(ops):
        bit = np.uint64(1 << mode)
        occupied = (out & bit) != 0
        alive = ~occupied if create else occupied
        index, out, odd = index[alive], out[alive], odd[alive]
        odd ^= np.bitwise_count(out & (bit - np.uint64(1))) & np.uint8(1)
        out = out ^ bit
    return index, out, 1.0 - 2.0 * odd


def mirror_modes(layout: ModeLayout) -> list:
    """Image of each mode under site reflection j -> L-1-j times spin flip;
    the dot's one site maps to itself."""
    last = max(site for site, _, _ in layout.labels)
    flip = {UP: DOWN, DOWN: UP}
    return [layout.mode(last - site, orbital, flip[spin])
            for site, orbital, spin in layout.labels]


def permute_modes_array(states: np.ndarray, image):
    """The states with each mode m moved to mode ``image[m]``, and the
    fermionic signs as +-1.0: the parity of the pairs of occupied modes whose
    images come in the opposite order (a state's creators stand in ascending
    mode order, as ``sign_below`` counts them)."""
    states = np.asarray(states, dtype=np.uint64)
    out = np.zeros_like(states)
    odd = np.zeros(len(states), dtype=np.uint8)
    for m, target in enumerate(image):
        occupied = (states >> np.uint64(m)) & np.uint64(1)
        # occupied modes below m whose images lie above m's
        crossed = np.uint64(sum(1 << k for k in range(m) if image[k] > target))
        odd ^= (occupied & np.bitwise_count(states & crossed)).astype(np.uint8) & 1
        out |= occupied << np.uint64(target)
    return out, 1.0 - 2.0 * odd


def spin_flip_ops(layout: ModeLayout, site: int, orbital: str, raise_spin: bool):
    """Elementary-operator factorization of S^+ (or S^-) at one site/orbital."""
    m_up = layout.mode(site, orbital, UP)
    m_dn = layout.mode(site, orbital, DOWN)
    if raise_spin:  # S+ = c†_up c_dn
        return ((m_up, True), (m_dn, False))
    return ((m_dn, True), (m_up, False))  # S- = c†_dn c_up
