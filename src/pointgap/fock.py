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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

MAX_MODES = 64

# Largest C(n_modes, N) that enumerate_sector accepts.  Its temporaries are
# the picked modes, one byte per fermion per candidate (N <= 64, so at most
# 64 MiB), and a few 8-byte masks per candidate (8 MiB each).  The heaviest
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

    def sz_signs(self, modes=None) -> np.ndarray:
        """Diagonal of s^z restricted to the given modes (+1 up, -1 down)."""
        if modes is None:
            modes = range(self.n_modes)
        return np.array([1 if (self.up_mask >> m) & 1 else -1 for m in modes])


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
    """Ordered basis of all Fock states with fixed (N, P) quantum numbers."""

    def __init__(self, layout: ModeLayout, n: int, parity: int, states):
        self.layout = layout
        self.n = n
        self.parity = parity
        self.states = np.asarray(states, dtype=np.uint64)
        self._pos = {int(s): i for i, s in enumerate(self.states)}

    @property
    def dim(self) -> int:
        return len(self.states)

    def index_of(self, state: int) -> int:
        return self._pos[int(state)]

    def __repr__(self):
        return f"SectorBasis(N={self.n}, P={self.parity:+d}, dim={self.dim})"


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
    picks = np.fromiter(chain.from_iterable(combinations(range(layout.n_modes), n)),
                        dtype=np.uint8, count=count * n).reshape(count, n)
    occ = np.zeros(count, dtype=np.uint64)
    for column in picks.T:
        occ |= np.uint64(1) << column.astype(np.uint64)
    keep = (np.bitwise_count(occ & np.uint64(layout.up_mask)) & 1) == (parity == -1)
    for c in constraints:
        keep &= np.bitwise_count(occ & np.uint64(c.mask)) == c.count
    return SectorBasis(layout, n, parity, np.sort(occ[keep]))


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


def spin_flip_ops(layout: ModeLayout, site: int, orbital: str, raise_spin: bool):
    """Elementary-operator factorization of S^+ (or S^-) at one site/orbital."""
    m_up = layout.mode(site, orbital, UP)
    m_dn = layout.mode(site, orbital, DOWN)
    if raise_spin:  # S+ = c†_up c_dn
        return ((m_up, True), (m_dn, False))
    return ((m_dn, True), (m_up, False))  # S- = c†_dn c_up
