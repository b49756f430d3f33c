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

The twist enters either on the single boundary link (``gauge="boundary"``,
entries exactly periodic in theta) or spread as ``e^{+-i theta/L}`` over every
link (``gauge="distributed"``); the two are related by a gauge transformation
and share their spectrum.

Matrices are assembled from a precomputed sparse term list, and a twist sweep
builds them in stacks: one dense scatter fills the matrices of many angles at
once.  Each matrix of a stack is Fortran-ordered, the layout LAPACK works in,
so a factorization can take one (or a copy of one) as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import fock
from .fock import (
    ModeLayout,
    SectorBasis,
    chain_layout,
    dot_layout,
    edge_b_constraints,
    enumerate_sector,
    spin_flip_ops,
)

# phase slots attached to each term; resolved per theta by phase_table()
P_ONE, P_PLUS, P_MINUS, P_PLUS_L, P_MINUS_L = range(5)


# sign of theta in the phase of each slot (P_ONE carries none)
_SLOT_SIGNS = np.array([0.0, 1.0, -1.0, 1.0, -1.0])


def phase_table(theta, length: int = 1) -> np.ndarray:
    """Values of the phase slots: shape (5,) at one theta, (n, 5) at n."""
    theta = np.asarray(theta, dtype=float)[..., None]
    angles = theta * _SLOT_SIGNS
    # the theta / L slots divide in real arithmetic: numpy divides a complex
    # array by multiplying with 1 / length, which rounds differently
    angles[..., P_PLUS_L:] = (theta / length) * _SLOT_SIGNS[P_PLUS_L:]
    return np.exp(1j * angles)


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

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
        for name in ("lam", "eps_a_up", "eps_a_dn", "eps_b_up", "eps_b_dn", "j", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def eps(self):
        return (self.eps_a_up, self.eps_a_dn, self.eps_b_up, self.eps_b_dn)


# Coefficients (exchange, pair) multiplying (S+_a S-_b + S-_a S+_b) and
# (S+_a S+_b + S-_a S-_b) at the chain edges.  The three bookkeeping variants
# reflect an ambiguity in how the edge coupling is normalized; "exchange-half"
# is the default, "exchange-imag" is the variant the first-order splitting
# formulas of the oracle module diagonalize (see oracles.chain_first_order).
EDGE_CONVENTIONS = {
    "exchange-half": lambda j, v: (0.5 * j + 0j, 1j * v),
    "exchange-full": lambda j, v: (j + 0j, 1j * v),
    "exchange-imag": lambda j, v: (1j * j, v + 0j),
}


@dataclass(frozen=True)
class ChainParams:
    """Extended ring chain: L sites, hop t, edge couplings J and V."""

    length: int
    t: float = 1.0
    j: float = 0.0
    v: float = 0.0
    bc: str = "twisted"           # twisted | periodic | open
    gauge: str = "boundary"       # boundary | distributed
    edge_convention: str = "exchange-half"

    def __post_init__(self):
        if self.length < 2:
            raise ValueError("length must be >= 2")
        if self.bc not in ("twisted", "periodic", "open"):
            raise ValueError(f"unknown bc {self.bc!r}")
        if self.gauge not in ("boundary", "distributed"):
            raise ValueError(f"unknown gauge {self.gauge!r}")
        if self.edge_convention not in EDGE_CONVENTIONS:
            raise ValueError(f"unknown edge_convention {self.edge_convention!r}")
        for name in ("t", "j", "v"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ManyBodyMatrix:
    """Dense Hamiltonian restricted to one (N, P) sector at a fixed twist."""

    sector: tuple
    dim: int
    entries: np.ndarray
    theta: float


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


def chain_terms(p: ChainParams):
    lay = chain_layout(p.length)
    L = p.length
    if p.gauge == "distributed" and p.bc != "open":
        slot_up, slot_dn = P_PLUS_L, P_MINUS_L
    else:
        slot_up, slot_dn = P_ONE, P_ONE
    terms = []
    for j in range(L):
        boundary = j == L - 1
        if boundary and p.bc == "open":
            continue
        up_slot, dn_slot = slot_up, slot_dn
        if boundary and p.gauge == "boundary" and p.bc == "twisted":
            up_slot, dn_slot = P_PLUS, P_MINUS
        jn = (j + 1) % L
        terms.append(_hop_term(lay.mode(jn, "a", "up"), lay.mode(j, "a", "up"),
                               p.t, up_slot))
        terms.append(_hop_term(lay.mode(j, "a", "dn"), lay.mode(jn, "a", "dn"),
                               p.t, dn_slot))
    exchange, pair = EDGE_CONVENTIONS[p.edge_convention](p.j, p.v)
    for site in (0, L - 1):
        terms += _edge_coupling_terms(lay, site, exchange, pair)
    return lay, terms


def terms_to_coo(terms, basis: SectorBasis):
    """Scatter pattern of a term list on a sector basis (theta-independent)."""
    rows, cols, amps, slots = [], [], [], []
    for coeff, slot, ops in terms:
        if coeff == 0:
            continue
        for col, s in enumerate(basis.states):
            res = fock.apply_ops(int(s), ops)
            if res is None:
                continue
            out, sign = res
            rows.append(basis.index_of(out))
            cols.append(col)
            amps.append(sign * coeff)
            slots.append(slot)
    return (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64),
            np.asarray(amps, dtype=complex), np.asarray(slots, dtype=np.int64))


class SectorModel:
    """Reusable theta -> dense matrix assembler for one model and sector."""

    def __init__(self, layout, terms, basis: SectorBasis, length: int = 1,
                 freeze_theta: float | None = None):
        self.layout = layout
        self.basis = basis
        self.length = length
        self.freeze_theta = freeze_theta
        self._coo = terms_to_coo(terms, basis)

    @property
    def dim(self):
        return self.basis.dim

    def stack(self, thetas) -> np.ndarray:
        """H(theta_k) for each twist, as an (n, d, d) array of F-contiguous slices."""
        thetas = np.asarray(thetas, dtype=float)
        if self.freeze_theta is not None:
            thetas = np.full_like(thetas, self.freeze_theta)
        rows, cols, amps, slots = self._coo
        n, d = len(thetas), self.dim
        out = np.zeros((n, d, d), dtype=complex)
        # slice k of the C-ordered buffer holds H(theta_k) transposed, so
        # entry (r, c) sits at flat index k*d*d + c*d + r and the returned
        # transpose has F-contiguous slices.  Duplicate (row, col) pairs
        # accumulate.
        np.add.at(out.reshape(-1),
                  (np.arange(n)[:, None] * (d * d) + (cols * d + rows)).reshape(-1),
                  (amps * phase_table(thetas, self.length)[:, slots]).reshape(-1))
        return out.transpose(0, 2, 1)

    def matrix(self, theta: float) -> ManyBodyMatrix:
        return ManyBodyMatrix(self.basis.sector, self.dim, self.stack([theta])[0], theta)

    def __call__(self, theta: float) -> np.ndarray:
        return self.matrix(theta).entries


# ---------------------------------------------------------------------------
# sector bases and builders
# ---------------------------------------------------------------------------

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
    lay, terms = dot_terms(p)
    return SectorModel(lay, terms, dot_sector_basis(n, parity))


def chain_model(p: ChainParams, n: int, parity: int) -> SectorModel:
    lay, terms = chain_terms(p)
    freeze = 0.0 if p.bc == "periodic" else None
    return SectorModel(lay, terms, chain_sector_basis(p, n, parity),
                       length=p.length, freeze_theta=freeze)


def build_dot_one_body(p: DotParams, theta: float) -> np.ndarray:
    """4x4 diagonal one-body matrix h(theta) in mode order (a_up, a_dn, b_up, b_dn)."""
    return np.diag([
        p.lam * np.exp(1j * theta) + 1j * p.eps_a_up,
        p.lam * np.exp(-1j * theta) + 1j * p.eps_a_dn,
        1j * p.eps_b_up,
        1j * p.eps_b_dn,
    ])


def build_chain_one_body(p: ChainParams, theta: float) -> np.ndarray:
    """2L x 2L one-body matrix over the itinerant a modes.

    Up spins hop rightward, down spins leftward; under the open boundary
    condition both blocks are nilpotent.
    """
    if p.bc == "periodic":
        theta = 0.0
    L = p.length
    lay = chain_layout(L)
    h = np.zeros((2 * L, 2 * L), dtype=complex)
    if p.gauge == "distributed" and p.bc != "open":
        up_amp, dn_amp = p.t * np.exp(1j * theta / L), p.t * np.exp(-1j * theta / L)
        for j in range(L):
            jn = (j + 1) % L
            h[lay.mode(jn, "a", "up"), lay.mode(j, "a", "up")] = up_amp
            h[lay.mode(j, "a", "dn"), lay.mode(jn, "a", "dn")] = dn_amp
        return h
    for j in range(L - 1):
        h[lay.mode(j + 1, "a", "up"), lay.mode(j, "a", "up")] = p.t
        h[lay.mode(j, "a", "dn"), lay.mode(j + 1, "a", "dn")] = p.t
    if p.bc != "open":
        h[lay.mode(0, "a", "up"), lay.mode(L - 1, "a", "up")] = p.t * np.exp(1j * theta)
        h[lay.mode(L - 1, "a", "dn"), lay.mode(0, "a", "dn")] = p.t * np.exp(-1j * theta)
    return h


def build_dot_many_body(p: DotParams, theta: float, sector) -> ManyBodyMatrix:
    """Dot Hamiltonian restricted to sector (N, P) at the given twist."""
    basis = sector if isinstance(sector, SectorBasis) else dot_sector_basis(*sector)
    lay, terms = dot_terms(p)
    return SectorModel(lay, terms, basis).matrix(theta)


def build_chain_many_body(p: ChainParams, theta: float, sector) -> ManyBodyMatrix:
    """Chain Hamiltonian restricted to sector (N, P) at the given twist."""
    if not isinstance(sector, SectorBasis):
        return chain_model(p, *sector).matrix(theta)
    lay, terms = chain_terms(p)
    model = SectorModel(lay, terms, sector, length=p.length,
                        freeze_theta=0.0 if p.bc == "periodic" else None)
    return model.matrix(theta)


def full_space_matrix(layout, terms, theta: float, length: int = 1) -> np.ndarray:
    """Hamiltonian on the whole Fock space (no sector restriction).

    Exponentially large; intended for small-layout symmetry tests where the
    block structure in (N, P) is verified directly.
    """
    phases = phase_table(theta, length)
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


def one_body_sz(model_params) -> np.ndarray:
    """Diagonal of s^z matching the one-body matrix of the given params."""
    if isinstance(model_params, DotParams):
        return dot_layout().sz_signs()
    lay = chain_layout(model_params.length)
    return lay.sz_signs(range(2 * model_params.length))
