"""Closed-form eigenvalues and an analytic winding oracle.

These are independent cross-checks of the numerical engine: exact two- and
four-level spectra for the dot sectors, first-order degenerate-splitting
formulas for the chain quadruplets, and an exact winding classifier for
diagonal flows built from circles ``A e^{i theta} + B e^{-i theta} + c``.

The dot formulas scale the in-root sine term by the hopping amplitude,
``lam sin(theta)``, and so reproduce exact diagonalization at every lam.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .models import ChainParams, DotParams, edge_amplitudes

GEOM_EPS = 1e-12


def dot_shift_params(p: DotParams):
    """Mean and spin-asymmetry combinations of the imaginary potentials,
    for the parity +1 and parity -1 two-fermion sectors respectively."""
    delta0 = 0.5 * (p.eps_a_up + p.eps_b_up + p.eps_a_dn + p.eps_b_dn)
    delta3 = 0.5 * (p.eps_a_up + p.eps_b_up - p.eps_a_dn - p.eps_b_dn)
    delta0p = 0.5 * (p.eps_a_up + p.eps_b_dn + p.eps_a_dn + p.eps_b_up)
    delta3p = 0.5 * (p.eps_a_up + p.eps_b_dn - (p.eps_a_dn + p.eps_b_up))
    return delta0, delta3, delta0p, delta3p


def dot_sector21_eigenvalues(p: DotParams, theta: float):
    """Exact eigenvalue pair of the (N, P) = (2, +1) dot sector."""
    delta0, delta3, _, _ = dot_shift_params(p)
    s = p.lam * math.sin(theta)
    root = math.sqrt((s + delta3) ** 2 + (0.5 * p.v) ** 2)
    base = p.lam * math.cos(theta) + 1j * delta0
    return base + 1j * root, base - 1j * root


def dot_sector2m1_eigenvalues(p: DotParams, theta: float):
    """Exact four eigenvalues of the (N, P) = (2, -1) dot sector."""
    _, _, delta0p, delta3p = dot_shift_params(p)
    s = p.lam * math.sin(theta)
    root = math.sqrt((s + delta3p) ** 2 + (0.5 * p.j) ** 2)
    base = p.lam * math.cos(theta) + 1j * delta0p
    e_pair = 2.0 * p.lam * math.cos(theta) + 1j * (p.eps_a_up + p.eps_a_dn)
    e_loc = 1j * (p.eps_b_up + p.eps_b_dn)
    return base + 1j * root, base - 1j * root, e_pair, e_loc


def chain_splitting_coefficients(p: ChainParams, n: int):
    """Hopping-mode phase and the two squared splitting amplitudes of the
    first-order quadruplet treatment; both are complex through the mode
    phase in the prefactor.

    With x and y the model's edge amplitudes (``models.edge_amplitudes``),
    c^2 = [(x^2 + y^2) +- sqrt(x^4 + y^4 + 2 x^2 y^2 Re om^4)] / (t om L)^2.
    """
    L, t = p.length, p.t
    x2, y2 = (a * a for a in edge_amplitudes(p))
    om = np.exp(2j * np.pi * n / L)
    inner = cmath.sqrt(x2**2 + y2**2 + 2.0 * x2 * y2 * (om**4).real)
    pref = 1.0 / (t * om * L) ** 2
    return om, pref * ((x2 + y2) + inner), pref * ((x2 + y2) - inner)


def chain_first_order_eigenvalues(p: ChainParams, n: int, theta: float):
    """First-order quadruplet splitting of the chain at hopping mode n.

    Valid for small couplings; both square-root branches are emitted so no
    solution is dropped by the principal-branch choice.  These formulas
    diagonalize the degenerate first-order block of the edge coupling in the
    model's own amplitudes (``models.edge_amplitudes``).  They spread the
    twist as theta / L over every link, a gauge transformation of the
    models' boundary-link twist with the same eigenvalues.
    """
    L, t = p.length, p.t
    om, c2_p, c2_m = chain_splitting_coefficients(p, n)
    x = theta / L
    base = t * om
    out = []
    for c2 in (c2_p, c2_m):
        root = np.sqrt(c2 - math.sin(x) ** 2 + 0j)
        out.append(base * (math.cos(x) + root))
        out.append(base * (math.cos(x) - root))
    return tuple(out)


def chain_first_order_spectrum(p: ChainParams, theta: float) -> np.ndarray:
    """All 4L first-order eigenvalues (every hopping mode's quadruplet)."""
    vals = []
    for n in range(p.length):
        vals.extend(chain_first_order_eigenvalues(p, n, theta))
    return np.array(vals)


def eigenvalue_match(a, b):
    """(max, mean) pairing distance between two spectra under the optimal
    assignment; neither side carries a canonical ordering."""
    from scipy.optimize import linear_sum_assignment

    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError("spectra must have equal size for matching")
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    d = cost[rows, cols]
    return float(d.max()), float(d.mean())


# ---------------------------------------------------------------------------
# analytic winding of diagonal flows
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CircleFlow:
    """Scalar flow z(theta) = plus e^{i theta} + minus e^{-i theta} + const."""

    plus: complex = 0.0
    minus: complex = 0.0
    const: complex = 0.0

    def __call__(self, theta):
        return (self.plus * np.exp(1j * theta)
                + self.minus * np.exp(-1j * theta) + self.const)


class FlowThroughReferenceError(ValueError):
    """A diagonal entry passes through the reference energy."""


def circle_flow_winding(flow: CircleFlow, ref: complex = 0.0) -> int:
    """Exact winding of one circle/ellipse flow about the reference point.

    The curve is an ellipse with semi-axes |A|+|B| and ||A|-|B|| rotated by
    (arg A + arg B)/2, traversed counterclockwise when |A| > |B|; constants
    never wind and the degenerate |A| = |B| case collapses to a segment.
    """
    a, b = abs(flow.plus), abs(flow.minus)
    d = flow.const - ref
    if a < GEOM_EPS and b < GEOM_EPS:
        if abs(d) < GEOM_EPS:
            raise FlowThroughReferenceError(
                f"constant entry {flow.const} equals the reference {ref}")
        return 0
    psi = 0.5 * (np.angle(flow.plus) if a >= GEOM_EPS else 0.0) \
        + 0.5 * (np.angle(flow.minus) if b >= GEOM_EPS else 0.0)
    w = -d * np.exp(-1j * psi)
    if abs(a - b) < GEOM_EPS:
        # segment of length 4a along the rotated real axis
        if abs(w.imag) < GEOM_EPS and abs(w.real) <= a + b + GEOM_EPS:
            raise FlowThroughReferenceError(
                f"flow {flow} passes through the reference {ref}")
        return 0
    u = w.real / (a + b)
    v = w.imag / (a - b)
    r2 = u * u + v * v
    if abs(r2 - 1.0) < GEOM_EPS:
        raise FlowThroughReferenceError(
            f"flow {flow} passes through the reference {ref}")
    if r2 > 1.0:
        return 0
    return 1 if a > b else -1


def diagonal_flow_winding(entries, ref: complex = 0.0) -> int:
    """Winding of a product of scalar flows = sum of per-entry windings."""
    return sum(circle_flow_winding(e, ref) for e in entries)


def dot_sector_diagonal_flows(p: DotParams, basis):
    """Noninteracting diagonal flows of a dot sector, one per Fock state.

    Each occupied mode contributes its one-body entry, so the state's flow is
    ``lam e^{i theta}`` (a up), ``lam e^{-i theta}`` (a down) and constant
    imaginary potentials stacked together.
    """
    layout = basis.layout
    m_au = layout.mode(0, "a", "up")
    m_ad = layout.mode(0, "a", "dn")
    eps = {m: e for m, e in zip(range(4), p.eps())}
    flows = []
    for s in basis.states:
        s = int(s)
        plus = p.lam if (s >> m_au) & 1 else 0.0
        minus = p.lam if (s >> m_ad) & 1 else 0.0
        const = 1j * sum(eps[m] for m in range(4) if (s >> m) & 1)
        flows.append(CircleFlow(plus, minus, const))
    return flows
