"""Point-gap winding numbers: one-body, spin-resolved, and many-body.

All three invariants are computed the same way: the principal phase of
``det[M(theta) - ref]`` is sampled on a twist grid and unwrapped with adaptive
bisection, inserting midpoints wherever a phase step exceeds pi/2 (the bound
under which unwrapping is unambiguous).  The accumulated phase over one twist
period divided by 2 pi is the winding.

Every result carries its gap margin - the smallest distance between the
spectrum on the base grid and the reference energy - so a trivial winding can
be told apart from a barely resolved one.  A closed gap is a physical
obstruction, not a numerical failure, and raises ``GapClosedError``.

The margin needs no eigensolve at most grid points: sigma_min(M - E) never
exceeds dist(E, spec M) (the 2-norm pseudospectrum inclusion; Trefethen &
Embree, *Spectra and Pseudospectra*, 2005), so a values-only SVD at every
point rules out all but the few where the minimum can lie.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg.lapack import zgesdd

from .spectral import (
    SpectralError,
    SpectrumHitError,
    blas_threads_for,
    factor_shifted,
    factor_stack,
    phase_from_factors,
    shifted_copy,
    sigma_min_from_factors,
    stack_phases,
    theta_grid,
    twist_stacks,
    wrap_phase,
)

DEFAULT_N_GRID = 256
PHASE_STEP_BOUND = np.pi / 2
MAX_REFINE_DEPTH = 12
INTEGER_TOL = 1e-6
SPIN_COMMUTATOR_TOL = 1e-12

# above this sector dimension the gap margin falls back from exact eigenvalue
# distances to an inverse-iteration smallest-singular-value estimate sharing
# the phase LU, keeping large sweeps at one LU per twist point; the estimate
# approaches sigma_min from above, so such a margin is an estimate, not a bound
EIG_MARGIN_MAX_DIM = 2048

# allowance, in units of d * eps * |M|_2, for the backward errors of the SVD
# and of the eigensolver when a sigma_min(M - E) bound rules out a grid point
MARGIN_SLACK = 10.0


class GapClosedError(SpectralError):
    """The reference energy touches the spectrum somewhere on the twist path."""

    def __init__(self, theta, e_ref, detail=""):
        self.theta = theta
        self.e_ref = e_ref
        super().__init__(
            f"point gap closed at theta={theta:.6f} for reference {e_ref}{detail}")


class WindingUnresolvedError(SpectralError):
    """Phase steps stayed above the unwrapping bound at maximum refinement."""

    def __init__(self, lo, hi, step=None):
        self.interval = (lo, hi)
        self.step = step
        super().__init__(
            f"winding unresolvable: phase step exceeds pi/2 on "
            f"theta in [{lo:.6f}, {hi:.6f}] at maximum refinement depth")

    @property
    def looks_like_crossing(self) -> bool:
        """A persistent ~pi jump is a determinant sign flip: an eigenvalue
        crossing the reference energy, not a resolution problem."""
        return self.step is not None and abs(self.step) > np.pi - 0.01


class SpinSymmetryError(SpectralError):
    """spin-parity constraint broken: [s^z, h(theta)] != 0."""


@dataclass
class WindingResult:
    """Integer winding with phase-tracking diagnostics."""

    value: int
    raw_phase_change: float
    max_phase_step: float
    gap_margin: float
    margin_theta: float
    grid_size_used: int


@dataclass
class SpinWindingResult:
    """Half-integer-capable spin winding (w_up - w_dn)/2 with its halves."""

    value: Fraction
    up: WindingResult
    down: WindingResult


class _PhaseTracker:
    """Adaptive accumulation of principal-phase increments over [0, 2 pi]."""

    def __init__(self, phase_fn, n_grid, max_depth=MAX_REFINE_DEPTH):
        self.phase_fn = phase_fn
        self.n_grid = n_grid
        self.max_depth = max_depth
        self.evaluations = 0
        self.max_step = 0.0

    def _segment(self, t0, p0, t1, p1, depth, step):
        """Phase change from t0 to t1, given its principal value ``step``."""
        if abs(step) <= PHASE_STEP_BOUND:
            self.max_step = max(self.max_step, abs(step))
            return step
        if depth >= self.max_depth:
            raise WindingUnresolvedError(t0, t1, step=step)
        tm = 0.5 * (t0 + t1)
        self.evaluations += 1
        pm = self.phase_fn(tm)
        return (self._segment(t0, p0, tm, pm, depth + 1, wrap_phase(pm - p0))
                + self._segment(tm, pm, t1, p1, depth + 1, wrap_phase(p1 - pm)))

    def run(self, base_phases):
        """Accumulated phase from the principal phases at the n_grid + 1
        base-grid points; ``phase_fn(theta)`` gives those at refinement
        midpoints."""
        grid = theta_grid(self.n_grid)
        self.evaluations += len(grid)
        steps = wrap_phase(np.diff(base_phases)).tolist()
        total = 0.0
        for k, step in enumerate(steps):
            total += self._segment(grid[k], base_phases[k], grid[k + 1],
                                   base_phases[k + 1], 0, step)
        return total


def _sigma_lower_bound(a, ref):
    """A lower bound on the computed distance from ``ref`` to eig(a).

    sigma_min(a - ref) from a values-only SVD, less ``MARGIN_SLACK`` d eps
    |a|_2.  Each computed eigenvalue is an exact eigenvalue of a matrix
    within the eigensolver's backward error of ``a``, and the computed
    sigma_min is within the SVD's; the allowance covers both.  -inf when the
    SVD fails.
    """
    _, s, _, info = zgesdd(shifted_copy(a, ref), compute_uv=0, overwrite_a=1)
    if info != 0:
        return -np.inf
    norm = s[0] + abs(ref)  # >= |a|_2
    return float(s[-1] - MARGIN_SLACK * a.shape[0] * np.finfo(float).eps * norm)


def _pruned_margin(matrix_fn, ref, grid, lower):
    """Smallest eigenvalue distance over the grid and its lowest index.

    Points are eigensolved in ascending order of their lower bound until the
    next bound exceeds the best distance found: every skipped point has a
    strictly larger distance, so value and index equal those of a full scan.
    """
    best, best_k = np.inf, -1
    for k in np.argsort(lower, kind="stable"):
        if lower[k] > best:
            break
        a = np.asarray(matrix_fn(grid[k]), dtype=complex)
        dist = float(np.abs(np.linalg.eigvals(a) - ref).min())
        if dist < best or (dist == best and k < best_k):
            best, best_k = dist, int(k)
    return best, best_k


def _winding_core(matrix_fn, ref, n_grid, margin_mode="eig", spectra=None):
    """Shared driver: track the determinant phase over the twist period.

    The base grid is evaluated in the stacks of ``twist_stacks``: each stack
    is shifted and LU-factored in place (``factor_stack``) and its phases
    and singularity test are taken together (``stack_phases``).  The first
    singular point in grid order is factored again alone, as refinement
    midpoints are, and raises ``GapClosedError``: ``factor_shifted`` is
    ``factor_stack`` on a stack of one, so both make the same test on the
    same numbers.

    The gap margin covers the n_grid + 1 base-grid points; refinement
    midpoints compute phases alone.  ``spectra`` (one row of eigenvalues per
    base-grid point, as a spectral flow of the same matrices holds) gives it
    directly.  Otherwise ``margin_mode`` is "eig" (exact distance to the
    spectrum, eigensolving only the grid points a sigma_min bound cannot rule
    out) or "sigma" (an inverse-iteration sigma_min estimate sharing the
    phase LU, for large dimensions; an estimate, not a bound).
    """
    grid = theta_grid(n_grid)
    if spectra is not None and np.shape(spectra)[0] != len(grid):
        raise ValueError(f"spectra has {np.shape(spectra)[0]} rows for "
                         f"{len(grid)} base-grid points")
    per_point = np.empty(len(grid))  # sigma bound or estimate at each grid point
    base_phases = np.empty(len(grid))

    def phase_at(theta):
        try:
            factors, scale = factor_shifted(matrix_fn(theta), ref)
            return phase_from_factors(factors, scale, ref)[1]
        except SpectrumHitError as exc:
            raise GapClosedError(theta, ref) from exc

    for start, stack in twist_stacks(matrix_fn, grid):
        points = slice(start, start + len(stack))
        if spectra is None and margin_mode == "eig":
            per_point[points] = [_sigma_lower_bound(a, ref) for a in stack]
        piv, scales = factor_stack(stack, ref)
        base_phases[points], singular = stack_phases(stack, piv, scales)
        if singular.any():  # factored alone, the first one in grid order raises
            phase_at(grid[start + int(np.flatnonzero(singular)[0])])
        if spectra is None and margin_mode != "eig":
            per_point[points] = [sigma_min_from_factors((lu, p), stack.shape[1])
                                 for lu, p in zip(stack, piv)]
        del stack  # free it before the next one is built

    tracker = _PhaseTracker(phase_at, n_grid)
    try:
        total = tracker.run(base_phases.tolist())
    except WindingUnresolvedError as exc:
        if exc.looks_like_crossing:
            raise GapClosedError(0.5 * sum(exc.interval), ref,
                                 detail=" (determinant sign flip)") from exc
        raise
    if spectra is not None:
        dists = np.abs(np.asarray(spectra) - ref).min(axis=1)
        k = int(np.argmin(dists))
        margin = float(dists[k])
    elif margin_mode == "eig":
        margin, k = _pruned_margin(matrix_fn, ref, grid, per_point)
    else:
        k = int(np.argmin(per_point))
        margin = float(per_point[k])
    if margin <= 0.0:
        raise GapClosedError(grid[k], ref)

    value = int(round(total / (2.0 * np.pi)))
    if abs(total / (2.0 * np.pi) - value) >= INTEGER_TOL:
        raise WindingUnresolvedError(0.0, 2.0 * np.pi)
    return WindingResult(value=value, raw_phase_change=float(total),
                         max_phase_step=float(tracker.max_step),
                         gap_margin=margin, margin_theta=float(grid[k]),
                         grid_size_used=tracker.evaluations)


def one_body_winding(h_fn, eps_ref: complex = 0.0,
                     n_grid: int = DEFAULT_N_GRID) -> WindingResult:
    """Winding of det[h(theta) - eps_ref] around zero over one twist period."""
    return _winding_core(h_fn, eps_ref, n_grid)


def spin_winding(h_fn, sz, eps_ref: complex = 0.0,
                 n_grid: int = DEFAULT_N_GRID) -> SpinWindingResult:
    """Spin-resolved winding (w_up - w_dn)/2 of a spin-diagonal one-body flow.

    ``sz`` is the +-1 diagonal of s^z in the mode order of ``h_fn``.  The flow
    must commute with s^z (checked on the base grid); the two spin blocks are
    then wound independently, which sidesteps the branch cuts of a matrix
    logarithm while agreeing with it whenever the commutator vanishes.
    """
    sz = np.asarray(sz)
    up = np.flatnonzero(sz > 0)
    dn = np.flatnonzero(sz < 0)
    for theta in theta_grid(max(n_grid, 16))[:: max(n_grid // 16, 1)]:
        h = np.asarray(h_fn(theta), dtype=complex)
        cross = max(np.abs(h[np.ix_(up, dn)]).max(initial=0.0),
                    np.abs(h[np.ix_(dn, up)]).max(initial=0.0))
        if cross >= SPIN_COMMUTATOR_TOL:
            raise SpinSymmetryError(
                f"spin-parity constraint broken: [s^z, h] = {cross:.3e} "
                f"at theta={theta:.6f}")

    def block(idx):
        fn = lambda theta: np.asarray(h_fn(theta), dtype=complex)[np.ix_(idx, idx)]
        return _winding_core(fn, eps_ref, n_grid)

    w_up, w_dn = block(up), block(dn)
    return SpinWindingResult(Fraction(w_up.value - w_dn.value, 2), w_up, w_dn)


def many_body_winding(params, sector, e_ref: complex = 0.0,
                      n_grid: int = DEFAULT_N_GRID, spectra=None) -> WindingResult:
    """Winding of det[H_(N,P)(theta) - E_ref] for a dot or chain sector.

    ``spectra`` - the eigenvalues of the same matrices at the n_grid + 1
    base-grid points, e.g. ``sweep_theta(model, n_grid).spectra`` - gives the
    gap margin without eigensolving again.  Without it, sector dimensions
    above ``EIG_MARGIN_MAX_DIM`` report an inverse-iteration smallest-
    singular-value estimate instead of an exact eigenvalue distance.  The
    winding itself always comes from the LU determinant phase.  Sectors below
    ``BLAS_THREAD_CROSSOVER_DIM`` are wound on one BLAS thread.
    """
    from .models import ChainParams, DotParams, chain_model, dot_model

    if isinstance(params, DotParams):
        model = dot_model(params, *sector)
    elif isinstance(params, ChainParams):
        model = chain_model(params, *sector)
    else:
        raise TypeError(f"unsupported params type {type(params)!r}")
    if model.dim == 0:
        raise ValueError(f"sector {tuple(sector)} is empty: no winding or gap margin")

    mode = "eig" if model.dim <= EIG_MARGIN_MAX_DIM else "sigma"
    with blas_threads_for(model.dim):
        return _winding_core(model, e_ref, n_grid, margin_mode=mode, spectra=spectra)
