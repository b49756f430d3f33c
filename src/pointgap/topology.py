"""Point-gap winding numbers: one-body, spin-resolved, and many-body.

All three invariants are computed the same way: the principal phase of
``det[M(theta) - ref]`` is sampled on a twist grid and unwrapped with adaptive
bisection, inserting midpoints wherever a phase step exceeds pi/2 (the bound
under which unwrapping is unambiguous).  The accumulated phase over one twist
period divided by 2 pi is the winding.  The one-body windings take a
``theta -> matrix`` callable and the many-body one a ``SectorModel``; none
of them sees model parameters, which ``models`` turns into sector models.

Every result carries its gap margin - the smallest distance between the
spectrum on the base grid and the reference energy - so a trivial winding can
be told apart from a barely resolved one.  A closed gap is a physical
obstruction, not a numerical failure, and raises ``GapClosedError``.

The margin is an exact nearest-eigenvalue distance at every sector size.
Small matrices, several to a stack, are eigensolved in one batch before
their stack is LU-factored.  A larger one, alone in its stack, is factored
as a refinement midpoint is (``factor_shifted``, a band LU for a sector
Hamiltonian) and gets the distance from the LU the phase already needs: the
eigenvalue of (M - E)^-1 largest in modulus is 1 / (lambda - E) for the
eigenvalue lambda nearest E, found by shift-invert Arnoldi (Lehoucq,
Sorensen & Yang, *ARPACK Users' Guide*, SIAM 1998).  A smallest singular
value would not do: for non-normal M, sigma_min(M - E) can lie far below
dist(E, spec M) (Trefethen & Embree, *Spectra and Pseudospectra*, 2005).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import (
    SpectralError,
    SpectrumHitError,
    blas_threads_for,
    factor_shifted,
    factor_stack,
    phase_from_factors,
    stack_eigvals,
    stack_length,
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


def _nearest_distance(factors, matrix_fn, theta, ref):
    """Distance from ``ref`` to the nearest eigenvalue of ``matrix_fn(theta)``,
    given ``factors``, the ``ShiftedLU`` of ``matrix_fn(theta) - ref``.

    ARPACK finds the eigenvalue of the inverse largest in modulus from a
    fixed start vector, so a run repeats bit for bit; where it does not
    converge, the matrix is eigensolved in full.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    dim = factors.dim
    inverse = LinearOperator((dim, dim), matvec=factors.solve, dtype=complex)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    try:
        mu = eigs(inverse, k=1, which="LM", v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence:
        return float(np.abs(np.linalg.eigvals(matrix_fn(theta)) - ref).min())
    return float(1.0 / np.abs(mu).max())


def _winding_core(matrix_fn, ref, n_grid, spectra=None):
    """Shared driver: track the determinant phase over the twist period.

    The base grid is evaluated in the stacks of ``twist_stacks``.  A stack
    of several matrices (d <= 128) is shifted and LU-factored in place
    (``factor_stack``) and its phases and singularity test are taken
    together (``stack_phases``).  The first singular point in grid order is
    factored again alone, as refinement midpoints are, and raises
    ``GapClosedError``: at these sizes ``factor_shifted`` is ``factor_stack``
    on a stack of one, so both make the same test on the same numbers.  A
    matrix alone in its stack is factored with ``factor_shifted`` itself, so
    base-grid points and midpoints agree bit for bit at every size.

    The gap margin is the exact distance from ``ref`` to the nearest
    eigenvalue, minimized over the n_grid + 1 base-grid points (refinement
    midpoints compute phases alone).  ``spectra`` (one row of eigenvalues per
    base-grid point, as a spectral flow of the same matrices holds) gives it
    directly.  Otherwise dimensions that share a stack (d <= 128) are
    eigensolved a stack at a time before it is factored, and larger ones
    get the distance by shift-invert Arnoldi on their own phase LU.
    """
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    grid = theta_grid(n_grid)
    if spectra is not None:
        if np.shape(spectra)[0] != len(grid):
            raise ValueError(f"spectra has {np.shape(spectra)[0]} rows for "
                             f"{len(grid)} base-grid points")
        dists = np.abs(np.asarray(spectra) - ref).min(axis=1)
    else:
        dists = np.empty(len(grid))
    base_phases = np.empty(len(grid))

    def factor_at(matrix, theta):
        """LU and principal phase of ``matrix - ref``; GapClosedError where
        a pivot falls below the singularity tolerance."""
        try:
            factors, scale = factor_shifted(matrix, ref)
            return factors, phase_from_factors(factors, scale, ref)[1]
        except SpectrumHitError as exc:
            raise GapClosedError(theta, ref) from exc

    def phase_at(theta):
        return factor_at(matrix_fn(theta), theta)[1]

    for start, stack in twist_stacks(matrix_fn, grid):
        # the branch follows the dimension, not this stack, which may be a
        # trailing stack of one
        if stack_length(stack.shape[1]) > 1:
            points = slice(start, start + len(stack))
            if spectra is None:  # one batched eigensolve per stack
                dists[points] = np.abs(stack_eigvals(stack, grid[points]) - ref).min(axis=1)
            piv, scales = factor_stack(stack, ref)
            base_phases[points], singular = stack_phases(stack, piv, scales)
            if singular.any():  # factored alone, the first one in grid order raises
                phase_at(grid[start + int(np.flatnonzero(singular)[0])])
            del stack  # free it before the next one is built
        else:  # alone in its stack: factored as a refinement midpoint is
            factors, base_phases[start] = factor_at(stack[0], grid[start])
            del stack  # the factors hold no reference to it
            if spectra is None:
                dists[start] = _nearest_distance(factors, matrix_fn, grid[start], ref)
            del factors  # free them before the next matrix is built

    tracker = _PhaseTracker(phase_at, n_grid)
    try:
        total = tracker.run(base_phases.tolist())
    except WindingUnresolvedError as exc:
        if exc.looks_like_crossing:
            raise GapClosedError(0.5 * sum(exc.interval), ref,
                                 detail=" (determinant sign flip)") from exc
        raise
    k = int(np.argmin(dists))
    margin = float(dists[k])
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


def many_body_winding(model, e_ref: complex = 0.0,
                      n_grid: int = DEFAULT_N_GRID, spectra=None) -> WindingResult:
    """Winding of det[H_(N,P)(theta) - E_ref] for a ``SectorModel``.

    ``spectra`` - the eigenvalues of the same matrices at the n_grid + 1
    base-grid points, e.g. ``sweep_theta(model, n_grid).spectra`` - gives the
    gap margin without eigensolving again.  Without it the margin is still
    the exact distance to the nearest eigenvalue at every sector size (see
    ``_winding_core``).  The winding itself always comes from the LU
    determinant phase.  Sectors below ``BLAS_THREAD_CROSSOVER_DIM`` are
    wound on one BLAS thread.
    """
    if model.dim == 0:
        basis = model.basis
        raise ValueError(f"sector {(basis.n, basis.parity)} is empty: "
                         "no winding or gap margin")

    with blas_threads_for(model.dim):
        return _winding_core(model, e_ref, n_grid, spectra=spectra)
