"""Point-gap winding numbers: one-body, spin-resolved, and many-body.

All three invariants are computed the same way: the principal phase of
``det[M(theta) - ref]`` is sampled on a twist grid and unwrapped with adaptive
bisection, inserting midpoints wherever a phase step exceeds pi/2 (the bound
under which unwrapping is unambiguous).  The accumulated phase over one twist
period divided by 2 pi is the winding.  Every winding takes a
``SectorModel``, the one-body matrix h(theta) included, and none sees model
parameters, which ``models`` turns into sector models.

The phase at a base-grid point comes from the eigenvalues there wherever a
winding holds them: det[M - E] = prod_i (lambda_i - E), so its principal
phase is the wrapped sum of arg(lambda_i - E), and no eigenvalue is paired
across theta.  Refinement midpoints, and every point of a large matrix
wound without given spectra, are LU-sampled (``factor_model``).

Every result carries its gap margin - the smallest distance between the
spectrum on the base grid and the reference energy - so a trivial winding can
be told apart from a barely resolved one.  A closed gap is a physical
obstruction, not a numerical failure, and raises ``GapClosedError``.

The margin is an exact nearest-eigenvalue distance at every sector size.
Small matrices, several to a stack, are eigensolved in one batch, which
gives their margins and phases alike.  A larger one, alone in its stack
and wound without given spectra, is not built: each point, base grid and
refinement midpoints alike, is a band LU scattered from the model's
pattern (``factor_model``).  Its margin comes
from the LU the phase already needs: the eigenvalue of (M - E)^-1 largest in
modulus is 1 / (lambda - E) for the eigenvalue lambda nearest E, found by
shift-invert Arnoldi (Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM
1998) to a relative accuracy of ``ARPACK_TOL``; only where that does not
converge is H(theta) built and eigensolved in full.  A smallest singular
value would not do: for non-normal M, sigma_min(M - E) can lie far below
dist(E, spec M) (Trefethen & Embree, *Spectra and Pseudospectra*, 2005).
The distance to E is the same at several grid points where a verified
symmetry maps one spectrum to another, each a reflection theta -> theta0 -
theta of the grid.  The mirror (``SectorModel.mirror_symmetric``: site
reflection times spin flip maps H(theta) to H(-theta), as on an even-N
chain sector) gives theta0 = 0 for every E.  The antiunitary conjugation
relations D conj(H(theta)) D^-1 = s H(theta0 - theta)
(``SectorModel.conjugation_twists``, point-gap symmetries of the kind
classified by Kawabata, Shiozaki, Ueda & Sato, PRX 9, 041015 (2019)) give
theta0 for an imaginary E (s = -1, where spec H(theta0 - theta) =
-conj spec H(theta)) and for a real E (s = +1, where it is conj spec
H(theta)); theta0 = pi maps grid to grid only for an even n_grid.

The same reflections fix the principal phase phi of det[H(theta) - E]
elsewhere from its value on a fundamental arc: phi(-theta) = phi(theta)
under the mirror (R is a signed permutation), and phi(theta0 - theta) =
-phi(theta) for s = +1 or d pi - phi(theta) for s = -1, d the dimension.
So a model is sampled, phase and margin alike, on that arc only: on the
chain, half of the grid for an odd-N sector at a real or imaginary E or
an even-N one elsewhere, and a quarter for an even-N sector at an
imaginary E on an odd L.  An ARPACK margin is solved once per orbit of the
group the reflections generate, at its lowest point on the arc.  Where the
mirror holds, det[H(theta) - E] is even in theta, so its winding is 0;
otherwise the loop's phase change is 2 or 4 times the arc's.  A closing
anywhere has an image on the arc, where the tracker still finds it.  At an
arc endpoint that a relation fixes, phi must be 0 or pi (+-pi/2 for
s = -1 at odd d), and a phase that misses raises ``SpectralError``.  The
reflections, the arc and the orbits are ``spectral.grid_reflections`` and
``spectral.twist_orbits``, which a twist sweep shares and which decide
where relations are used; the winding takes only the relations that keep
the distance to E.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .spectral import (
    DEGENERACY_TOL,
    SINGULARITY_RTOL,
    SpectralError,
    SpectrumHitError,
    blas_threads_for,
    factor_model,
    grid_reflections,
    phase_from_factors,
    stack_eigvals,
    stack_length,
    theta_grid,
    twist_orbits,
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

    def __init__(self, phase_fn, n_grid):
        self.phase_fn = phase_fn
        self.n_grid = n_grid
        self.evaluations = 0
        self.max_step = 0.0

    def _segment(self, t0, p0, t1, p1, depth, step):
        """Phase change from t0 to t1, given its principal value ``step``."""
        if abs(step) <= PHASE_STEP_BOUND:
            self.max_step = max(self.max_step, abs(step))
            return step
        if depth >= MAX_REFINE_DEPTH:
            raise WindingUnresolvedError(t0, t1, step=step)
        tm = 0.5 * (t0 + t1)
        self.evaluations += 1
        pm = self.phase_fn(tm)
        return (self._segment(t0, p0, tm, pm, depth + 1, wrap_phase(pm - p0))
                + self._segment(tm, pm, t1, p1, depth + 1, wrap_phase(p1 - pm)))

    def run(self, base_phases, first=0):
        """Accumulated phase from the principal phases at the base-grid
        points first, first + 1, ... (all n_grid + 1 of them by default);
        ``phase_fn(theta)`` gives those at refinement midpoints."""
        grid = theta_grid(self.n_grid)[first:first + len(base_phases)]
        self.evaluations += len(grid)
        steps = wrap_phase(np.diff(base_phases))
        small = np.abs(steps) <= PHASE_STEP_BOUND
        self.max_step = max(self.max_step,
                            float(np.abs(steps[small]).max(initial=0.0)))
        for k in np.flatnonzero(~small).tolist():
            steps[k] = self._segment(grid[k], base_phases[k], grid[k + 1],
                                     base_phases[k + 1], 0, float(steps[k]))
        # summed in grid order from 0.0: a cumulative sum is sequential
        return float(np.concatenate(([0.0], steps)).cumsum()[-1])


# Relative accuracy of the ARPACK margin's Ritz value (scipy's default is
# machine precision).  On chain (4,+1) and (5,+1) at J = V in {0, 1},
# E = 0.3i, n_grid 64, it cut the shift-invert solves per twist point from
# 36-54 to 27-32; margins moved by at most 2.1e-13 relative and their grid
# minimum by at most 1.7e-15.
ARPACK_TOL = 1e-12


def _nearest_distance(factors, model, theta, ref):
    """Distance from ``ref`` to the nearest eigenvalue of ``model(theta)``,
    given ``factors``, the ``ShiftedLU`` of ``model(theta) - ref``.

    ARPACK finds the eigenvalue of the inverse largest in modulus, to
    ``ARPACK_TOL``, from a fixed start vector, so a run repeats bit for bit;
    where it does not converge, the matrix is eigensolved in full.
    """
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs

    dim = factors.dim
    inverse = LinearOperator((dim, dim), matvec=factors.solve, dtype=complex)
    rng = np.random.default_rng(0)
    v0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    try:
        mu = eigs(inverse, k=1, which="LM", v0=v0, tol=ARPACK_TOL,
                  return_eigenvectors=False)
    except ArpackNoConvergence:
        return float(np.abs(np.linalg.eigvals(model(theta)) - ref).min())
    return float(1.0 / np.abs(mu).max())


def _check_fixed_phases(model, reflections, n_grid, ends):
    """At a grid point k = a - k (mod n_grid) of a conjugation relation of
    sign s, the relation fixes the principal phase phi of det[H(theta) - E]:
    phi = -phi for s = +1 and phi = d pi - phi for s = -1 (mod 2 pi), so phi
    is 0 or pi, or +-pi/2 for s = -1 at odd d.  ``ends`` holds (k, theta,
    phi) for the arc's endpoints; one whose phi misses by more than 1e-8
    (a few 1e-13 on the chain) raises ``SpectralError``."""
    for k, theta, phi in ends:
        for a, sign in reflections:
            if sign is None or (2 * k - a) % n_grid:
                continue
            forced = np.pi * (model.dim % 2) if sign < 0 else 0.0
            if abs(wrap_phase(2.0 * phi - forced)) > 2e-8:
                basis = model.basis
                raise SpectralError(
                    f"sector {(basis.n, basis.parity)}: the s = {sign:+d} conjugation "
                    f"relation fixes the phase of det[H(theta) - E] at theta={theta:.6f} "
                    f"to {'+-pi/2' if forced else '0 or pi'}, but it is {phi:.6f}")


def _eigenvalue_phases(values, e_ref, thetas):
    """Principal phases of det[H(theta) - E] = prod_i (lambda_i - E), the
    wrapped sum of arg(lambda_i - E), and distances from E to the nearest
    eigenvalue, from ``values``: one row of eigenvalues per theta of
    ``thetas``.  The first row with an eigenvalue within ``SINGULARITY_RTOL``
    times sqrt(sum_i |lambda_i - E|^2) of E raises ``GapClosedError`` at its
    theta.  That scale is at most ||H - E||_F, the LU's (Schur's
    inequality), and equals it for a normal H."""
    shifted = values - e_ref
    moduli = np.abs(shifted)
    dists = moduli.min(axis=1)
    scales = np.sqrt((moduli * moduli).sum(axis=1))
    hits = np.flatnonzero(dists <= SINGULARITY_RTOL * scales)
    if len(hits):
        k = int(hits[0])
        raise GapClosedError(thetas[k], e_ref) from SpectrumHitError(
            f"an eigenvalue lies {dists[k]:.3e} from the reference energy {e_ref}, "
            f"within {SINGULARITY_RTOL:.0e} of the spectrum's scale {scales[k]:.3e}")
    return wrap_phase(np.angle(shifted).sum(axis=1)), dists


def many_body_winding(model, e_ref: complex = 0.0,
                      n_grid: int = DEFAULT_N_GRID, spectra=None) -> WindingResult:
    """Winding of det[H(theta) - E_ref] for a ``SectorModel``: a sector
    Hamiltonian H_(N,P) or the one-body matrix h(theta), tracked over the
    twist period.  Sectors below ``BLAS_THREAD_CROSSOVER_DIM`` are wound on
    one BLAS thread.

    The model is wound over a fundamental arc only, of the grid reflections
    (``grid_reflections``, ``twist_orbits``) that the mirror and the
    conjugation relation for a real or imaginary ``e_ref`` give; elsewhere
    the phase follows from the arc's.  With the mirror among them the
    winding is 0 and ``raw_phase_change`` 0.0, and the arc is still tracked,
    so a closing there (the image of any closing) raises ``GapClosedError``.
    Otherwise the phase change over the loop is m times that over the arc,
    m = 2 for a half and 4 for a quarter.  Where an arc endpoint is a fixed
    point of a relation, the relation fixes its phase, and a phase that
    misses raises ``SpectralError``.  ``grid_size_used`` counts the phase
    evaluations: arc points plus refinement midpoints.

    Where the winding holds the arc's eigenvalues - ``spectra``, those of
    the same matrices at the n_grid + 1 base-grid points, one row of
    ``model.dim`` per point (e.g. ``sweep_theta(model, n_grid).spectra``),
    at any size, or else one batched eigensolve per stack of
    ``twist_stacks`` where matrices share a stack - its base-grid phases
    and distances to E come from them (``_eigenvalue_phases``), and only
    refinement midpoints are LU-factored (``factor_model``).  A matrix alone
    in its stack, wound without ``spectra``, is a band LU from the model's
    pattern at every point, with no matrix built, and its distance to E
    comes from shift-invert Arnoldi on that LU, to ``ARPACK_TOL``, once per
    orbit of the grid reflections, at its lowest point on the arc.

    The gap margin is the smallest of those distances over the arc's
    base-grid points, and ``margin_theta`` the lowest arc angle whose
    distance lies within ``DEGENERACY_TOL`` (relative) of it, so rounding
    does not pick among tied points.
    """
    if model.dim == 0:
        basis = model.basis
        raise ValueError(f"sector {(basis.n, basis.parity)} is empty: "
                         "no winding or gap margin")
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    grid = theta_grid(n_grid)
    orbits = twist_orbits(n_grid, grid_reflections(model, n_grid, e_ref))
    reflections, first, last = orbits.reflections, orbits.first, orbits.last
    arc = grid[first:last + 1]
    if spectra is not None and np.shape(spectra) != (len(grid), model.dim):
        raise ValueError(f"spectra has shape {np.shape(spectra)}, not {len(grid)} "
                         f"rows (base-grid points) of {model.dim} eigenvalues")

    def factor_at(theta):
        """LU and principal phase of ``model(theta) - e_ref``; GapClosedError
        where a pivot falls below the singularity tolerance."""
        try:
            factors, scale = factor_model(model, theta, e_ref)
            return factors, phase_from_factors(factors, scale, e_ref)[1]
        except SpectrumHitError as exc:
            raise GapClosedError(theta, e_ref) from exc

    tracker = _PhaseTracker(lambda theta: factor_at(theta)[1], n_grid)
    with blas_threads_for(model.dim):
        if spectra is None and stack_length(model.dim) == 1:  # band LUs, ARPACK margins
            base_phases, dists = np.empty(len(arc)), np.empty(len(arc))
            lowest = orbits.source[first:last + 1].tolist()
            for i, theta in enumerate(arc):
                factors, base_phases[i] = factor_at(theta)
                j = lowest[i] - first  # each orbit is solved at its lowest arc point
                dists[i] = (_nearest_distance(factors, model, theta, e_ref)
                            if j == i else dists[j])
                del factors  # free them before the next point is factored
        else:
            if spectra is None:  # one batched eigensolve per stack
                values = np.empty((len(arc), model.dim), dtype=complex)
                for start, stack in twist_stacks(model, arc):
                    points = slice(start, start + len(stack))
                    values[points] = stack_eigvals(stack, arc[points])
                    del stack  # free it before the next one is built
            else:
                values = np.asarray(spectra)[first:last + 1]
            base_phases, dists = _eigenvalue_phases(values, e_ref, arc)
        try:
            total = orbits.copies * tracker.run(base_phases.tolist(), first)
        except WindingUnresolvedError as exc:
            if exc.looks_like_crossing:
                raise GapClosedError(0.5 * sum(exc.interval), e_ref,
                                     detail=" (determinant sign flip)") from exc
            raise
    margin = float(dists.min())
    k = int(np.flatnonzero(dists - margin <= DEGENERACY_TOL * margin)[0])
    if margin <= 0.0:
        raise GapClosedError(arc[k], e_ref)
    _check_fixed_phases(model, reflections, n_grid,
                        [(first, arc[0], base_phases[0]), (last, arc[-1], base_phases[-1])])

    if (0, None) in reflections:  # R H(theta) R^-1 = H(-theta): det is even in theta
        value, total = 0, 0.0
    else:
        value = int(round(total / (2.0 * np.pi)))
        if abs(total / (2.0 * np.pi) - value) >= INTEGER_TOL:
            raise WindingUnresolvedError(0.0, 2.0 * np.pi)
    return WindingResult(value=value, raw_phase_change=float(total),
                         max_phase_step=float(tracker.max_step),
                         gap_margin=margin, margin_theta=float(arc[k]),
                         grid_size_used=tracker.evaluations)


def spin_winding(model, eps_ref: complex = 0.0,
                 n_grid: int = DEFAULT_N_GRID) -> SpinWindingResult:
    """Spin-resolved winding (w_up - w_dn)/2 of a spin-diagonal one-body model.

    s^z is read from the model's basis (``basis.sz``).  The flow must commute
    with s^z, which is checked at 17 angles of the twist grid; the two spin
    blocks are then wound independently (``model.restrict``, each by
    ``many_body_winding``), which sidesteps the branch cuts of a matrix
    logarithm while agreeing with it whenever the commutator vanishes.
    """
    sz = model.basis.sz
    up, dn = sz > 0, sz < 0
    thetas = theta_grid(max(n_grid, 16))[:: max(n_grid // 16, 1)]
    mixed = np.outer(up, dn) | np.outer(dn, up)
    cross = np.abs(model.stack(thetas)[:, mixed]).max(axis=1, initial=0.0)
    broken = np.flatnonzero(cross >= SPIN_COMMUTATOR_TOL)
    if len(broken):
        k = broken[0]
        raise SpinSymmetryError(
            f"spin-parity constraint broken: [s^z, h] = {cross[k]:.3e} "
            f"at theta={thetas[k]:.6f}")

    w_up = many_body_winding(model.restrict(up), eps_ref, n_grid)
    w_dn = many_body_winding(model.restrict(dn), eps_ref, n_grid)
    return SpinWindingResult(Fraction(w_up.value - w_dn.value, 2), w_up, w_dn)
