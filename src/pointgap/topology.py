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
across theta.  A winding holds them when it is given a flow's spectra, and
wherever matrices share a stack (d <= 128), where it reads the rows of
``spectral.sweep_theta``: the rows the ``flow`` and ``skin`` tasks write.
Refinement midpoints, and every point of a large matrix wound without
given spectra, are LU-sampled (``factor_model``).

``many_body_winding`` takes one model or a list of models of one
dimension, such as the points of a deformation path, which it winds in one
pass: the base-grid work of every model is one array operation over a
(models x arc points) array, and only a model with a phase step above
pi/2 is refined, at its own LUs.  Each result is bit for bit that of its
model wound alone; one model is the list of one.

Every result carries its gap margin - the smallest distance between the
spectrum on the base grid and the reference energy - so a trivial winding can
be told apart from a barely resolved one.  A closed gap is a physical
obstruction, not a numerical failure, and raises ``GapClosedError``.

The margin is an exact nearest-eigenvalue distance at every sector size.
The eigenvalues of small matrices, several to a stack, give their margins
and phases alike.  A larger one, alone in its stack and wound without
given spectra, is not built: each point, base grid and refinement
midpoints alike, is a band LU scattered from the model's pattern
(``factor_model``).  Its margin comes
from the LU the phase already needs: the eigenvalue of (M - E)^-1 largest in
modulus is 1 / (lambda - E) for the eigenvalue lambda nearest E, found by
shift-invert Arnoldi (Lehoucq, Sorensen & Yang, *ARPACK Users' Guide*, SIAM
1998) to a relative accuracy of ``ARPACK_TOL``; only where that does not
converge is H(theta) built and eigensolved in full.  A smallest singular
value would not do: for non-normal M, sigma_min(M - E) can lie far below
dist(E, spec M) (Trefethen & Embree, *Spectra and Pseudospectra*, 2005).
The distance to E is the same at several grid points where a verified
symmetry maps one spectrum to another, each a reflection theta -> theta0 -
theta of the grid.  The model lists its relations U H(theta)^(*) U^-1 =
s H(theta0 - theta) (``SectorModel.twist_relations``, point-gap symmetries
of the kind classified by Kawabata, Shiozaki, Ueda & Sato, PRX 9, 041015
(2019)), each of which maps spec H(theta) to spec H(theta0 - theta) times
s, conjugated where U is antiunitary.  A relation keeps the distance to E
where s E^(*) = E: the unitary mirror (site reflection times spin flip,
s = +1, theta0 = 0, as on an even-N chain sector) for every E, the
antiunitary conjugations for an imaginary E (s = -1) and for a real E
(s = +1).  theta0 = pi maps grid to grid only for an even n_grid.

The same reflections fix the principal phase phi of det[H(theta) - E]
elsewhere from its value on a fundamental arc: phi(theta0 - theta) =
phi(theta) under a unitary relation (the mirror's R is a signed
permutation), and -phi(theta) for an antiunitary one with s = +1 or
d pi - phi(theta) with s = -1, d the dimension.  So a model is sampled,
phase and margin alike, on that arc only: on the chain, half of the grid
for an odd-N sector at a real or imaginary E or an even-N one elsewhere,
and a quarter for an even-N sector at an imaginary E on an odd L.  An
ARPACK margin is solved once per orbit of the group the reflections
generate, at its lowest point on the arc.  Where a unitary relation
holds, phi(theta0 - theta) = phi(theta) runs the loop backwards with the
same phase, so the winding is 0; otherwise the loop's phase change is 2
or 4 times the arc's.  A closing anywhere has an image on the arc, where
the tracker still finds it.  At an arc endpoint that an antiunitary
relation fixes, phi must be 0 or pi (+-pi/2 for s = -1 at odd d), and a
phase that misses raises ``SpectralError``.  The relations kept for E,
the arc and the orbits are ``spectral.twist_orbits``, which a twist sweep
shares and which decides where relations are used.
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
    SpinSymmetryError,  # raised by spin_winding, from model.spin_blocks
    blas_threads_for,
    factor_model,
    model_list,
    phase_from_factors,
    stack_length,
    sweep_theta,
    theta_grid,
    twist_orbits,
    wrap_phase,
)

DEFAULT_N_GRID = 256
PHASE_STEP_BOUND = np.pi / 2
MAX_REFINE_DEPTH = 12
INTEGER_TOL = 1e-6


class GapClosedError(SpectralError):
    """The reference energy touches the spectrum somewhere on the twist path;
    ``model`` is the index of the model it touches in the list wound (0 for
    one model)."""

    def __init__(self, theta, e_ref, detail="", model=None):
        self.theta = theta
        self.e_ref = e_ref
        self.detail = detail
        self.model = model
        super().__init__(
            f"point gap closed at theta={theta:.6f} for reference {e_ref}{detail}")


class WindingUnresolvedError(SpectralError):
    """Phase steps stayed above the unwrapping bound at maximum refinement;
    ``model`` is the index of the model in the list wound."""

    def __init__(self, lo, hi, step=None, model=None):
        self.interval = (lo, hi)
        self.step = step
        self.model = model
        super().__init__(
            f"winding unresolvable: phase step exceeds pi/2 on "
            f"theta in [{lo:.6f}, {hi:.6f}] at maximum refinement depth")

    @property
    def looks_like_crossing(self) -> bool:
        """A persistent ~pi jump is a determinant sign flip: an eigenvalue
        crossing the reference energy, not a resolution problem."""
        return self.step is not None and abs(self.step) > np.pi - 0.01


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
    """Adaptive accumulation of principal-phase increments along an arc of
    the twist grid, one row of phases per model."""

    def __init__(self, phase_fn):
        self.phase_fn = phase_fn
        self.midpoints = []
        self.max_step = []

    def _segment(self, row, t0, p0, t1, p1, depth, step):
        """Phase change of ``row`` from t0 to t1, given its principal value
        ``step``."""
        if abs(step) <= PHASE_STEP_BOUND:
            self.max_step[row] = max(self.max_step[row], abs(step))
            return step
        if depth >= MAX_REFINE_DEPTH:
            raise WindingUnresolvedError(t0, t1, step=step, model=row)
        tm = 0.5 * (t0 + t1)
        self.midpoints[row] += 1
        pm = self.phase_fn(row, tm)
        return (self._segment(row, t0, p0, tm, pm, depth + 1, wrap_phase(pm - p0))
                + self._segment(row, tm, pm, t1, p1, depth + 1, wrap_phase(p1 - pm)))

    def run(self, grid, base_phases):
        """Accumulated phase of each row of ``base_phases``, the principal
        phases at the consecutive base-grid points ``grid``, one row per
        model.  Only steps above ``PHASE_STEP_BOUND`` are refined, rows in
        order, each at midpoints whose phases ``phase_fn(row, theta)``
        gives.  ``midpoints`` and ``max_step`` then hold each row's count of
        midpoints and its largest accepted step."""
        steps = wrap_phase(np.diff(base_phases, axis=1))
        small = np.abs(steps) <= PHASE_STEP_BOUND
        self.midpoints = [0] * len(steps)
        self.max_step = np.where(small, np.abs(steps), 0.0).max(axis=1).tolist()
        for row, k in np.argwhere(~small).tolist():
            steps[row, k] = self._segment(row, grid[k], base_phases[row, k], grid[k + 1],
                                          base_phases[row, k + 1], 0, float(steps[row, k]))
        # summed in grid order from 0.0: a cumulative sum is sequential
        return np.concatenate((np.zeros((len(steps), 1)), steps), axis=1).cumsum(axis=1)[:, -1]


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
    """At a grid point k = a - k (mod n_grid) of an antiunitary relation of
    sign s, the relation fixes the principal phase phi of det[H(theta) - E]:
    phi = -phi for s = +1 and phi = d pi - phi for s = -1 (mod 2 pi), so phi
    is 0 or pi, or +-pi/2 for s = -1 at odd d.  A unitary relation fixes
    none.  ``ends`` holds (k, theta, phi) for the arc's endpoints; one whose
    phi misses by more than 1e-8 (a few 1e-13 on the chain) raises
    ``SpectralError``."""
    for k, theta, phi in ends:
        for a, sign, antiunitary in reflections:
            if not antiunitary or (2 * k - a) % n_grid:
                continue
            forced = np.pi * (model.dim % 2) if sign < 0 else 0.0
            if abs(wrap_phase(2.0 * phi - forced)) > 2e-8:
                basis = model.basis
                raise SpectralError(
                    f"sector {(basis.n, basis.parity)}: the s = {sign:+d} conjugation "
                    f"relation fixes the phase of det[H(theta) - E] at theta={theta:.6f} "
                    f"to {'+-pi/2' if forced else '0 or pi'}, but it is {phi:.6f}")


def _eigenvalue_phases(shifted):
    """Principal phases of det[H(theta) - E] = prod_i (lambda_i - E), the
    wrapped sum of arg(lambda_i - E), distances from E to the nearest
    eigenvalue, and the scales sqrt(sum_i |lambda_i - E|^2), from
    ``shifted``: the eigenvalues minus E along its last axis.  A point
    whose distance is within ``SINGULARITY_RTOL`` of its scale has closed
    the gap; that scale is at most ||H - E||_F, the LU's (Schur's
    inequality), and equals it for a normal H."""
    moduli = np.abs(shifted)
    dists = moduli.min(axis=-1)
    scales = np.sqrt((moduli * moduli).sum(axis=-1))
    return wrap_phase(np.angle(shifted).sum(axis=-1)), dists, scales


def many_body_winding(models, e_ref: complex = 0.0,
                      n_grid: int = DEFAULT_N_GRID, spectra=None):
    """Winding of det[H(theta) - E_ref] for a ``SectorModel``: a sector
    Hamiltonian H_(N,P) or the one-body matrix h(theta), tracked over the
    twist period: a ``WindingResult``.  Given a list or tuple of models of
    one dimension, such as the points of a deformation path, it returns a
    list of their results, each bit for bit the result of its model wound
    alone; one model is the list of one.  Sectors below
    ``BLAS_THREAD_CROSSOVER_DIM`` are wound on one BLAS thread.

    Each model is wound over a fundamental arc only, of the relations that
    keep the distance to ``e_ref`` (``twist_orbits``: the mirror for every
    E, an antiunitary one of sign s where s conj(E) = E); elsewhere the
    phase follows from the arc's.  With a unitary relation among them the
    winding is 0 and ``raw_phase_change`` 0.0, and the arc is still tracked,
    so a closing there (the image of any closing) raises ``GapClosedError``.
    Otherwise the phase change over the loop is m times that over the arc,
    m = 2 for a half and 4 for a quarter.  Where an arc endpoint is a fixed
    point of an antiunitary relation, the relation fixes its phase, and a
    phase that misses raises ``SpectralError``.  ``grid_size_used`` counts
    the phase evaluations: arc points plus refinement midpoints.

    Where the winding holds the arc's eigenvalues - ``spectra``, those of
    the same matrices at the n_grid + 1 base-grid points, one row of
    ``model.dim`` per point (e.g. ``sweep_theta(model, n_grid).spectra``;
    for a list, one such array per model), at any size, or else those of
    ``sweep_theta(models, n_grid)`` itself where matrices share a stack -
    its base-grid phases and distances to E come from them
    (``_eigenvalue_phases``), and only refinement midpoints are LU-factored
    (``factor_model``).  So at d <= 128 a winding given its sweep's spectra
    and one given none agree bit for bit.  A matrix alone in its stack,
    wound without ``spectra``, is a band LU from the model's pattern at
    every point, with no matrix built, and its distance to E comes from
    shift-invert Arnoldi on that LU, to ``ARPACK_TOL``, once per orbit of
    those relations, at its lowest point on the arc.

    The base-grid work runs on one (models x arc points) array: phases,
    distances, the closing test, steps and their sums, each row padded
    beyond its model's arc with its end phases (steps of 0.0) and infinite
    distances.  Only rows with a step above pi/2 are refined, each at its
    own model's LUs.  A list raises for the first base-grid closing in list
    order, then for the first failed refinement, then row by row;
    ``GapClosedError`` and ``WindingUnresolvedError`` name the model's
    index as ``model``.

    The gap margin is the smallest of those distances over the arc's
    base-grid points, and ``margin_theta`` the lowest arc angle whose
    distance lies within ``DEGENERACY_TOL`` (relative) of it, so rounding
    does not pick among tied points.
    """
    given = models
    one, models = model_list(models, "many_body_winding", "winding")
    d = models[0].dim
    if d == 0:
        basis = models[0].basis
        raise ValueError(f"sector {(basis.n, basis.parity)} is empty: "
                         "no winding or gap margin")
    grid = theta_grid(n_grid)
    if spectra is not None:
        spectra = [spectra] if one else list(spectra)
        if len(spectra) != len(models):
            raise ValueError(f"{len(spectra)} spectra for {len(models)} models")
        for values in spectra:
            if np.shape(values) != (len(grid), d):
                raise ValueError(f"spectra has shape {np.shape(values)}, not {len(grid)} "
                                 f"rows (base-grid points) of {d} eigenvalues")
    orbits = [twist_orbits(model, n_grid, e_ref) for model in models]
    lo, hi = min(o.first for o in orbits), max(o.last for o in orbits)
    span = grid[lo:hi + 1]
    # row i's column c is its arc point cols[i, c]: c itself on the arc, an end beyond it
    cols = np.clip(np.arange(len(span)), [[o.first - lo] for o in orbits],
                   [[o.last - lo] for o in orbits])
    on_arc = cols == np.arange(len(span))

    def factor_at(i, theta):
        """LU and principal phase of ``models[i](theta) - e_ref``;
        GapClosedError where a pivot falls below the singularity tolerance."""
        try:
            factors, scale = factor_model(models[i], theta, e_ref)
            return factors, phase_from_factors(factors, scale, e_ref)[1]
        except SpectrumHitError as exc:
            raise GapClosedError(theta, e_ref, model=i) from exc

    tracker = _PhaseTracker(lambda i, theta: factor_at(i, theta)[1])
    with blas_threads_for(d):
        if spectra is None and stack_length(d) > 1:
            flows = sweep_theta(given, n_grid)
            spectra = [flow.spectra for flow in ([flows] if one else flows)]
        if spectra is None:  # band LUs, ARPACK margins
            phases, dists = np.empty(cols.shape), np.empty(cols.shape)
            for i, (model, o) in enumerate(zip(models, orbits)):
                lowest = o.source.tolist()
                for k in range(o.first, o.last + 1):
                    factors, phases[i, k - lo] = factor_at(i, grid[k])
                    # each orbit is solved at its lowest arc point
                    dists[i, k - lo] = (
                        _nearest_distance(factors, model, grid[k], e_ref)
                        if lowest[k] == k else dists[i, lowest[k] - lo])
                    del factors  # free them before the next point is factored
        else:
            shifted = np.empty((*cols.shape, d), dtype=complex)
            for i, values in enumerate(spectra):
                np.subtract(np.asarray(values)[lo:hi + 1], e_ref, out=shifted[i])
            phases, dists, scales = _eigenvalue_phases(shifted)
            hits = np.argwhere(on_arc & (dists <= SINGULARITY_RTOL * scales)).tolist()
            if hits:
                i, k = hits[0]
                raise GapClosedError(span[k], e_ref, model=i) from SpectrumHitError(
                    f"an eigenvalue lies {dists[i, k]:.3e} from the reference energy "
                    f"{e_ref}, within {SINGULARITY_RTOL:.0e} of the spectrum's scale "
                    f"{scales[i, k]:.3e}")
        phases = np.take_along_axis(phases, cols, axis=1)
        dists = np.where(on_arc, dists, np.inf)
        try:
            totals = tracker.run(span, phases).tolist()
        except WindingUnresolvedError as exc:
            if exc.looks_like_crossing:
                raise GapClosedError(0.5 * sum(exc.interval), e_ref,
                                     detail=" (determinant sign flip)",
                                     model=exc.model) from exc
            raise
    margins = dists.min(axis=1)
    near = dists - margins[:, None] <= DEGENERACY_TOL * margins[:, None]
    margin_thetas = span[near.argmax(axis=1)].tolist()

    results = []
    for i, (model, o) in enumerate(zip(models, orbits)):
        margin, margin_theta = float(margins[i]), margin_thetas[i]
        if margin <= 0.0:
            raise GapClosedError(margin_theta, e_ref, model=i)
        _check_fixed_phases(model, o.reflections, n_grid,
                            [(o.first, grid[o.first], phases[i, o.first - lo]),
                             (o.last, grid[o.last], phases[i, o.last - lo])])
        total = o.copies * totals[i]
        if not all(antiunitary for _, _, antiunitary in o.reflections):
            # a unitary relation gives phi(theta0 - theta) = phi(theta): W = 0
            value, total = 0, 0.0
        else:
            value = int(round(total / (2.0 * np.pi)))
            if abs(total / (2.0 * np.pi) - value) >= INTEGER_TOL:
                raise WindingUnresolvedError(0.0, 2.0 * np.pi, model=i)
        results.append(WindingResult(
            value=value, raw_phase_change=float(total),
            max_phase_step=float(tracker.max_step[i]), gap_margin=margin,
            margin_theta=margin_theta,
            grid_size_used=o.last - o.first + 1 + tracker.midpoints[i]))
    return results[0] if one else results


def spin_winding(model, eps_ref: complex = 0.0,
                 n_grid: int = DEFAULT_N_GRID) -> SpinWindingResult:
    """Spin-resolved winding (w_up - w_dn)/2 of a spin-diagonal one-body model.

    The two s^z blocks are split on the model's term list
    (``model.spin_blocks``): an entry coupling them, at any theta, raises
    ``SpinSymmetryError``.  Each block is then wound independently by
    ``many_body_winding``, which sidesteps the branch cuts of a matrix
    logarithm while agreeing with it wherever the blocks decouple.
    """
    up, dn = model.spin_blocks()
    w_up = many_body_winding(up, eps_ref, n_grid)
    w_dn = many_body_winding(dn, eps_ref, n_grid)
    return SpinWindingResult(Fraction(w_up.value - w_dn.value, 2), w_up, w_dn)
