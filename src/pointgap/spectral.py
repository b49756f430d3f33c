"""Dense non-Hermitian eigendecomposition, twist sweeps, and determinant phases.

The winding primitive is the phase of ``det[H(theta) - E_ref]``, accumulated
factor by factor: from a pivoted LU decomposition, or from eigenvalues
already at hand, as det[H - E] = prod_i (lambda_i - E).  Tracking that
phase avoids any eigenvalue pairing across theta (trajectories cross and
permute freely).  Eigendecompositions are used for full spectral flows, gap
margins and occupation observables.

Small matrices, several to a twist stack, are eigensolved in one batch
(``stack_eigvals``) by a twist sweep (``sweep_theta``), whose rows their
windings read, and LU-factored dense and in place, one at a time
(``zgetrf``).  A matrix alone in its stack (d > 128) is a sector Hamiltonian
with a handful of nonzeros per column: reverse Cuthill-McKee ordering
(Cuthill & McKee, 1969) gathers them into a narrow band, and LAPACK's banded
LU (``zgbtrf``; Anderson et al., *LAPACK Users' Guide*, SIAM 1999) factors
P (M - E) P^T, whose determinant is det(M - E).  A sector model's pattern
does not depend on theta, so the model keeps one ``band_layout`` of it, made
at its first band factor, and each twist point scatters the model's entries
at theta straight into band storage (``factor_model``): no d x d matrix is
built, scanned or ordered per point.  At d = 6864, J = V = 1 (half-band 707)
one point took 0.84 s at a peak RSS of 292 MB that way, against 1.63 s
through the dense H(theta), and 7-12 s for a dense LU, on 2 vCPUs.  The
(7,-1) and (9,-1) points through dense H(theta) peak at 389 MB, where they
took 1013 MB before ``SectorModel.stack`` left unwritten pages lazily zeroed.
A plain matrix (``factor_shifted``) is scanned for its nonzeros and then
takes the same band path.  A matrix whose band would not be smaller than
itself is factored dense.

A twist grid is reflected onto itself by a sector model's verified
relations U H(theta)^(*) U^-1 = s H(theta0 - theta)
(``SectorModel.twist_relations``), point-gap symmetries of the kind
classified by Kawabata, Shiozaki, Ueda & Sato, PRX 9, 041015 (2019): each
maps spec H(theta) to spec H(theta0 - theta) times s, conjugated where U is
antiunitary.  The orbits they generate and the fundamental arc that meets
every orbit (``twist_orbits``) are shared by the sweep and the winding: a
sweep eigensolves the lowest arc point of each orbit and fills every other
row as the exact image of that row, and a winding tracks the arc only.

One sweep takes one model or a list of models of one dimension, such as
the points of a deformation path: its stacks run on from one model's
solved points to the next, so a path of small models takes a few
``eigvals`` calls, and each model's flow is the one it gets swept alone.

scipy's LAPACK (``zgetrf``, ``zgbtrf`` and their solves) is imported at
the first LU, not with this module: most small runs make none, and the
import is about 0.2 s of a fresh process.  That import may map scipy's own
OpenBLAS inside a BLAS thread pin (``blas_threads_for``), which then pins
it too.

This module knows matrices and sector models, not parameters: a sweep
takes ``SectorModel``s and builds their matrices with the models' ``stack``,
or their band entries with ``values``.  Turning parameters into a model is
the job of ``models``.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

RESIDUAL_RTOL = 1e-8
DEGENERACY_TOL = 1e-8
SINGULARITY_RTOL = 1e-12

MIN_N_GRID = 16  # fewest twist intervals a sweep, a winding or a config takes

# Below this matrix dimension one BLAS thread beats two.  Measured on 2 cores
# with OpenBLAS 0.3.31, one thread against two, for the band LU and ARPACK
# gap margin of one twist point of a J = V = 1 chain sector (``factor_model``
# and the winding's shift-invert margin): 2-5 ms against 3-15 ms at d = 182,
# 17-24 ms against 30-58 ms at d = 728, 0.13-0.15 s against 0.17-0.20 s (at
# twice the CPU) at d = 2002, 0.58-1.07 s against 0.66-0.90 s at d = 4004
# and 2.1-3.2 s against 1.6-2.6 s at d = 6864.
BLAS_THREAD_CROSSOVER_DIM = 3000

# A twist sweep builds and solves its matrices in stacks of at most
# this many bytes (one matrix at least): 2048 matrices at d = 4 (the 33
# points of a dot path at n_grid 64 take two stacks), 41 matrices at d = 28,
# one at d >= 182.  Few stacks per sweep amortize Python's per-call overhead
# over the small sectors; stacking a whole 257-point grid at d = 28 instead
# would hold 3.2 MB of matrices at once.
STACK_BYTES = 512 * 1024


class SpectralError(Exception):
    """Base class for engine failures."""


class EigensolverError(SpectralError):
    """Dense eigensolver did not converge; a sweep's names the ``theta`` it
    failed at and, in a sweep of several models, the ``model`` index."""

    def __init__(self, message, theta=None, model=None):
        self.theta = theta
        self.model = model
        super().__init__(message)


class SpectrumHitError(SpectralError):
    """Reference energy sits on (or numerically on) the spectrum."""


class SpinSymmetryError(SpectralError):
    """spin-parity constraint broken: [s^z, h(theta)] != 0."""


@dataclass
class EigenSolution:
    """Eigenvalues with unit-norm right eigenvectors and per-pair diagnostics.

    ``defective[i]`` marks pairs whose residual exceeds tolerance or that
    belong to a degenerate cluster (``clusters``, from ``cluster_labels``)
    with a deficient eigenvector rank (e.g. the open-boundary noninteracting
    chain, a single Jordan block); consumers must branch on the flag before
    trusting individual vectors.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray
    defective: np.ndarray
    clusters: np.ndarray

    @property
    def dim(self):
        return len(self.values)


def _fix_phases(vectors: np.ndarray) -> np.ndarray:
    """Unit 2-norm columns with the largest-magnitude component real-positive."""
    out = vectors.copy()
    for k in range(out.shape[1]):
        col = out[:, k]
        nrm = np.linalg.norm(col)
        if nrm > 0:
            col = col / nrm
        lead = col[np.argmax(np.abs(col))]
        if lead != 0:
            col = col * (np.conj(lead) / abs(lead))
        out[:, k] = col
    return out


def cluster_labels(values: np.ndarray) -> np.ndarray:
    """Group nearly equal eigenvalues; labels count up in (re, im) order.

    Two values within ``DEGENERACY_TOL`` (relative to the largest modulus,
    at least 1) of each other share a cluster, and so does a chain of such
    pairs (single linkage), whatever the sort order puts between them.  A
    cluster's label is the rank of its first member in (re, im) order.
    """
    tol = DEGENERACY_TOL * np.abs(values).max(initial=1.0)
    order = np.lexsort((values.imag, values.real))
    v = values[order]
    # root[i] is the first member, in this order, of the cluster of v[i].  A
    # pair within tol lies k places apart, for a k below the first offset at
    # which every pair of real parts differs by more than tol.
    n = len(v)
    root = np.arange(n)
    for k in range(1, n):
        near = np.flatnonzero(v.real[k:] - v.real[:-k] <= tol)
        if len(near) == 0:
            break
        near = near[np.abs(v[near + k] - v[near]) <= tol]
        lo, hi = root[near], root[near + k]
        while np.any(lo != hi):  # hang each later root under the earlier one
            np.minimum.at(root, np.maximum(lo, hi), np.minimum(lo, hi))
            while np.any(root[root] != root):
                root = root[root]
            lo, hi = root[near], root[near + k]
    labels = np.empty(n, dtype=int)
    labels[order] = np.unique(root, return_inverse=True)[1]
    return labels


def eigendecompose(matrix) -> EigenSolution:
    """Full eigendecomposition of a square matrix."""
    a = np.asarray(matrix, dtype=complex)
    dim = a.shape[0]
    try:
        values, vectors = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(
            f"eigensolver failed on dim={dim} matrix "
            f"(|H|_F={np.linalg.norm(a):.3e}, nonfinite={np.count_nonzero(~np.isfinite(a))})"
        ) from exc
    vectors = _fix_phases(vectors)
    scale = np.linalg.norm(a)
    residuals = np.linalg.norm(a @ vectors - vectors * values[None, :], axis=0)
    defective = residuals > RESIDUAL_RTOL * max(scale, 1e-300)

    # rank-deficient degenerate clusters: compare the numerical rank of each
    # cluster's eigenvector block to the cluster size
    clusters = cluster_labels(values)
    by_cluster = np.argsort(clusters, kind="stable")
    for cl in np.split(by_cluster, np.flatnonzero(np.diff(clusters[by_cluster])) + 1):
        if len(cl) < 2:
            continue
        sv = np.linalg.svd(vectors[:, cl], compute_uv=False)
        rank = int(np.sum(sv > sv[0] * 1e-6))
        if rank < len(cl):
            defective[cl] = True
    return EigenSolution(values, vectors, residuals, defective, clusters)


@dataclass
class SpectralFlow:
    """Eigenvalue trajectories over an ordered parameter grid."""

    grid: np.ndarray
    spectra: np.ndarray  # (len(grid), dim)

    @property
    def dim(self):
        return self.spectra.shape[1]


def theta_grid(n_grid: int) -> np.ndarray:
    """The n_grid + 1 points 2 pi k / n_grid of a twist sweep or winding."""
    if n_grid < MIN_N_GRID:
        raise ValueError(f"n_grid must be at least {MIN_N_GRID}")
    return np.linspace(0.0, 2.0 * np.pi, n_grid + 1)


def stack_length(dim: int) -> int:
    """Matrices per stack that ``sweep_theta`` builds and eigensolves at
    once, at dimension ``dim``; with ``STACK_BYTES`` at 512 KiB, one for
    every dim above 128."""
    return max(1, STACK_BYTES // max(16 * dim * dim, 1))


def stack_eigvals(stack, thetas, model_index=None):
    """Eigenvalues of every matrix of a stack, one row each.

    Where the stack fails, its matrices are solved one by one, and the
    first that fails raises ``EigensolverError`` naming its theta and,
    where ``model_index`` gives the model of each matrix, its model.
    """
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        pass  # solve the stack again point by point to name the failing matrix
    values = np.empty(stack.shape[:2], dtype=complex)
    for k, theta in enumerate(thetas):
        try:
            values[k] = np.linalg.eigvals(stack[k])
        except np.linalg.LinAlgError as exc:
            model = None if model_index is None else int(model_index[k])
            raise EigensolverError(f"eigensolver failed at theta={theta:.6f}"
                                   + ("" if model is None else f" of model {model}"),
                                   theta=float(theta), model=model) from exc
    return values


def _fundamental_arc(offsets, n_grid):
    """(first, last, m): the base-grid indices first..last of an arc whose
    images under the reflections k -> a - k, a in ``offsets``, cover the
    circle, and the m copies of it that make the loop.  Two reflections,
    at a = 0 and n_grid / 2, leave a quarter; one leaves the half between
    its fixed points, at a / 2 and a / 2 + n_grid / 2.  Where those are not
    grid points, or with no reflection, the arc is the whole circle."""
    quarter, half = n_grid // 4, n_grid // 2
    if offsets == {0, half} and n_grid % 4 == 0:
        return 0, quarter, 4
    if 0 in offsets and n_grid % 2 == 0:
        return 0, half, 2
    if offsets == {half} and n_grid % 4 == 0:
        return quarter, 3 * quarter, 2
    return 0, n_grid, 1


@dataclass(frozen=True)
class TwistOrbits:
    """The orbits of the twist grid k = 0..n_grid under grid reflections.

    ``reflections`` holds (a, s, antiunitary) for each relation the grid
    uses, a reflection k -> a - k (mod n_grid).  ``first``..``last`` is the
    fundamental arc and ``copies`` the m copies of it that make the loop.
    Point k lies in the orbit of the arc point ``source[k]``, the lowest arc
    point of its orbit, and spec H(theta_k) is spec H(theta_source[k]),
    negated where ``negate[k]`` and conjugated where ``conjugate[k]``.
    ``solved`` holds the points that are their own source: one per orbit.
    """

    reflections: tuple
    first: int
    last: int
    copies: int
    source: np.ndarray
    negate: np.ndarray
    conjugate: np.ndarray

    @property
    def solved(self) -> np.ndarray:
        return np.flatnonzero(self.source == np.arange(len(self.source)))


def twist_orbits(model, n_grid: int, e_ref=None) -> TwistOrbits:
    """The ``TwistOrbits`` of a ``SectorModel``'s twist grid under its
    verified relations U H(theta)^(*) U^-1 = s H(theta0 - theta)
    (``model.twist_relations``).  Each maps the grid to itself by the
    reflection k -> a - k (mod n_grid), theta0 = 2 pi a / n_grid, and spec
    H(theta) to spec H(theta0 - theta) negated where s < 0 and conjugated
    where U is antiunitary.  A relation with theta0 = pi needs an even
    n_grid.

    With ``e_ref`` None every relation is taken.  With an ``e_ref`` only
    those that keep the distance from it to the spectrum, and fix
    det[H(theta) - e_ref] up to conjugation, are: those with s e_ref^(*) =
    e_ref, conjugated where U is antiunitary.  The unitary mirror keeps
    every E, s = -1 an imaginary one and s = +1 a real one.

    The one rule for sweeps and windings alike: a grid whose n_grid + 1
    points fit one stack (``stack_length(d) > n_grid``) gets none, and no
    relation is looked up, since that stack costs less whole than the lookup
    (0.16 ms for a dot sector, 0.29 ms for chain (3,-1) at d = 28, on
    2 vCPUs).

    The group the reflections generate holds the identity, each reflection
    and the shifts k -> k + b - a that two of them compose to (a shift by
    n_grid / 2 is its own inverse, so that is the whole group); a composed
    shift maps spectra by both relations' maps.  Each point takes its source
    from the first group element, in that order, that maps the lowest arc
    point of its orbit to it, so a source maps to itself by the identity.  A
    reflection takes k = n_grid (theta = 2 pi) where it takes k = 0; with
    none, every point, theta = 2 pi included, is its own orbit.
    """
    reflections = ()
    if stack_length(model.dim) <= n_grid:
        reflections = tuple(
            (0 if theta0 == 0.0 else n_grid // 2, sign, antiunitary)
            for theta0, sign, antiunitary in model.twist_relations
            if (theta0 == 0.0 or n_grid % 2 == 0)
            and (e_ref is None
                 or sign * (np.conj(e_ref) if antiunitary else e_ref) == e_ref))
    first, last, copies = _fundamental_arc({a for a, _, _ in reflections}, n_grid)
    points = np.arange(n_grid + 1)
    negate = np.zeros(n_grid + 1, dtype=bool)
    conjugate = np.zeros(n_grid + 1, dtype=bool)
    if not reflections:
        return TwistOrbits(reflections, first, last, copies, points, negate, conjugate)
    # group elements (c, e, negate, conjugate): theta_j -> theta_(c + e j)
    maps = [(a, -1, sign < 0, antiunitary) for a, sign, antiunitary in reflections]
    elements = [(0, 1, False, False), *maps,
                *((b - a, 1, n1 != n2, c1 != c2)
                  for a, _, n1, c1 in maps for b, _, n2, c2 in maps)]
    source = np.full(n_grid + 1, n_grid + 1)
    for c, e, neg, conj in elements:
        j = e * (points - c) % n_grid  # j[k] is the point it maps to k
        lower = (first <= j) & (j <= last) & (j < source)
        source[lower], negate[lower], conjugate[lower] = j[lower], neg, conj
    return TwistOrbits(reflections, first, last, copies, source, negate, conjugate)


def model_list(models, caller: str, noun: str):
    """(one, models): whether ``models`` is one model rather than a list or
    tuple of them, and the models as a list.  ValueError for an empty list
    or models of different dimensions, naming the ``caller`` and its
    ``noun``."""
    one = not isinstance(models, (list, tuple))
    models = [models] if one else list(models)
    if not models:
        raise ValueError(f"{caller} needs at least one model")
    if any(model.dim != models[0].dim for model in models):
        raise ValueError(f"the models of one {noun} must share their dimension")
    return one, models


def sweep_theta(models, n_grid: int):
    """Eigenvalues of a ``SectorModel`` at theta_k = 2 pi k / n_grid for
    k = 0..n_grid (inclusive), one row per point, each sorted by (real,
    imag) for reproducible output: a ``SpectralFlow``.  Given a list or
    tuple of models of one dimension, such as the points of a deformation
    path, it returns a list of their flows, each bit for bit the flow of
    its model swept alone; one model is the sequence of one.

    The models' solved points are built and eigensolved in stacks of
    ``stack_length(d)`` matrices that run on from one model to the next, so
    a path of small models takes a few ``eigvals`` calls, not one per
    model; a stack of one matrix (d > 128) holds one model's, on the lazily
    zeroed pages of ``SectorModel.stack``.  A failing eigensolve raises
    ``EigensolverError`` naming its theta and, for a list of models, its
    model's index.  The flows share no memory: each has its own grid.

    Each grid is solved at one point per orbit of its model's verified
    relations (``twist_orbits``, every relation whatever the reference
    energy): the lowest point of each orbit on the fundamental arc, in
    stacks.  Every other row is the exact image of its orbit's solved row -
    negated where the relation's s < 0 and conjugated where it is
    antiunitary, so the same values under the mirror, their conjugates
    (s = +1), -conj (s = -1) or their negatives (a shift by pi that two
    relations compose to) - sorted again.  On a chain sector with both conjugation relations,
    at an even n_grid divisible by 4, that is the quarter arc theta in
    [0, pi / 2]: 65 of 257 points at n_grid 256.  Image rows agree with a
    direct eigensolve at their own theta to rounding, not bit for bit:
    within 9.8e-15 on chain (3,-1) and 3.2e-14 on (4,+1) at L = 7,
    J = V = 1.  A grid without reflections is solved at every point.
    """
    one, models = model_list(models, "sweep_theta", "sweep")
    d = models[0].dim
    grid = theta_grid(n_grid)
    n = len(grid)
    # row i * n + k of the joined grid is model i at theta_k
    orbits = [twist_orbits(model, n_grid) for model in models]
    source = np.concatenate([o.source + i * n for i, o in enumerate(orbits)])
    solved = np.flatnonzero(source == np.arange(len(source)))
    spectra = np.empty((len(source), d), dtype=complex)
    step = stack_length(d)
    for start in range(0, len(solved), step):
        rows = solved[start:start + step]
        which, points = np.divmod(rows, n)
        stack = _model_stack(models, which, grid[points])
        spectra[rows] = _sorted_rows(
            stack_eigvals(stack, grid[points], None if one else which))
        del stack  # free it before the next one is built
    images = np.flatnonzero(source != np.arange(len(source)))
    if len(images):
        values = spectra[source[images]]
        conjugate = np.concatenate([o.conjugate for o in orbits])[images]
        negate = np.concatenate([o.negate for o in orbits])[images]
        values[conjugate] = values[conjugate].conj()
        values[negate] = -values[negate]
        spectra[images] = _sorted_rows(values)
    flows = [SpectralFlow(grid.copy(), spectra[i * n:(i + 1) * n])
             for i in range(len(models))]
    return flows[0] if one else flows


def _model_stack(models, which, thetas):
    """The stack of ``models[which[k]]`` at ``thetas[k]``: each run of one
    model's points built by its ``stack`` and the runs joined, so a stack of
    one model, such as a one-matrix stack (d > 128) on its lazily zeroed
    pages, is that model's own."""
    bounds = [0, *(np.flatnonzero(np.diff(which)) + 1).tolist(), len(which)]
    parts = [models[which[lo]].stack(thetas[lo:hi]) for lo, hi in zip(bounds[:-1], bounds[1:])]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _sorted_rows(values):
    """Each row of ``values`` sorted by (real, imag)."""
    order = np.lexsort((values.imag, values.real), axis=-1)
    return np.take_along_axis(values, order, axis=-1)


def wrap_phase(phi):
    """Reduce to the principal branch (-pi, pi]: a float for a scalar, an
    array for an array."""
    out = np.remainder(np.add(phi, np.pi), 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return out if out.ndim else float(out)


@dataclass
class ShiftedLU:
    """Pivoted LU of a shifted matrix M - E, dense or band.

    Dense: ``lu`` is the d x d ``zgetrf`` factor.  Band: row k of the factored
    matrix P (M - E) P^T is row ``perm[k]`` of M - E, and ``lu`` is its
    ``zgbtrf`` factor in LAPACK band storage, with ``kl`` sub- and ``ku``
    superdiagonals.  ``piv`` holds 0-based row interchanges either way.
    """

    lu: np.ndarray
    piv: np.ndarray
    kl: int = 0
    ku: int = 0
    perm: np.ndarray | None = None

    @property
    def dim(self):
        return len(self.piv)

    def diagonal(self) -> np.ndarray:
        """U's diagonal."""
        if self.perm is None:
            return np.diagonal(self.lu)
        return self.lu[self.kl + self.ku]

    def solve(self, b, trans: int = 0) -> np.ndarray:
        """x with (M - E) x = b; ``trans=2`` solves with (M - E)^H."""
        lapack = _scipy_lapack()
        if self.perm is None:
            x, info = lapack.zgetrs(self.lu, self.piv, b, trans=trans)
            if info < 0:
                raise ValueError(f"illegal value in argument {-info} of zgetrs")
            return x
        # P (M - E) P^T (P x) = P b, and likewise for the conjugate transpose
        y, info = lapack.zgbtrs(self.lu, self.kl, self.ku, b[self.perm], self.piv,
                                trans=trans)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of zgbtrs")
        x = np.empty_like(y)
        x[self.perm] = y
        return x


def factor_shifted(matrix, e_ref: complex):
    """Pivoted LU of (M - e_ref) as a ``ShiftedLU``, plus the Frobenius scale
    of the shift.  M is left unchanged.

    A matrix alone in its twist stack (``stack_length(d) == 1``) is factored
    as a band when its band storage is smaller than the matrix: its nonzeros
    are found by a scan, ordered by ``band_layout`` and factored by
    ``_factor_band``.  Any other is copied once and LU-factored in place
    (``_factor_dense``), so at most two d x d buffers, M and the factors,
    are live.  A sector model's own matrices skip the scan and
    the dense matrix (``factor_model``).
    """
    a = np.asarray(matrix)
    if stack_length(a.shape[0]) == 1:
        # the C order of a.T is the memory order of an F-ordered a
        cols, rows = np.nonzero(a.T)
        layout = band_layout(rows, cols, a.shape[0])
        if layout is not None:
            return _factor_band(layout, a.T[cols, rows], e_ref)
    return _factor_dense(a, e_ref)


def factor_model(model, theta: float, e_ref: complex):
    """The LU of ``factor_shifted(model(theta), e_ref)``, bit for bit: dense
    where matrices share a stack, and then no band is made.

    A matrix alone in its stack is built from the model's pattern: its band
    (``model.band_layout``, a ``band_layout`` of its entries, made once) and
    its entries at theta (``model.values(theta)``, in the same order), so no
    d x d matrix is built and nothing is scanned or ordered per point.  A
    model without a band (``band_layout`` None) is factored dense.
    """
    layout = model.band_layout if stack_length(model.dim) == 1 else None
    if layout is None:
        return _factor_dense(model(theta), e_ref)
    return _factor_band(layout, model.values(theta), e_ref)


def _factor_dense(a, e_ref: complex):
    """Dense LU of (a - e_ref) with its Frobenius scale: ``a`` is copied once
    and the copy shifted and factored in place (``zgetrf``)."""
    lu = np.array(a, dtype=complex, order="F")
    lu.flat[:: len(lu) + 1] -= e_ref  # the diagonal
    parts = lu.T.view(np.float64).reshape(-1)
    scale = np.sqrt(parts @ parts)
    lu, piv, info = _scipy_lapack().zgetrf(lu, overwrite_a=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgetrf")
    return ShiftedLU(lu, piv), scale


@dataclass(frozen=True)
class BandLayout:
    """Where the entries of a sparse pattern go in LAPACK band storage.

    The ordered matrix, whose row k is row ``perm[k]`` of the original, has
    ``kl`` sub- and ``ku`` superdiagonals.  Entry i of the
    pattern lands at flat index ``index[i]`` of the (2 kl + ku + 1, d)
    F-ordered band buffer, whose top kl rows are room for fill-in.
    """

    perm: np.ndarray
    kl: int
    ku: int
    index: np.ndarray


def band_layout(rows, cols, dim: int):
    """The ``BandLayout`` of the entries (rows[i], cols[i]) of a d x d
    matrix in reverse Cuthill-McKee order, or None where band storage,
    2 kl + ku + 1 rows, would not be smaller than the matrix.

    Repeated (row, col) pairs are allowed and land at the same index.  The
    order depends only on the set of pairs, so a matrix scanned for its
    nonzeros and the term list that built it get the same layout wherever
    no entry cancels to exactly zero.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import reverse_cuthill_mckee  # loads scipy.sparse.linalg

    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    # each pair once, in column-major order: the order of a dense scan
    pair_cols, pair_rows = np.divmod(np.unique(cols * dim + rows), dim)
    graph = csr_matrix((np.ones(2 * len(pair_rows), dtype=np.int8),
                        (np.concatenate((pair_rows, pair_cols)),
                         np.concatenate((pair_cols, pair_rows)))),
                       shape=(dim, dim))
    perm = reverse_cuthill_mckee(graph, symmetric_mode=True)
    position = np.empty(dim, dtype=np.intp)
    position[perm] = np.arange(dim)
    r, c = position[rows], position[cols]
    kl = int((r - c).max(initial=0))
    ku = int((c - r).max(initial=0))
    if 2 * kl + ku + 1 >= dim:
        return None
    # A(i, j) sits at ab[kl + ku + i - j, j] of the F-ordered band buffer ab
    return BandLayout(perm, kl, ku, c * (2 * kl + ku + 1) + (kl + ku + r - c))


def _factor_band(layout: BandLayout, values, e_ref: complex):
    """Band LU of (A - e_ref) with its scale, where A has entries ``values``
    at the pattern of ``layout``; repeated entries add up in their order.
    No d x d buffer is made."""
    kl, ku, d = layout.kl, layout.ku, len(layout.perm)
    ab = np.zeros((2 * kl + ku + 1, d), dtype=complex, order="F")
    np.add.at(ab.T.reshape(-1), layout.index, values)
    ab[kl + ku] -= e_ref
    parts = ab.T.view(np.float64).reshape(-1)
    scale = np.sqrt(parts @ parts)
    lu, piv, info = _scipy_lapack().zgbtrf(ab, kl, ku, overwrite_ab=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of zgbtrf")
    return ShiftedLU(lu, piv, kl, ku, layout.perm), scale


def phase_from_factors(factors: ShiftedLU, scale: float, e_ref: complex):
    """(log magnitude, principal phase) of the determinant behind an LU."""
    diag = factors.diagonal()
    if np.abs(diag).min(initial=np.inf) <= SINGULARITY_RTOL * max(scale, 1e-300):
        raise SpectrumHitError(
            f"reference energy {e_ref} lies on the spectrum "
            f"(pivot {np.abs(diag).min():.3e})")
    log_mag = float(np.sum(np.log(np.abs(diag))))
    swaps = np.count_nonzero(factors.piv != np.arange(len(diag)))
    return log_mag, wrap_phase(np.sum(np.angle(diag)) + np.pi * (swaps % 2))


def logdet_phase(matrix, e_ref: complex = 0.0):
    """Principal log-determinant of (M - e_ref), split as (log magnitude, phase).

    The phase is accumulated factor-by-factor over the pivoted triangular
    diagonal and then reduced to (-pi, pi].  Raises SpectrumHitError when a
    pivot falls below the singularity tolerance.
    """
    a = np.asarray(matrix, dtype=complex)
    if a.shape[0] == 0:
        return 0.0, 0.0
    factors, scale = factor_shifted(a, e_ref)
    return phase_from_factors(factors, scale, e_ref)


def sigma_min_from_factors(factors: ShiftedLU, dim: int, iters: int = 8) -> float:
    """Inverse-iteration estimate of the smallest singular value behind an LU.

    The iteration converges to sigma_min from above, so after ``iters`` steps
    the value is an estimate, not a bound.  No program path calls it: gap
    margins are nearest-eigenvalue distances.  Its only caller is the
    benchmark's ``chain-large`` workload.
    """
    v = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    growth = 0.0
    for _ in range(iters):
        w = factors.solve(v)
        u = factors.solve(w, trans=2)
        growth = np.linalg.norm(u)
        if not np.isfinite(growth) or growth == 0.0:
            return 0.0
        v = u / growth
    return float(1.0 / np.sqrt(growth))


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------

def _openblas_function(lib, stem, argtypes, restype):
    # exported names differ by build: plain OpenBLAS, scipy-openblas (32-bit
    # integers) and scipy-openblas64 (symbol suffix "64_")
    for prefix in ("scipy_openblas_", "openblas_"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}{stem}{suffix}", None)
            if fn is not None:
                fn.argtypes = argtypes
                fn.restype = restype
                return fn
    return None


# scipy.linalg.lapack, once the first LU or solve has imported it
_lapack = None
# the (get, set) controls of the last OpenBLAS scan; None until a lookup scans
_controls = None
# restore lists [(set_num_threads, count)] of the pins in force, outermost first
_pins = []


def _scipy_lapack():
    """scipy.linalg.lapack, imported at the first LU or solve and kept.

    A run that factors nothing never loads ``scipy.linalg``, about 0.2 s of
    a fresh process.  The import may map scipy's own OpenBLAS, and may do
    so inside a ``blas_threads_for`` pin that looked the libraries up
    before it; so, on this first import only, they are looked up again
    (``_adopt_new_openblas``).  Later calls only return the module: ARPACK
    solves hundreds of times per winding.
    """
    global _lapack
    if _lapack is None:
        import scipy.linalg.lapack

        _lapack = scipy.linalg.lapack
        _adopt_new_openblas()
    return _lapack


def _function_address(fn):
    return ctypes.cast(fn, ctypes.c_void_p).value


def _adopt_new_openblas():
    """Drop the kept controls, and where a pin is in force, pin each OpenBLAS
    they did not hold to one thread, its count restored on the outermost
    pin's exit.  Libraries are told apart by function address: each scan
    makes new ctypes objects for the same library."""
    global _controls
    old, _controls = _controls, None
    if old is None or not _pins:
        return
    known = {_function_address(get) for get, _ in old}
    for get, set_threads in openblas_thread_controls():
        if _function_address(get) not in known:
            _pins[0].append((set_threads, get()))
            set_threads(1)


def _scan_openblas():
    paths = []
    try:
        with open("/proc/self/maps") as fh:
            for line in fh:
                path = line.split()[-1]
                name = os.path.basename(path)
                if "openblas" in name and ".so" in name and path not in paths:
                    paths.append(path)
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # already mapped: returns the loaded handle
        except OSError:
            continue
        get = _openblas_function(lib, "get_num_threads", [], ctypes.c_int)
        set_ = _openblas_function(lib, "set_num_threads", [ctypes.c_int], None)
        if get is not None and set_ is not None:
            controls.append((get, set_))
    return tuple(controls)


def openblas_thread_controls():
    """(get_num_threads, set_num_threads) of every OpenBLAS in this process.

    numpy and scipy each bundle their own OpenBLAS.  numpy's is mapped with
    numpy; scipy's with ``scipy.linalg``, which this package imports at its
    first LU (``_scipy_lapack``) or earlier through ``scipy.sparse``,
    ``scipy.spatial`` or ``scipy.optimize``.  So the lookup is kept per set
    of loaded libraries: the first call scans /proc/self/maps, and the
    first LU scans again.  Nothing here runs scipy's BLAS before that LU,
    so no pin misses a library that a computation uses.  Empty where no
    OpenBLAS is found (another BLAS, or no /proc/self/maps).
    """
    global _controls
    if _controls is None:
        _controls = _scan_openblas()
    return _controls


@contextmanager
def blas_threads_for(dim: int):
    """Run the body on one BLAS thread when ``dim`` is below the crossover.

    Every loaded OpenBLAS is pinned to one thread and its old count restored
    on exit, exceptions included.  One that the body's first LU maps
    (scipy's, in a process that had not loaded ``scipy.linalg``) is pinned
    as it loads and restored with the others.  At or above
    ``BLAS_THREAD_CROSSOVER_DIM``, or when no OpenBLAS is found, nothing
    changes.  Thread counts are process-wide, so the pin is meant for one
    computation at a time.
    """
    if dim >= BLAS_THREAD_CROSSOVER_DIM:
        yield
        return
    restore = [(set_threads, get()) for get, set_threads in openblas_thread_controls()]
    for set_threads, _ in restore:
        set_threads(1)
    _pins.append(restore)
    try:
        yield
    finally:
        _pins.pop()
        for set_threads, n in restore:
            set_threads(n)
