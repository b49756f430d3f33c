"""Dense non-Hermitian eigendecomposition, twist sweeps, and determinant phases.

The winding primitive is the phase of ``det[H(theta) - E_ref]`` accumulated
factor-by-factor from a pivoted LU decomposition; tracking that phase avoids
any eigenvalue pairing across theta (trajectories cross and permute freely).
Eigendecompositions are used for full spectral flows, gap margins and
occupation observables.

This module knows matrices, not models: a sweep takes any ``theta ->
matrix`` callable, and uses the ``stack`` method of a ``SectorModel`` when
it has one.  Turning parameters into a model is the job of ``models``.
"""

from __future__ import annotations

import ctypes
import os
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import chain

import numpy as np
from scipy.linalg import lu_solve
from scipy.linalg.lapack import zgetrf

RESIDUAL_RTOL = 1e-8
DEGENERACY_TOL = 1e-8
SINGULARITY_RTOL = 1e-12

# Below this matrix dimension one BLAS thread beats two.  Measured on 2 cores
# with OpenBLAS 0.3.31: a complex LU takes 1.0 ms on one thread and 1.2 ms
# (at twice the CPU) on two at d = 182, against 590 ms and 340 ms at d = 2000;
# a chain (5,+1) winding at d = 728 took 12.5 s on one thread and 12.9-13.6 s
# (23-24 s CPU) on two.  The chain sectors in between are d = 728 and 2002.
BLAS_THREAD_CROSSOVER_DIM = 1000

# A twist sweep builds, solves and factors its matrices in stacks of at most
# this many bytes (one matrix at least): a whole 65-point grid at d = 4, 41
# matrices at d = 28, one at d >= 182.  One stack per call amortizes Python's per-call overhead
# over the small sectors; stacking a whole 257-point grid at d = 28 instead
# would hold 3.2 MB of matrices at once.
STACK_BYTES = 512 * 1024


class SpectralError(Exception):
    """Base class for engine failures."""


class EigensolverError(SpectralError):
    """Dense eigensolver did not converge."""


class SpectrumHitError(SpectralError):
    """Reference energy sits on (or numerically on) the spectrum."""


@dataclass
class EigenSolution:
    """Eigenvalues with unit-norm right eigenvectors and per-pair diagnostics.

    ``defective[i]`` marks pairs whose residual exceeds tolerance or that
    belong to a degenerate cluster with a deficient eigenvector rank (e.g. the
    open-boundary noninteracting chain, a single Jordan block); consumers must
    branch on the flag before trusting individual vectors.
    """

    values: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray
    defective: np.ndarray

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

    Sorted by (re, im), each value joins its predecessor's cluster when it
    lies within ``DEGENERACY_TOL`` (relative to the largest modulus, at
    least 1) of it, so a chain of near ties forms one cluster.
    """
    labels = np.zeros(len(values), dtype=int)
    if len(values) == 0:
        return labels
    tol = DEGENERACY_TOL * max(np.abs(values).max(), 1.0)
    order = np.lexsort((values.imag, values.real))
    current = 0
    for prev, i in zip(order[:-1], order[1:]):
        if abs(values[i] - values[prev]) > tol:
            current += 1
        labels[i] = current
    return labels


def eigendecompose(matrix) -> EigenSolution:
    """Full eigendecomposition of a square matrix."""
    a = np.asarray(matrix, dtype=complex)
    dim = a.shape[0]
    if dim == 0:
        z = np.zeros(0)
        return EigenSolution(z.astype(complex), np.zeros((0, 0), complex), z, z.astype(bool))
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
    order = np.lexsort((values.imag, values.real))
    labels = cluster_labels(values)[order]
    for cl in np.split(order, np.flatnonzero(np.diff(labels)) + 1):
        if len(cl) < 2:
            continue
        sv = np.linalg.svd(vectors[:, cl], compute_uv=False)
        rank = int(np.sum(sv > sv[0] * 1e-6))
        if rank < len(cl):
            defective[cl] = True
    return EigenSolution(values, vectors, residuals, defective)


@dataclass
class SpectralFlow:
    """Eigenvalue trajectories over an ordered parameter grid."""

    grid: np.ndarray
    spectra: np.ndarray  # (len(grid), dim)

    @property
    def dim(self):
        return self.spectra.shape[1]


def theta_grid(n_grid: int) -> np.ndarray:
    return np.linspace(0.0, 2.0 * np.pi, n_grid + 1)


def twist_stacks(matrix_fn, thetas):
    """Yield ``(start, stack)`` pairs covering ``thetas`` in order.

    ``stack[k]`` is the F-contiguous matrix at ``thetas[start + k]``, and a
    stack holds at most ``STACK_BYTES`` of matrices (one matrix at least).
    A ``SectorModel`` builds each stack with one scatter (``stack``); any
    other ``matrix_fn(theta)`` is called once per angle, in order, and its
    first matrix sets the size of the stacks.
    """
    if hasattr(matrix_fn, "stack"):
        build, dim = matrix_fn.stack, matrix_fn.dim
    else:
        matrices = map(matrix_fn, thetas)
        first = next(matrices)
        dim = np.shape(first)[0]
        build = partial(_fill_stack, chain([first], matrices), dim)
        del first
    step = stack_length(dim)
    for start in range(0, len(thetas), step):
        yield start, build(thetas[start:start + step])


def stack_length(dim: int) -> int:
    """Matrices per stack of ``twist_stacks`` at dimension ``dim``; with
    ``STACK_BYTES`` at 512 KiB, one for every dim above 128."""
    return max(1, STACK_BYTES // max(16 * dim * dim, 1))


def _fill_stack(matrices, dim, thetas):
    """A stack of the next ``len(thetas)`` matrices from the iterator ``matrices``."""
    out = np.empty((len(thetas), dim, dim), dtype=complex).transpose(0, 2, 1)
    for k, matrix in zip(range(len(thetas)), matrices):
        out[k] = matrix
    return out


def stack_eigvals(stack, thetas):
    """Eigenvalues of every matrix of a stack, one row each."""
    try:
        return np.linalg.eigvals(stack)
    except np.linalg.LinAlgError:
        pass  # solve the stack again point by point to name the failing theta
    values = np.empty(stack.shape[:2], dtype=complex)
    for k, theta in enumerate(thetas):
        try:
            values[k] = np.linalg.eigvals(stack[k])
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(f"eigensolver failed at theta={theta:.6f}") from exc
    return values


def sweep_theta(matrix_fn, n_grid: int) -> SpectralFlow:
    """Eigenvalues at theta_k = 2 pi k / n_grid for k = 0..n_grid (inclusive).

    ``matrix_fn(theta)`` must return the dense matrix.  The grid is solved in
    the stacks of ``twist_stacks``, with one batched eigensolve per stack;
    each spectrum is sorted by (real, imag) for reproducible output.
    """
    if n_grid < 16:
        raise ValueError("n_grid must be at least 16")
    grid = theta_grid(n_grid)
    spectra = None
    for start, stack in twist_stacks(matrix_fn, grid):
        values = stack_eigvals(stack, grid[start:start + len(stack)])
        if spectra is None:
            spectra = np.empty((len(grid), values.shape[1]), dtype=complex)
        order = np.lexsort((values.imag, values.real), axis=-1)
        spectra[start:start + len(stack)] = np.take_along_axis(values, order, axis=-1)
        del stack  # free it before the next one is built
    return SpectralFlow(grid, spectra)


def periodicity_defect(flow: SpectralFlow) -> float:
    """Max distance between matched eigenvalues at the two grid ends."""
    from scipy.optimize import linear_sum_assignment

    first, last = flow.spectra[0], flow.spectra[-1]
    cost = np.abs(first[:, None] - last[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


def wrap_phase(phi):
    """Reduce to the principal branch (-pi, pi]: a float for a scalar, an
    array for an array."""
    out = np.remainder(np.add(phi, np.pi), 2.0 * np.pi) - np.pi
    out = np.where(out == -np.pi, np.pi, out)
    return out if out.ndim else float(out)


def factor_shifted(matrix, e_ref: complex):
    """Pivoted LU of (M - e_ref), plus the Frobenius scale of the shift.

    Makes exactly one copy of M and LU-factors that copy in place, as a
    stack of one (``factor_stack``), so M is left unchanged and at most two
    d x d buffers, M and the factors, are live.
    """
    stack = np.array(matrix, dtype=complex, order="F")[None]
    piv, scales = factor_stack(stack, e_ref)
    return (stack[0], piv[0]), scales[0]


def factor_stack(stack, e_ref: complex):
    """Pivoted LUs of (M_k - e_ref) over a stack, in place.

    The stack must be one contiguous buffer of F-contiguous matrices, as
    ``twist_stacks`` makes them.  Each matrix is shifted and factored where
    it lies, so no copy is made and the stack ends up holding the factors.
    Returns the pivots, one row per matrix, and the Frobenius norm of each
    shifted matrix.  ``factor_shifted`` is the one-matrix case.
    """
    n, d = stack.shape[:2]
    # each matrix in memory order: one row per matrix, and a view of the stack
    # only when the whole stack is contiguous; zgetrf also needs complex128
    flat = stack.transpose(0, 2, 1)
    if stack.dtype != np.complex128 or not flat.flags.c_contiguous:
        raise ValueError("factor_stack needs a contiguous complex stack of "
                         "F-contiguous matrices")
    flat = flat.reshape(n, d * d)
    flat[:, :: d + 1] -= e_ref  # the diagonals
    # Frobenius norms over each matrix's real and imaginary parts, without
    # the stack-sized temporaries of linalg.norm: one dot product per matrix,
    # so a matrix has the same scale in any stack, a stack of one included
    parts = flat.view(np.float64)
    scales = np.sqrt((parts[:, None, :] @ parts[:, :, None])[:, 0, 0])
    piv = np.empty((n, d), dtype=np.int32)
    for k in range(n):
        _, piv[k], info = zgetrf(stack[k], overwrite_a=1)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of zgetrf")
    return piv, scales


def _singular(diag, scale):
    """Whether the smallest |pivot| (last axis) is below the singularity tolerance."""
    return (np.abs(diag).min(axis=-1, initial=np.inf)
            <= SINGULARITY_RTOL * np.maximum(scale, 1e-300))


def _det_phase(diag, piv):
    """Principal phase of the determinant from LU diagonals and pivots (last axis)."""
    swaps = np.count_nonzero(piv != np.arange(diag.shape[-1]), axis=-1)
    return wrap_phase(np.sum(np.angle(diag), axis=-1) + np.pi * (swaps % 2))


def stack_phases(stack, piv, scales):
    """Principal determinant phases behind a stack factored by ``factor_stack``,
    and a mask of the matrices with a pivot below the singularity tolerance."""
    diag = np.diagonal(stack, axis1=1, axis2=2)
    return _det_phase(diag, piv), _singular(diag, scales)


def phase_from_factors(factors, scale: float, e_ref: complex):
    """(log magnitude, principal phase) of the determinant behind an LU."""
    lu, piv = factors
    diag = np.diagonal(lu)
    if _singular(diag, scale):
        raise SpectrumHitError(
            f"reference energy {e_ref} lies on the spectrum "
            f"(pivot {np.abs(diag).min():.3e})")
    log_mag = float(np.sum(np.log(np.abs(diag))))
    return log_mag, _det_phase(diag, piv)


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


def sigma_min_from_factors(factors, dim: int, iters: int = 8) -> float:
    """Inverse-iteration estimate of the smallest singular value behind an LU.

    The iteration converges to sigma_min from above, so after ``iters`` steps
    the value is an estimate, not a bound.
    """
    v = np.full(dim, 1.0 / np.sqrt(dim), dtype=complex)
    growth = 0.0
    for _ in range(iters):
        w = lu_solve(factors, v, trans=0, check_finite=False)
        u = lu_solve(factors, w, trans=2, check_finite=False)
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


@lru_cache(maxsize=1)
def openblas_thread_controls():
    """(get_num_threads, set_num_threads) of every OpenBLAS in this process.

    numpy and scipy each bundle their own OpenBLAS.  Both are loaded once
    this module is imported, so the first lookup is kept.  Empty where no
    OpenBLAS is found (another BLAS, or no /proc/self/maps).
    """
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


@contextmanager
def blas_threads_for(dim: int):
    """Run the body on one BLAS thread when ``dim`` is below the crossover.

    Every loaded OpenBLAS is pinned to one thread and its old count restored
    on exit, exceptions included.  At or above ``BLAS_THREAD_CROSSOVER_DIM``,
    or when no OpenBLAS is found, nothing changes.  Thread counts are
    process-wide, so the pin is meant for one computation at a time.
    """
    controls = openblas_thread_controls() if dim < BLAS_THREAD_CROSSOVER_DIM else ()
    saved = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), n in zip(controls, saved):
            set_threads(n)
