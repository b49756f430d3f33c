"""The test double the engine tests wind and sweep synthetic matrices with."""

from functools import cached_property

import numpy as np
import pytest

from pointgap.spectral import band_layout, theta_grid


class MatrixFlow:
    """A twist flow from a plain ``theta -> matrix`` function, with the part
    of the ``SectorModel`` interface the engine uses: ``dim``, ``stack``,
    ``__call__`` and, for matrices alone in their stack, the pattern pair
    ``band_layout`` and ``values``.  The pattern is every entry nonzero at
    one of the 17 twists of ``theta_grid(16)``.  No twist relation is
    claimed, so every base-grid point gets its own gap margin and every
    sweep point is solved."""

    twist_relations = ()

    def __init__(self, fn):
        self.fn = fn
        self.dim = len(fn(0.0))

    @classmethod
    def diagonal(cls, entries):
        """diag(e(theta) for e in entries), e.g. of ``CircleFlow``s."""
        return cls(lambda theta: np.diag([e(theta) for e in entries]))

    def stack(self, thetas):
        out = np.empty((len(thetas), self.dim, self.dim), dtype=complex).transpose(0, 2, 1)
        for k, theta in enumerate(thetas):
            out[k] = self.fn(theta)
        return out

    def __call__(self, theta):
        return np.asarray(self.fn(theta), dtype=complex)

    @cached_property
    def pattern(self):
        """(rows, cols) of the entries, in column-major order."""
        nonzero = np.zeros((self.dim, self.dim), dtype=bool)
        for theta in theta_grid(16):
            nonzero |= self(theta) != 0
        cols, rows = np.nonzero(nonzero.T)
        return rows, cols

    @cached_property
    def band_layout(self):
        return band_layout(*self.pattern, self.dim)

    def values(self, theta):
        matrix = self(theta)
        rows, cols = self.pattern
        kept = np.zeros(matrix.shape, dtype=bool)
        kept[rows, cols] = True
        assert not matrix[~kept].any(), "an entry off the pattern"
        return matrix[rows, cols]


@pytest.fixture
def matrix_flow():
    return MatrixFlow
