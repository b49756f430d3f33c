"""The test double the engine tests wind and sweep synthetic matrices with."""

import numpy as np
import pytest


class MatrixFlow:
    """A twist flow from a plain ``theta -> matrix`` function, with the part
    of the ``SectorModel`` interface the engine uses: ``dim``, ``stack`` and
    ``__call__``."""

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


@pytest.fixture
def matrix_flow():
    return MatrixFlow
