"""Each registered invariant check must pass individually (these are the
same suites ``pointgap check`` runs)."""

import numpy as np
import pytest

from pointgap import checks
from pointgap.checks import CHECKS
from pointgap.fock import dot_layout
from pointgap.observables import Occupations


@pytest.mark.parametrize("name,fn", CHECKS, ids=[name for name, _ in CHECKS])
def test_check_passes(name, fn):
    ok, detail = fn()
    assert ok, f"{name}: {detail}"


def test_occupation_sum_rules_report_a_negative_excursion(monkeypatch):
    # a value below 0 is reported by how far below it lies; max - 1 would
    # read -6.00e-01 here
    occupations = Occupations(
        layout=dot_layout(), values=np.zeros(1, dtype=complex),
        weights=np.array([[-0.1, 0.4, 0.0, 0.0]]), clusters=np.zeros(1, dtype=int),
        ambiguous=np.zeros(1, dtype=bool))
    monkeypatch.setattr(checks, "occupation_profiles", lambda *args, **kw: occupations)
    ok, detail = checks.check_occupation_sum_rules()
    assert not ok
    assert detail == "dot (2,1): value outside [0,1] by 1.00e-01"
