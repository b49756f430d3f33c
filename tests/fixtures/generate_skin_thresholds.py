#!/usr/bin/env python3
"""Regenerate skin_thresholds.json used by the acceptance suite.

The interacting-case numbers are measured from this package's own exact
diagonalization (deterministic), frozen here so the acceptance test can pin
them tightly and catch regressions.  Run from the repository root:

    python tests/fixtures/generate_skin_thresholds.py
"""

import json
import os

from pointgap.fock import UP
from pointgap.models import ChainParams
from pointgap.observables import boundary_sensitivity, product_state_profiles

N_GRID = 256


def measure():
    out = {"n_grid": N_GRID, "sector": [3, -1], "length": 7, "t": 1.0}
    for key, jv in (("noninteracting", 0.0), ("interacting", 1.0)):
        p = ChainParams(length=7, t=1.0, j=jv, v=jv)
        bs = boundary_sensitivity(p, (3, -1), n_grid=N_GRID)
        out[key] = {
            "hausdorff": bs.hausdorff_obc_pbc,
            "edge_weight": bs.edge_weight,
            "max_site_occupation": bs.max_site_occupation,
        }
    w = product_state_profiles(ChainParams(length=7, t=1.0, bc="open"),
                               (3, -1)).spin_weights(UP)
    w = w[w.sum(axis=1) > 1e-9]
    out["min_up_weight_rightmost_two"] = float(((w[:, -2] + w[:, -1]) / w.sum(axis=1)).min())
    return out


if __name__ == "__main__":
    data = measure()
    path = os.path.join(os.path.dirname(__file__), "skin_thresholds.json")
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    for k, v in data.items():
        print(f"  {k}: {v}")
