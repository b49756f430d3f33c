#!/usr/bin/env python3
"""Regenerate skin_thresholds.json used by the acceptance suite.

The interacting-case numbers are measured from this package's own exact
diagonalization (deterministic), frozen here so the acceptance test can pin
them tightly and catch regressions.  Run from the repository root:

    PYTHONPATH=src python tests/fixtures/generate_skin_thresholds.py

``--check`` measures without writing, prints each key whose value differs
from the committed JSON and exits 1 on any difference:

    PYTHONPATH=src python tests/fixtures/generate_skin_thresholds.py --check

The committed values were measured with numpy 2.4.6 and scipy 1.17.1, the
same under one BLAS thread and two.  The test suite compares ``measure()``
with them exactly (``test_skin_fixture_matches_its_generator``), and skips
that test, saying why, under any other numpy or scipy version.
"""

import argparse
import json
import os
import sys

from pointgap.fock import UP
from pointgap.models import ChainParams
from pointgap.observables import boundary_sensitivity, product_state_profiles

N_GRID = 256
FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "skin_thresholds.json")


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


def _flat(data, prefix=""):
    """{dotted key: value} of a nested dict, e.g. ``interacting.hausdorff``."""
    out = {}
    for key, value in data.items():
        if isinstance(value, dict):
            out.update(_flat(value, f"{prefix}{key}."))
        else:
            out[prefix + key] = value
    return out


def differences(committed, measured):
    """(key, committed value, measured value) of each dotted key whose values
    differ; a key missing on one side reads ``"missing"`` there."""
    old, new = _flat(committed), _flat(measured)
    return [(key, old.get(key, "missing"), new.get(key, "missing"))
            for key in sorted(old.keys() | new.keys())
            if old.get(key, "missing") != new.get(key, "missing")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.basename(FIXTURE)}; exit 1 if they differ")
    args = parser.parse_args(argv)
    data = measure()
    if args.check:
        with open(FIXTURE) as fh:
            diff = differences(json.load(fh), data)
        for key, old, new in diff:
            print(f"{key}: committed {old!r}, measured {new!r}")
        if not diff:
            print(f"all {len(_flat(data))} values match {FIXTURE}")
        return 1 if diff else 0
    with open(FIXTURE, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {FIXTURE}")
    for k, v in data.items():
        print(f"  {k}: {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
