#!/usr/bin/env python3
"""Print the sha256 of every data file the non-heavy presets write.

Runs each preset whose sector fits under ``HEAVY_DIM``, two
``oracle-check`` configs (the dot at the reference potentials, the chain
(3,-1) at the weak couplings of the first-order formulas) and the one-body
configs (no preset runs a one-body winding) through ``cli.execute`` in a
temporary directory, and prints one
``<name>/<file> <sha256>`` line per data file.  Run manifests are left out:
they hold wall times.  Two checkouts produce the same outputs when their
listings are equal:

    PYTHONPATH=src python tests/fixtures/preset_hashes.py > hashes.txt
    diff hashes.txt other_hashes.txt

``--check`` compares the listing with the committed ``preset_hashes.txt``,
prints the lines that differ and exits 1 on any difference:

    PYTHONPATH=src python tests/fixtures/preset_hashes.py --check

The committed listing was made with numpy 2.4.6 and scipy 1.17.1; another
numpy, scipy or BLAS build may change the last bits of an eigenvalue.  The
test suite compares the listing with it too
(``test_preset_outputs_match_the_committed_hash_listing``), and skips that
test, saying why, under any other numpy or scipy version.
"""

import argparse
import difflib
import os
import sys
import tempfile

from pointgap.cli import _sector_dim, execute
from pointgap.presets import HEAVY_DIM, PRESETS, config_from_dict

LISTING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "preset_hashes.txt")

ORACLE_CONFIGS = {
    "oracle-dot": {
        "model": "dot", "task": "oracle-check",
        "params": {"lam": 1.0, "eps_a_up": 0.2, "eps_a_dn": -0.1,
                   "eps_b_up": 0.35, "eps_b_dn": -0.25, "j": 1.0, "v": 1.0}},
    "oracle-chain": {
        "model": "chain", "task": "oracle-check", "sector": [3, -1],
        "params": {"length": 7, "t": 1.0, "j": 0.04, "v": 0.03}},
}

_DOT = {"lam": 1.0, "eps_a_up": 0.2, "eps_a_dn": -0.1, "eps_b_up": 0.35, "eps_b_dn": -0.25}
_CHAIN = {"length": 7, "t": 1.0, "j": 1.0, "v": 1.0}

# one-body windings of both models, one of each off zero; and the one-body
# flow of the open chain
ONE_BODY_CONFIGS = {
    "onebody-dot-winding": {"model": "dot", "task": "winding", "params": _DOT},
    "onebody-dot-winding-offref": {"model": "dot", "task": "winding", "params": _DOT,
                                   "e_ref": [0.3, 0.5]},
    "onebody-chain-winding": {"model": "chain", "task": "winding", "params": _CHAIN},
    "onebody-chain-winding-offref": {"model": "chain", "task": "winding", "params": _CHAIN,
                                     "e_ref": [0.2, 0.3]},
    "onebody-chain-flow-open": {"model": "chain", "task": "flow",
                                "params": {**_CHAIN, "bc": "open"}},
}


def configs():
    """(name, config) of every run, presets first, in catalog order."""
    for name, entry in PRESETS.items():
        cfg = config_from_dict(entry["config"])
        if _sector_dim(cfg) <= HEAVY_DIM:
            yield name, cfg
    for name, raw in {**ORACLE_CONFIGS, **ONE_BODY_CONFIGS}.items():
        yield name, config_from_dict(raw)


def listing():
    """The ``<name>/<file> <sha256>`` lines, one per data file, as they come."""
    with tempfile.TemporaryDirectory() as root:
        for name, cfg in configs():
            manifest = execute(cfg, f"{root}/{name}")
            for out in manifest["outputs"]:
                yield f"{name}/{out['path']} {out['sha256']}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help=f"compare with {os.path.basename(LISTING)}; exit 1 if they differ")
    args = parser.parse_args(argv)
    if not args.check:
        for line in listing():
            print(line, flush=True)
        return 0
    with open(LISTING) as fh:
        expected = fh.read().splitlines()
    got = list(listing())
    diff = list(difflib.unified_diff(expected, got, LISTING, "this checkout", lineterm=""))
    print("\n".join(diff) if diff else f"all {len(got)} hashes match {LISTING}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
