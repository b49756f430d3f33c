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
"""

import tempfile

from pointgap.cli import _sector_dim, execute
from pointgap.presets import HEAVY_DIM, PRESETS, config_from_dict

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


def main():
    with tempfile.TemporaryDirectory() as root:
        for name, cfg in configs():
            manifest = execute(cfg, f"{root}/{name}")
            for out in manifest["outputs"]:
                print(f"{name}/{out['path']} {out['sha256']}", flush=True)


if __name__ == "__main__":
    main()
