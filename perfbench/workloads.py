"""The benchmark's workloads: their tasks, inputs and output checks.

Each workload is a list of tasks run one after another (a closed loop with a
single client). The seed chooses the order of the tasks in every pass and,
for ``chain-large``, the twist angle of each sector; pointgap receives only
the generated configs.

Why these three (sized with a trace at the commit that added the benchmark):

* ``small-presets``: the dot deformation presets (~200 windings and ~13k flow
  eigensolves on d = 2 and 4) and the chain (3,-1) skin presets (d = 28).
  Per-call Python overhead dominates the dot presets (term lists rebuilt per
  path point, assembly, phase) and BLAS does almost nothing, so a change to
  models or to the topology winding loop shows here and not in
  ``chain-large``. The skin presets add flow eigensolves that are output,
  observables and ~1 MB of artifacts per pass; their own winding adds about
  as many margin eigensolves. The two preset groups share one workload: with
  fewer workloads, each run can be long enough to outlast the host's slow
  spells.
* ``chain-winding``: chain (4,+1), d = 182, n_grid 64. Margin eigensolves and
  LUs dominate, on matrices small enough that a second BLAS thread costs more
  than it gives.
* ``chain-large``: one twist point of the heavy winding at d = 4004 and 6864.
  The only workload where the LU is BLAS-bound and memory is large (~2.3 GB).
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass

import numpy as np

EXPECTED_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")

# gap margins and skin numbers change in their last digits with the BLAS
# thread count (figS3's margin by 3e-15 relative between one and two
# threads), so outputs are compared to a tolerance, never by hash
REL_TOL = 1e-9

LARGE_PARAMS = {"length": 7, "t": 1.0, "j": 1.0, "v": 1.0}
LARGE_SECTORS = ((7, -1), (9, -1))
LARGE_E_REF = -0.04


@dataclass
class Workload:
    name: str
    presets: tuple = ()
    large: bool = False


WORKLOADS = {
    w.name: w for w in (
        Workload("small-presets", presets=("fig2c", "fig2d", "figS1c", "figS1d", "figS1e",
                                           "fig3b", "fig3c", "fig3d", "fig3e")),
        Workload("chain-winding", presets=("figS2", "figS3")),
        Workload("chain-large", large=True),
    )
}


@dataclass
class Task:
    """One unit of work: a preset run through the CLI or one heavy twist point."""

    label: str
    config: object = None          # ExperimentConfig for preset tasks
    params: object = None          # ChainParams for twist-point tasks
    sector: tuple = None
    theta: float = 0.0


def make_tasks(workload, seed):
    """The workload's tasks with inputs drawn from ``seed``."""
    from pointgap.models import ChainParams
    from pointgap.presets import PRESETS, config_from_dict

    rng = np.random.default_rng(seed)
    if workload.large:
        params = ChainParams(**LARGE_PARAMS)
        return [Task(f"({n},{p:+d})", params=params, sector=(n, p),
                     theta=float(rng.uniform(0.0, 2.0 * math.pi)))
                for n, p in LARGE_SECTORS]
    return [Task(name, config=config_from_dict(PRESETS[name]["config"]))
            for name in workload.presets]


def pass_order(tasks, rng):
    return [tasks[i] for i in rng.permutation(len(tasks))]


def build_model(task):
    """Sector model of a task: the set-up the first task needs."""
    from pointgap import models

    if task.config is None:
        return models.chain_model(task.params, *task.sector)
    cfg = task.config
    make_model = models.dot_model if cfg.model == "dot" else models.chain_model
    return make_model(cfg.params, *cfg.sector)


def _clear_model_caches():
    # a heavy winding builds its basis and model once per run; clearing any
    # cache the models module keeps makes every twist-point task start cold
    from pointgap import models

    for obj in vars(models).values():
        clear = getattr(obj, "cache_clear", None)
        if callable(clear):
            clear()


def run_task(task, workdir):
    """Run one task; returns its result record for ``check``."""
    if task.config is not None:
        from pointgap.cli import execute

        outdir = os.path.join(workdir, task.label)
        manifest = execute(task.config, outdir)
        files = {o["path"]: os.path.getsize(os.path.join(outdir, o["path"]))
                 for o in manifest["outputs"]}
        return {"summary": manifest["summary"], "files": files}

    from pointgap import spectral

    _clear_model_caches()
    model = build_model(task)
    a = model(task.theta)
    factors, scale = spectral.factor_shifted(a, LARGE_E_REF)
    del a
    log_mag, phase = spectral.phase_from_factors(factors, scale, LARGE_E_REF)
    sigma = spectral.sigma_min_from_factors(factors, model.dim)
    return {"dim": model.dim, "log_mag": log_mag, "phase": phase, "sigma": sigma}


def load_expected():
    with open(EXPECTED_FILE) as fh:
        return json.load(fh)


def _close(value, expected):
    return (isinstance(value, (int, float)) and math.isfinite(value)
            and abs(value - expected) <= REL_TOL * max(abs(expected), 1e-300))


def check(task, result, expected):
    """Problems found in a task's outputs (empty when they are correct)."""
    want = expected[task.label]
    problems = []
    if task.config is None:
        if result["dim"] != want["dim"]:
            problems.append(f"dim {result['dim']} != {want['dim']}")
        for key in ("log_mag", "phase"):
            if not math.isfinite(result[key]):
                problems.append(f"{key} is not finite: {result[key]}")
        if not (math.isfinite(result["sigma"]) and result["sigma"] > 0.0):
            problems.append(f"sigma_min estimate not positive: {result['sigma']}")
        return problems

    summary = result["summary"]
    for key, value in want.items():
        got = summary.get(key)
        if isinstance(value, float):
            if not _close(got, value):
                problems.append(f"{key} {got!r} not within {REL_TOL} of {value!r}")
        elif got != value:
            problems.append(f"{key} {got!r} != {value!r}")
    for name, size in result["files"].items():
        if size == 0:
            problems.append(f"artifact {name} is empty")
    return problems


def expected_record(task, result):
    """The values ``check`` compares against, taken from a trusted run."""
    if task.config is None:
        return {"dim": result["dim"]}
    keys = ("winding", "windings", "gap_margin", "hausdorff_obc_pbc",
            "max_site_occupation")
    return {k: result["summary"][k] for k in keys if k in result["summary"]}


class WorkDir:
    """Scratch directory for task artifacts inside the checkout."""

    def __init__(self, root, workload):
        self.path = os.path.join(root, ".bench_work", f"{workload}-{os.getpid()}")

    def __enter__(self):
        os.makedirs(self.path, exist_ok=True)
        return self.path

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)
        parent = os.path.dirname(self.path)
        try:
            os.rmdir(parent)
        except OSError:
            pass
        return False
