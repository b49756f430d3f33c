"""Experiment configuration schema and the bundled preset catalog.

A config is a flat JSON document; unknown keys are rejected so a manifest
echoes exactly what ran.  Presets are named ``fig*``/``figS*`` after the
panels of the project's standard output set, one preset per panel group.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .models import DEFORM_PATHS, ChainParams, DotParams
from .spectral import MIN_N_GRID
from .topology import DEFAULT_N_GRID

TASKS = ("flow", "winding", "skin", "deform", "oracle-check")
HEAVY_DIM = 2000

_TOP_KEYS = {"model", "params", "sector", "task", "e_ref", "n_grid",
             "output_dir", "path", "n_path"}


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_finite_number(x) -> bool:
    try:
        return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


@dataclass(frozen=True)
class ExperimentConfig:
    model: str
    params: object          # DotParams | ChainParams
    sector: tuple | None
    task: str
    e_ref: complex = 0.0
    n_grid: int = DEFAULT_N_GRID
    output_dir: str | None = None
    path: str | None = None     # deform task only
    n_path: int | None = None   # deform task only

    def to_dict(self) -> dict:
        d = {
            "model": self.model,
            "params": asdict(self.params),
            "sector": list(self.sector) if self.sector is not None else None,
            "task": self.task,
            "e_ref": [self.e_ref.real, self.e_ref.imag],
            "n_grid": self.n_grid,
        }
        if self.output_dir is not None:
            d["output_dir"] = self.output_dir
        if self.task == "deform":
            d["path"] = self.path
            d["n_path"] = self.n_path
        return d


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw JSON document into a typed config.

    Every key is checked; anything unknown, missing or of the wrong shape
    raises ConfigError before any computation starts.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(raw) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "task"):
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    model = raw["model"]
    if model not in ("dot", "chain"):
        raise ConfigError(f"model must be 'dot' or 'chain', got {model!r}")
    task = raw["task"]
    if task not in TASKS:
        raise ConfigError(f"task must be one of {TASKS}, got {task!r}")

    params_dict = raw.get("params", {})
    if not isinstance(params_dict, dict):
        raise ConfigError("params must be an object")
    cls = DotParams if model == "dot" else ChainParams
    try:
        params = cls(**params_dict)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad params for {model}: {exc}") from exc

    sector = raw.get("sector")
    if sector is not None:
        if (not isinstance(sector, (list, tuple)) or len(sector) != 2
                or not all(_is_int(x) for x in sector)
                or sector[1] not in (1, -1)):
            raise ConfigError("sector must be [N, P] with integer N and P = +-1")
        sector = (sector[0], sector[1])

    e_ref = raw.get("e_ref", 0.0)
    parts = e_ref if isinstance(e_ref, (list, tuple)) else (e_ref, 0.0)
    if len(parts) != 2 or not all(_is_finite_number(x) for x in parts):
        raise ConfigError("e_ref must be a finite number or [re, im] of finite numbers")
    e_ref = complex(float(parts[0]), float(parts[1]))

    n_grid = raw.get("n_grid", DEFAULT_N_GRID)
    if not _is_int(n_grid) or n_grid < MIN_N_GRID:
        raise ConfigError(f"n_grid must be an integer >= {MIN_N_GRID}")

    path = raw.get("path")
    n_path = raw.get("n_path")
    if task == "deform":
        if model != "dot":
            raise ConfigError("deform task is defined for the dot model")
        if path not in DEFORM_PATHS:
            raise ConfigError(f"deform needs path in {DEFORM_PATHS}")
        if n_path is None:
            n_path = 32
        if not _is_int(n_path) or n_path < 1:
            raise ConfigError("n_path must be a positive integer")
    elif path is not None or n_path is not None:
        raise ConfigError("path/n_path are only valid for the deform task")

    if task in ("skin", "deform") and sector is None:
        raise ConfigError(f"task {task!r} requires a sector")
    if task == "oracle-check" and model == "chain" and (sector is None or sector[0] != 3):
        # the first-order formulas give the 4L quadruplet levels of N = 3
        raise ConfigError("chain oracle-check requires a sector with N = 3")
    if task == "oracle-check" and model == "dot" and sector is not None:
        # it compares both (2, +-1) closed forms
        raise ConfigError("dot oracle-check checks the (2,+1) and (2,-1) sectors "
                          "and takes no sector")
    if task == "skin" and (model != "chain" or params.bc != "twisted"):
        raise ConfigError("skin task is defined for the chain model with bc 'twisted'")

    output_dir = raw.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string path")

    return ExperimentConfig(model=model, params=params, sector=sector, task=task,
                            e_ref=e_ref, n_grid=n_grid, output_dir=output_dir,
                            path=path, n_path=n_path)


# ---------------------------------------------------------------------------
# preset catalog
# ---------------------------------------------------------------------------

_DOT_EPS = {"eps_a_up": 0.2, "eps_a_dn": -0.1, "eps_b_up": 0.35, "eps_b_dn": -0.25}


def _dot(j=0.0, v=0.0, lam=1.0):
    return {"lam": lam, **_DOT_EPS, "j": j, "v": v}


def _chain(j=0.0, v=0.0, **kw):
    return {"length": 7, "t": 1.0, "j": j, "v": v, **kw}


def _preset(desc, **cfg):
    return {"description": desc, "config": cfg}


# fig4b and figS6 are one run: figS6 is built from this config
_FIG4B = _preset(
    "chain (9,-1) half-filled skin analysis at J = V = 1, the same run as figS6 "
    "(dim 6864: needs --allow-heavy; the flow eigensolves 9 of its 33 "
    "twist points, each dense at that size)",
    model="chain", params=_chain(j=1.0, v=1.0), sector=[9, -1], task="skin",
    e_ref=[-0.04, 0.0], n_grid=32)

PRESETS = {
    "fig1": _preset(
        "dot one-body spectral flow at the reference potential set",
        model="dot", params=_dot(), sector=None, task="flow", n_grid=256),
    "fig2a": _preset(
        "dot (2,+1) sector flow, noninteracting",
        model="dot", params=_dot(), sector=[2, 1], task="flow", n_grid=256),
    "fig2b": _preset(
        "dot (2,+1) sector flow at J = V = lam = 1",
        model="dot", params=_dot(j=1.0, v=1.0), sector=[2, 1], task="flow",
        n_grid=256),
    "fig2c": _preset(
        "dot (2,+1) deformation: couplings ramp 0 -> 1 at lam = 1",
        model="dot", params=_dot(), sector=[2, 1], task="deform",
        path="pair-ramp", n_path=32, n_grid=64, e_ref=[0.0, 0.0]),
    "fig2d": _preset(
        "dot (2,+1) deformation: lam ramps 1 -> 0 with J = V = sqrt(lam)",
        model="dot", params=_dot(), sector=[2, 1], task="deform",
        path="hop-ramp", n_path=32, n_grid=64, e_ref=[0.0, 0.0]),
    "fig3b": _preset(
        "chain (3,-1) skin analysis, noninteracting: twisted flow vs open "
        "boundary, winding at zero",
        model="chain", params=_chain(), sector=[3, -1], task="skin",
        e_ref=[0.0, 0.0], n_grid=256),
    "fig3c": _preset(
        "chain (3,-1) open-boundary occupation profiles, noninteracting",
        model="chain", params=_chain(), sector=[3, -1], task="skin",
        e_ref=[0.0, 0.0], n_grid=64),
    "fig3d": _preset(
        "chain (3,-1) skin analysis at J = V = 1: loop destruction",
        model="chain", params=_chain(j=1.0, v=1.0), sector=[3, -1], task="skin",
        e_ref=[0.0, 0.0], n_grid=256),
    "fig3e": _preset(
        "chain (3,-1) open-boundary occupation profiles at J = V = 1",
        model="chain", params=_chain(j=1.0, v=1.0), sector=[3, -1], task="skin",
        e_ref=[0.0, 0.0], n_grid=64),
    "fig4a": _preset(
        "chain (9,-1) half-filled skin analysis, noninteracting "
        "(dim 6864: needs --allow-heavy; the flow eigensolves 9 of its 33 "
        "twist points, each dense at that size)",
        model="chain", params=_chain(), sector=[9, -1], task="skin",
        e_ref=[-0.04, 0.0], n_grid=32),
    "fig4b": _FIG4B,
    "figS1a": _preset(
        "dot (2,-1) sector flow, noninteracting",
        model="dot", params=_dot(), sector=[2, -1], task="flow", n_grid=256),
    "figS1b": _preset(
        "dot (2,-1) sector flow at J = V = lam = 1",
        model="dot", params=_dot(j=1.0, v=1.0), sector=[2, -1], task="flow",
        n_grid=256),
    "figS1c": _preset(
        "dot (2,-1) deformation: couplings ramp 0 -> 1 at lam = 1",
        model="dot", params=_dot(), sector=[2, -1], task="deform",
        path="pair-ramp", n_path=32, n_grid=64, e_ref=[0.0, 0.0]),
    "figS1d": _preset(
        "dot (2,-1) deformation: lam ramps 1 -> 0 with J = V = sqrt(lam)",
        model="dot", params=_dot(), sector=[2, -1], task="deform",
        path="hop-ramp", n_path=32, n_grid=64, e_ref=[0.0, 0.0]),
    "figS1e": _preset(
        "dot (2,-1) hop-ramp deformation on a fine path grid (magnified view)",
        model="dot", params=_dot(), sector=[2, -1], task="deform",
        path="hop-ramp", n_path=64, n_grid=64, e_ref=[0.0, 0.0]),
    "figS2": _preset(
        "chain (4,+1) winding at reference 0.3i, noninteracting",
        model="chain", params=_chain(), sector=[4, 1], task="winding",
        e_ref=[0.0, 0.3], n_grid=64),
    "figS3": _preset(
        "chain (4,+1) winding at reference 0.3i, J = V = 1",
        model="chain", params=_chain(j=1.0, v=1.0), sector=[4, 1], task="winding",
        e_ref=[0.0, 0.3], n_grid=64),
    "figS4ef": _preset(
        "chain (9,-1) winding at reference -0.04, J = V = 1 "
        "(dim 6864: needs --allow-heavy, about 1.1 min)",
        model="chain", params=_chain(j=1.0, v=1.0), sector=[9, -1],
        task="winding", e_ref=[-0.04, 0.0], n_grid=64),
    "figS5": _preset(
        "chain (9,-1) winding at reference -0.04, noninteracting "
        "(dim 6864: needs --allow-heavy, about 20 s)",
        model="chain", params=_chain(), sector=[9, -1], task="winding",
        e_ref=[-0.04, 0.0], n_grid=64),
    "figS6": _preset(
        "chain (9,-1) open-vs-twisted comparison at J = V = 1: the same run "
        "as fig4b, whose skin task writes that comparison "
        "(dim 6864: needs --allow-heavy)",
        **_FIG4B["config"]),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}")
    return config_from_dict(PRESETS[name]["config"])
