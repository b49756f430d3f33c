import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pointgap.cli import execute, main
from pointgap.models import DotParams, dot_model
from pointgap.presets import PRESETS, ConfigError, config_from_dict, preset_config
from pointgap.spectral import theta_grid


def _cfg(**kw):
    base = {"model": "dot", "task": "flow",
            "params": {"lam": 1.0, "eps_a_up": 0.2, "eps_a_dn": -0.1,
                       "eps_b_up": 0.35, "eps_b_dn": -0.25}}
    base.update(kw)
    return base


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------

def test_config_roundtrip():
    cfg = config_from_dict(_cfg(sector=[2, 1], e_ref=[0.0, 0.3], n_grid=64))
    assert isinstance(cfg.params, DotParams)
    assert cfg.sector == (2, 1)
    assert cfg.e_ref == 0.3j
    again = config_from_dict(cfg.to_dict())
    assert again == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        config_from_dict(_cfg(workers=4))
    with pytest.raises(ConfigError, match="bad params"):
        config_from_dict(_cfg(params={"lam": 1.0, "mystery": 2}))


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(model="ladder"))
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(task="render"))
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(sector=[2, 0]))
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(n_grid=4))
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(e_ref="zero"))
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(task="deform", sector=[2, 1], path="sideways"))
    with pytest.raises(ConfigError):
        config_from_dict(_cfg(path="pair-ramp"))  # path without deform task
    with pytest.raises(ConfigError):
        config_from_dict({"model": "chain", "task": "skin",
                          "params": {"length": 7}})  # sector required


def test_presets_catalog():
    assert len(PRESETS) >= 16
    for name in PRESETS:
        cfg = preset_config(name)   # every preset validates
        assert cfg.task in ("flow", "winding", "skin", "deform", "oracle-check")
    fig2b = preset_config("fig2b")
    assert fig2b.params.lam == fig2b.params.v == fig2b.params.j == 1.0
    heavy = preset_config("figS4ef")
    assert heavy.sector == (9, -1) and heavy.e_ref == -0.04 + 0j


# ---------------------------------------------------------------------------
# runner behavior
# ---------------------------------------------------------------------------

def test_run_flow_writes_artifacts(tmp_path):
    cfg = config_from_dict(_cfg(n_grid=16))
    manifest = execute(cfg, str(tmp_path))
    assert (tmp_path / "flow.csv").exists()
    assert (tmp_path / "run_manifest.json").exists()
    header = (tmp_path / "flow.csv").read_text().splitlines()[0]
    assert header == "theta,eig_index,re_e,im_e"
    assert manifest["outputs"][0]["path"] == "flow.csv"
    assert len(manifest["outputs"][0]["sha256"]) == 64


def test_run_determinism(tmp_path):
    cfg = config_from_dict(_cfg(sector=[2, 1], task="winding", n_grid=32,
                                params={**_cfg()["params"], "j": 1.0, "v": 1.0}))
    m1 = execute(cfg, str(tmp_path / "a"))
    m2 = execute(cfg, str(tmp_path / "b"))
    h1 = {o["path"]: o["sha256"] for o in m1["outputs"]}
    h2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
    assert h1 == h2


def test_run_winding_one_body(tmp_path):
    cfg = config_from_dict(_cfg(task="winding", n_grid=64))
    execute(cfg, str(tmp_path))
    payload = json.loads((tmp_path / "winding.json").read_text())
    assert payload["sector"] is None
    assert payload["winding"] == 0
    assert payload["spin_winding"] == [1, 1]
    _check_margin_keys(payload, 64)


def _check_margin_keys(payload, n_grid):
    """winding.json names the base-grid theta of the smallest margin and the
    largest accepted phase step."""
    assert payload["margin_theta"] in list(theta_grid(n_grid))
    assert 0.0 <= payload["max_phase_step"] <= np.pi / 2


def test_run_skin_outputs(tmp_path):
    cfg = config_from_dict({
        "model": "chain", "task": "skin", "sector": [3, -1],
        "params": {"length": 7, "t": 1.0}, "e_ref": [0.0, 0.0], "n_grid": 32})
    manifest = execute(cfg, str(tmp_path))
    for name in ("flow.csv", "obc_spectrum.csv", "occupations.csv",
                 "sensitivity.json", "winding.json", "product_occupations.csv"):
        assert (tmp_path / name).exists(), name
    winding = json.loads((tmp_path / "winding.json").read_text())
    assert winding["sector"] == [3, -1]
    assert winding["winding"] == 0
    _check_margin_keys(winding, 32)
    # the margin comes from the twisted flow written beside it
    flow = np.loadtxt(tmp_path / "flow.csv", delimiter=",", skiprows=1)
    dists = np.hypot(flow[:, 2], flow[:, 3])
    assert winding["gap_margin"] == dists.min()
    assert winding["margin_theta"] == flow[np.argmin(dists), 0]
    assert manifest["summary"]["hausdorff_obc_pbc"] == pytest.approx(1.0, abs=1e-6)


def test_run_deform_constant_winding(tmp_path):
    cfg = config_from_dict(_cfg(task="deform", sector=[2, 1], path="pair-ramp",
                                n_path=4, n_grid=16))
    manifest = execute(cfg, str(tmp_path))
    payload = json.loads((tmp_path / "windings.json").read_text())
    assert [pt["winding"] for pt in payload["points"]] == [0] * 5
    assert manifest["summary"]["winding_constant"] is True
    header = (tmp_path / "deform.csv").read_text().splitlines()[0]
    assert header == "path_param,theta,eig_index,re_e,im_e"


def test_run_deform_builds_each_point_model_once(tmp_path, monkeypatch):
    import pointgap.cli as cli
    import pointgap.models as models

    built = []

    def counting(*args):
        built.append(args)
        return dot_model(*args)
    # both bindings of dot_model, so a build made anywhere is counted
    monkeypatch.setattr(cli, "dot_model", counting)
    monkeypatch.setattr(models, "dot_model", counting)
    n_path = 3
    cfg = config_from_dict(_cfg(task="deform", sector=[2, -1], path="hop-ramp",
                                n_path=n_path, n_grid=16))
    manifest = execute(cfg, str(tmp_path))
    assert len(built) == n_path + 1
    payload = json.loads((tmp_path / "windings.json").read_text())
    assert len(payload["points"]) == n_path + 1
    assert payload["gap_margin"] == min(pt["gap_margin"] for pt in payload["points"])
    assert manifest["summary"]["gap_margin"] == payload["gap_margin"]


def test_run_skin_builds_each_chain_model_once(tmp_path, monkeypatch):
    """A skin run builds the open model for the spectrum and the twisted one
    for the flow, and winds the twisted flow's own model."""
    import pointgap.cli as cli
    import pointgap.models as models
    import pointgap.observables as observables

    built, chain_model = [], models.chain_model

    def counting(p, *sector):
        built.append(p.bc)
        return chain_model(p, *sector)
    # every binding of chain_model, so a build made anywhere is counted
    for module in (cli, models, observables):
        monkeypatch.setattr(module, "chain_model", counting)
    manifest = execute(preset_config("fig3d"), str(tmp_path))
    assert built == ["open", "twisted"]
    assert manifest["summary"]["winding"] == 0


def test_run_oracle_check_dot(tmp_path):
    cfg = config_from_dict(_cfg(task="oracle-check"))
    manifest = execute(cfg, str(tmp_path))
    payload = json.loads((tmp_path / "oracle.json").read_text())
    assert payload["dot_ok"] is True
    assert payload["dot_max_eigenvalue_distance"] < 1e-10
    assert manifest["summary"]["dot_ok"] is True


def test_fig1_preset_traces_drive_circle(tmp_path):
    """The one-body flow preset contains the driven-orbital circle."""
    import csv

    execute(preset_config("fig1"), str(tmp_path))
    by_theta = {}
    with open(tmp_path / "flow.csv") as fh:
        for row in csv.DictReader(fh):
            by_theta.setdefault(float(row["theta"]), []).append(
                complex(float(row["re_e"]), float(row["im_e"])))
    for theta, vals in by_theta.items():
        assert len(vals) == 4
        up = np.exp(1j * theta) + 0.2j
        dn = np.exp(-1j * theta) - 0.1j
        assert min(abs(v - up) for v in vals) < 1e-12
        assert min(abs(v - dn) for v in vals) < 1e-12


def test_run_oracle_check_chain(tmp_path):
    base = {"model": "chain", "task": "oracle-check", "sector": [3, -1],
            "params": {"length": 7, "t": 1.0, "j": 0.02, "v": 0.03,
                       "gauge": "distributed"}}
    with pytest.raises(ConfigError, match="sector"):
        config_from_dict({**base, "sector": None})
    # the splitting formulas diagonalize the imag-exchange bookkeeping; the
    # default convention honestly reports first-order (ratio ~2) scaling
    execute(config_from_dict(base), str(tmp_path / "half"))
    half = json.loads((tmp_path / "half" / "oracle.json").read_text())
    assert half["second_order_scaling_ok"] is False

    base["params"]["edge_convention"] = "exchange-imag"
    execute(config_from_dict(base), str(tmp_path / "imag"))
    imag = json.loads((tmp_path / "imag" / "oracle.json").read_text())
    assert imag["second_order_scaling_ok"] is True
    assert abs(imag["error_ratio_under_halving"] - 4.0) < 0.5


def test_heavy_guard(tmp_path):
    cfg = config_from_dict({
        "model": "chain", "task": "winding", "sector": [9, -1],
        "params": {"length": 7, "t": 1.0}, "e_ref": [-0.04, 0.0]})
    with pytest.raises(ConfigError, match="allow-heavy"):
        execute(cfg, str(tmp_path))


def test_lock_file(tmp_path):
    cfg = config_from_dict(_cfg(n_grid=16))
    os.makedirs(tmp_path, exist_ok=True)
    lock = tmp_path / ".pointgap.lock"
    lock.write_text("999999")
    with pytest.raises(ConfigError, match="locked"):
        execute(cfg, str(tmp_path))
    lock.unlink()
    execute(cfg, str(tmp_path))
    assert not lock.exists()   # released after the run


# ---------------------------------------------------------------------------
# command-line entry point and exit codes
# ---------------------------------------------------------------------------

def test_main_run_and_exit_codes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_cfg(task="winding", n_grid=32)))
    out = tmp_path / "out"
    assert main(["run", str(cfg_path), "--output-dir", str(out)]) == 0
    assert (out / "winding.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_cfg(task="warp")))
    assert main(["run", str(bad), "--output-dir", str(out / "x")]) == 2

    assert main(["run", str(tmp_path / "missing.json")]) == 2


def test_main_computation_error_exit_code(tmp_path, capsys):
    # reference energy pinned on the static localized level: the gap is closed
    cfg_path = tmp_path / "gapless.json"
    cfg_path.write_text(json.dumps(_cfg(task="winding", sector=[2, -1],
                                        e_ref=[0.0, 0.1], n_grid=32)))
    code = main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "computation error" in err and "sector" in err


@pytest.mark.parametrize("params, sector, message", [
    ({"length": 7}, [1, -1], "incompatible with singly occupied edge b sites"),
    ({"length": 40}, [3, -1], "layouts above 64 modes"),
], ids=["no-edge-fermions", "too-many-modes"])
def test_main_unbuildable_sector_is_config_error(tmp_path, capsys, params, sector, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": "chain", "task": "winding",
                                    "sector": sector, "params": params}))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err


@pytest.mark.parametrize("raw", [
    _cfg(task="winding", sector=[2, 1], n_grid=16, e_ref=["a", 0]),
    _cfg(task="winding", sector=[2, 1], n_grid=16, e_ref=float("nan")),
    _cfg(task="winding", sector=[2, 1], n_grid=16, e_ref=[10 ** 400, 0]),
    {"model": "chain", "task": "winding", "sector": [3, -1], "params": {"length": 7.0}},
    {"model": "chain", "task": "flow", "n_grid": 16, "params": {"length": 40}},
    _cfg(task="winding", sector=[2, True], n_grid=16),
    _cfg(task="deform", sector=[2, 1], path="pair-ramp", n_path=True, n_grid=16),
], ids=["e_ref-text", "e_ref-nan", "e_ref-beyond-float", "float-length",
        "one-body-too-long", "bool-parity", "bool-n_path"])
def test_main_bad_config_values_exit_two(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")


def test_main_check_subcommand(capsys, monkeypatch):
    # the entries themselves are asserted in test_checks.py; this covers the
    # printing and the exit code
    from pointgap import checks

    passing = ("passing entry", lambda: (True, "detail one"))
    failing = ("failing entry", lambda: (False, "detail two"))
    monkeypatch.setattr(checks, "CHECKS", [passing])
    assert main(["check"]) == 0
    assert capsys.readouterr().out.splitlines() == ["[PASS] passing entry: detail one"]
    monkeypatch.setattr(checks, "CHECKS", [passing, failing])
    assert main(["check"]) == 1
    assert capsys.readouterr().out.splitlines() == ["[PASS] passing entry: detail one",
                                                    "[FAIL] failing entry: detail two"]


def test_cli_import_loads_only_linalg_from_scipy():
    """A run imports scipy.linalg up front (every LU needs it, and the BLAS
    thread pin finds scipy's OpenBLAS through it); the oracle, k-d tree,
    sparse (band ordering) and ARPACK modules and the check suite load only
    when a task uses them."""
    import pointgap

    src = os.path.dirname(os.path.dirname(os.path.abspath(pointgap.__file__)))
    code = ("import sys, pointgap.cli; print(' '.join(m for m in ('scipy.linalg', "
            "'scipy.optimize', 'scipy.spatial', 'scipy.sparse', 'scipy.sparse.csgraph', "
            "'scipy.sparse.linalg', 'pointgap.checks') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.split() == ["scipy.linalg"]


def test_main_presets_listing(tmp_path, capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "figS4ef" in out
    assert main(["presets", "--write", str(tmp_path / "p")]) == 0
    files = sorted(os.listdir(tmp_path / "p"))
    assert f"fig1.json" in files and len(files) == len(PRESETS)
    cfg = config_from_dict(json.loads((tmp_path / "p" / "fig3b.json").read_text()))
    assert cfg.sector == (3, -1)
