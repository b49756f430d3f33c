import json
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy

from pointgap.cli import execute, main
from pointgap.models import DotParams, dot_model
from pointgap.presets import PRESETS, ConfigError, config_from_dict, preset_config
from pointgap.spectral import DEGENERACY_TOL, theta_grid


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


def _load_script(*parts):
    """A script outside the package, loaded as a module (its ``main`` is not run)."""
    import importlib.util

    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), *parts)
    spec = importlib.util.spec_from_file_location(os.path.splitext(parts[-1])[0], path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_preset_hash_listing_configs_validate():
    """Every config the hash listing tool would run validates (none is run)."""
    tool = _load_script("tests", "fixtures", "preset_hashes.py")
    names = [name for name, _ in tool.configs()]
    assert len(names) == len(set(names))
    assert {"fig1", *tool.ORACLE_CONFIGS, *tool.ONE_BODY_CONFIGS} <= set(names)


def test_committed_hash_listing_names_every_config():
    """The listing ``preset_hashes.py --check`` compares with names the
    configs the tool runs, in its order (nothing is run)."""
    tool = _load_script("tests", "fixtures", "preset_hashes.py")
    with open(tool.LISTING) as fh:
        entries = [line.split() for line in fh.read().splitlines()]
    assert all(len(entry) == 2 and len(entry[1]) == 64 for entry in entries)
    listed = list(dict.fromkeys(entry[0].split("/")[0] for entry in entries))
    assert listed == [name for name, _ in tool.configs()]


def _made_with_committed_versions(what):
    """Skip unless numpy and scipy are the versions ``what`` was made with."""
    return pytest.mark.skipif(
        (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"),
        reason=f"{what} was made with numpy 2.4.6 and scipy 1.17.1; "
               "another build may change the last bits of an eigenvalue")


@_made_with_committed_versions("the committed hash listing")
def test_preset_outputs_match_the_committed_hash_listing():
    """Every data file of the listed runs has the committed sha256, line for
    line (what ``preset_hashes.py --check`` compares)."""
    tool = _load_script("tests", "fixtures", "preset_hashes.py")
    with open(tool.LISTING) as fh:
        expected = fh.read().splitlines()
    assert list(tool.listing()) == expected


@_made_with_committed_versions("the committed skin fixture")
def test_skin_fixture_matches_its_generator():
    """``skin_thresholds.json`` holds exactly what its generator measures
    (what ``generate_skin_thresholds.py --check`` compares)."""
    tool = _load_script("tests", "fixtures", "generate_skin_thresholds.py")
    with open(tool.FIXTURE) as fh:
        committed = json.load(fh)
    assert tool.measure() == committed


def test_skin_fixture_check_names_each_differing_key():
    tool = _load_script("tests", "fixtures", "generate_skin_thresholds.py")
    committed = {"n_grid": 256, "interacting": {"hausdorff": 0.044205474649173515,
                                                "edge_weight": 0.2}}
    measured = {"n_grid": 256, "interacting": {"hausdorff": 0.04420547464917355,
                                               "edge_weight": 0.2}, "extra": 1.0}
    assert tool.differences(committed, measured) == [
        ("extra", "missing", 1.0),
        ("interacting.hausdorff", 0.044205474649173515, 0.04420547464917355)]
    assert tool.differences(committed, committed) == []


def test_traced_writers_take_the_output_path_first():
    """The benchmark's tracer wraps these names for ``cli.write_s`` and sizes
    ``args[0]`` for ``cli.bytes_written``: each must exist with the output
    path as its first parameter."""
    import inspect

    from pointgap import cli

    tracing = _load_script("perfbench", "tracing.py")
    names = [name for module, name, *_ in tracing.targets() if module == "pointgap.cli"]
    assert {"write_flow_csv", "write_deform_csv", "write_spectrum_csv"} <= set(names)
    for name in names:
        assert callable(getattr(cli, name, None)), name
        assert next(iter(inspect.signature(getattr(cli, name)).parameters)) == "path", name


def test_presets_catalog():
    assert len(PRESETS) >= 16
    for name in PRESETS:
        cfg = preset_config(name)   # every preset validates
        assert cfg.task in ("flow", "winding", "skin", "deform", "oracle-check")
    fig2b = preset_config("fig2b")
    assert fig2b.params.lam == fig2b.params.v == fig2b.params.j == 1.0
    heavy = preset_config("figS4ef")
    assert heavy.sector == (9, -1) and heavy.e_ref == -0.04 + 0j
    assert PRESETS["figS6"]["config"] == PRESETS["fig4b"]["config"]  # one run


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


def _spectra_reference(header, rows):
    """A spectral CSV as one ``_fmt`` per float writes it: ``rows`` holds
    (leading values, spectrum row) pairs."""
    from pointgap.cli import _fmt

    lines = [",".join(header)]
    for lead, row in rows:
        head = "".join(f"{_fmt(x)}," for x in lead)
        lines += [f"{head}{k},{_fmt(z.real)},{_fmt(z.imag)}" for k, z in enumerate(row)]
    return "\n".join([*lines, ""])


def test_spectral_writers_bytes(tmp_path):
    """The spectral writers write each float as its own repr would, bit
    pattern by bit pattern (+0.0 and -0.0 apart), with values repeated across
    rows, across path points and between real and imaginary parts."""
    from types import SimpleNamespace

    from pointgap.cli import write_deform_csv, write_flow_csv, write_spectrum_csv

    re = np.array([[0.0, -0.0, 5e-324, 1e-5],
                   [0.1, 1e16, -0.0, 0.0],
                   [9.999999999999999e-05, 9999999999999998.0, 0.1, -5e-324]])
    im = np.array([[-0.0, 0.0, 0.1, 1e16],
                   [5e-324, -0.1, 1e-5, -0.0],
                   [9999999999999998.0, 9.999999999999999e-05, 0.0, 0.1]])
    spectra = np.empty(re.shape, dtype=complex)
    spectra.real, spectra.imag = re, im
    grid = np.array([0.0, 0.1, 2.0 * np.pi])
    flows = [SimpleNamespace(grid=grid, spectra=spectra),
             SimpleNamespace(grid=grid, spectra=-spectra[::-1]),
             SimpleNamespace(grid=grid, spectra=spectra.conj())]
    path_values = np.array([0.0, 1e-5, 1.0])

    write_flow_csv(tmp_path / "flow.csv", flows[1])
    assert (tmp_path / "flow.csv").read_text() == _spectra_reference(
        ("theta", "eig_index", "re_e", "im_e"),
        [((theta,), row) for theta, row in zip(grid, flows[1].spectra)])
    write_deform_csv(tmp_path / "deform.csv", path_values, flows)
    assert (tmp_path / "deform.csv").read_text() == _spectra_reference(
        ("path_param", "theta", "eig_index", "re_e", "im_e"),
        [((s, theta), row) for s, flow in zip(path_values, flows)
         for theta, row in zip(grid, flow.spectra)])
    for values in (spectra[2], spectra[0, 1:2]):
        write_spectrum_csv(tmp_path / "obc_spectrum.csv", values)
        assert (tmp_path / "obc_spectrum.csv").read_text() == _spectra_reference(
            ("eig_index", "re_e", "im_e"), [((), values)])


def test_occupations_writer_bytes(tmp_path):
    """The occupations writer writes each float as its own repr would (+0.0
    and -0.0 apart), one line per state and mode, modes in sorted label
    order whatever the layout's order."""
    from pointgap.cli import _fmt, write_occupations_csv
    from pointgap.fock import ModeLayout
    from pointgap.observables import Occupations

    labels = ((1, "a", "up"), (0, "b", "dn"), (0, "a", "up"), (1, "a", "dn"))
    weights = np.array([[0.0, -0.0, 5e-324, 1e16],
                        [0.1, 0.0, 0.1, -0.0],
                        [1e16, 5e-324, -0.0, 0.1]])
    values = np.array([complex(-0.0, 0.0), complex(0.1, -0.0), complex(1e16, 5e-324)])
    occupations = Occupations(ModeLayout(n_modes=4, up_mask=0b0101, labels=labels),
                              values, weights, np.array([0, 1, 2]), np.zeros(3, dtype=bool))
    write_occupations_csv(tmp_path / "occupations.csv", occupations)

    lines = ["state_index,re_e,im_e,site,orbital,spin,value"]
    for k, (e, row) in enumerate(zip(values, weights)):
        head = f"{k},{_fmt(e.real)},{_fmt(e.imag)}"
        for (site, orbital, spin), value in sorted(zip(labels, row)):
            lines.append(f"{head},{site},{orbital},{spin},{_fmt(value)}")
    assert (tmp_path / "occupations.csv").read_text() == "\n".join([*lines, ""])


def test_run_determinism(tmp_path):
    cfg = config_from_dict(_cfg(sector=[2, 1], task="winding", n_grid=32,
                                params={**_cfg()["params"], "j": 1.0, "v": 1.0}))
    m1 = execute(cfg, str(tmp_path / "a"))
    m2 = execute(cfg, str(tmp_path / "b"))
    h1 = {o["path"]: o["sha256"] for o in m1["outputs"]}
    h2 = {o["path"]: o["sha256"] for o in m2["outputs"]}
    assert h1 == h2


def test_run_winding_one_body(tmp_path):
    """Without a sector, h is wound once, as its spin blocks: det(h - E) is
    det(h_up - E) det(h_dn - E), so the phases add and the margin is the
    nearer block's; the step is the larger block's and the LUs both blocks'."""
    from pointgap.models import one_body_model
    from pointgap.topology import many_body_winding, spin_winding

    chain = {"model": "chain", "params": {"length": 7, "t": 1.0, "j": 1.0, "v": 1.0}}
    for name, raw in (("dot", _cfg(task="winding", n_grid=64)),
                      ("chain", _cfg(task="winding", n_grid=64, **chain))):
        cfg = config_from_dict(raw)
        execute(cfg, str(tmp_path / name))
        payload = json.loads((tmp_path / name / "winding.json").read_text())
        assert payload["sector"] is None
        assert payload["winding"] == 0
        assert payload["spin_winding"] == [1, 1]
        _check_margin_keys(payload, 64)
        model = one_body_model(cfg.params)
        ws = spin_winding(model, 0.0, 64)
        up, dn = ws.up, ws.down
        near = dn if dn.gap_margin < up.gap_margin else up
        assert payload["winding"] == up.value + dn.value
        assert payload["raw_phase_change"] == up.raw_phase_change + dn.raw_phase_change
        assert (payload["gap_margin"], payload["margin_theta"]) == (near.gap_margin,
                                                                    near.margin_theta)
        assert payload["max_phase_step"] == max(up.max_phase_step, dn.max_phase_step)
        assert payload["grid_size_used"] == up.grid_size_used + dn.grid_size_used
        whole = many_body_winding(model, 0.0, 64)
        assert whole.value == payload["winding"]
        assert abs(whole.gap_margin - payload["gap_margin"]) <= 1e-12 * whole.gap_margin


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
    # the margin comes from the twisted flow written beside it; at J = V = 0
    # every theta ties to a few ulp, and margin_theta is the lowest of them
    flow = np.loadtxt(tmp_path / "flow.csv", delimiter=",", skiprows=1)
    dists = np.hypot(flow[:, 2], flow[:, 3])
    assert winding["gap_margin"] == dists.min()
    tied = np.flatnonzero(dists - dists.min() <= DEGENERACY_TOL * dists.min())
    assert winding["margin_theta"] == flow[tied[0], 0] == 0.0
    assert manifest["summary"]["hausdorff_obc_pbc"] == pytest.approx(1.0, abs=1e-6)


def test_winding_and_skin_tasks_write_the_same_winding(tmp_path):
    """A ``winding`` and a ``skin`` task on one sector, E and n_grid wind
    from the same sweep rows, so their winding.json files are equal."""
    raw = {"model": "chain", "sector": [3, -1], "e_ref": [0.0, 0.3], "n_grid": 64,
           "params": {"length": 7, "t": 1.0, "j": 1.0, "v": 1.0}}
    payloads = {}
    for task in ("winding", "skin"):
        execute(config_from_dict({**raw, "task": task}), str(tmp_path / task))
        payloads[task] = json.loads((tmp_path / task / "winding.json").read_text())
    assert payloads["winding"] == payloads["skin"]


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
            "params": {"length": 7, "t": 1.0, "j": 0.04, "v": 0.03}}
    with pytest.raises(ConfigError, match="sector"):
        config_from_dict({**base, "sector": None})
    # the splitting formulas read the model's own edge amplitudes
    execute(config_from_dict(base), str(tmp_path))
    report = json.loads((tmp_path / "oracle.json").read_text())
    assert report["second_order_scaling_ok"] is True
    assert abs(report["error_ratio_under_halving"] - 4.0) < 0.5


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


def test_main_fixed_phase_exit_code(tmp_path, capsys, monkeypatch):
    # chain (4,+1) at E = 0.3i: the s = -1 relation fixes the phase of
    # det[H - E] at theta = pi / 2, the end of the quarter arc; a pivot
    # turned there is refused
    from pointgap import topology

    factor_model = topology.factor_model

    def turned(model, theta, e_ref):
        factors, scale = factor_model(model, theta, e_ref)
        if theta == np.pi / 2:
            factors.lu[factors.kl + factors.ku, 0] *= np.exp(0.01j)
        return factors, scale
    monkeypatch.setattr(topology, "factor_model", turned)
    cfg_path = tmp_path / "fixed.json"
    cfg_path.write_text(json.dumps(_cfg(model="chain", task="winding", sector=[4, 1],
                                        params={"length": 7, "j": 1.0, "v": 1.0},
                                        e_ref=[0.0, 0.3], n_grid=16)))
    code = main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "sector (4, 1)" in err and "s = -1 conjugation relation" in err


@pytest.mark.parametrize("model, task, params, sector, message", [
    ("chain", "winding", {"length": 7}, [1, -1],
     "incompatible with singly occupied edge b sites"),
    ("chain", "winding", {"length": 40}, [3, -1], "layouts above 64 modes"),
    ("dot", "winding", {}, [0, -1], "sector (N=0, P=-1) is empty"),
    ("dot", "deform", {}, [0, -1], "sector (N=0, P=-1) is empty"),
    ("dot", "flow", {}, [0, -1], "sector (N=0, P=-1) is empty"),
], ids=["no-edge-fermions", "too-many-modes", "empty-dot-winding", "empty-dot-deform",
        "empty-dot-flow"])
def test_main_unbuildable_sector_is_config_error(tmp_path, capsys, model, task, params,
                                                 sector, message):
    raw = {"model": model, "task": task, "sector": sector, "params": params}
    if task == "deform":
        raw["path"] = "pair-ramp"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and message in err
    assert not (tmp_path / "o").exists()  # refused before any output


@pytest.mark.parametrize("raw", [
    _cfg(task="winding", sector=[2, 1], n_grid=16, e_ref=["a", 0]),
    _cfg(task="winding", sector=[2, 1], n_grid=16, e_ref=float("nan")),
    _cfg(task="winding", sector=[2, 1], n_grid=16, e_ref=[10 ** 400, 0]),
    {"model": "chain", "task": "winding", "sector": [3, -1], "params": {"length": 7.0}},
    {"model": "chain", "task": "flow", "n_grid": 16, "params": {"length": 40}},
    _cfg(task="winding", sector=[2, True], n_grid=16),
    _cfg(task="deform", sector=[2, 1], path="pair-ramp", n_path=True, n_grid=16),
    {"model": "chain", "task": "skin", "sector": [3, -1], "n_grid": 16,
     "params": {"length": 7, "bc": "open"}},
    {"model": "chain", "task": "skin", "sector": [3, -1], "n_grid": 16,
     "params": {"length": 7, "bc": "periodic"}},
    {"model": "chain", "task": "flow", "n_grid": 16,
     "params": {"length": 7, "gauge": "distributed"}},
    {"model": "chain", "task": "flow", "n_grid": 16,
     "params": {"length": 7, "edge_convention": "exchange-full"}},
    {"model": "chain", "task": "flow", "n_grid": 16,
     "params": {"length": 7, "edge_convention": "exchange-imag"}},
    {"model": "chain", "task": "flow", "n_grid": 16,
     "params": {"length": 7, "bc": "periodic"}},
    {"model": "chain", "task": "oracle-check", "sector": [4, 1],
     "params": {"length": 7, "j": 0.02, "v": 0.03}},
    {"model": "dot", "task": "oracle-check", "sector": [1, -1],
     "params": {"j": 1.0, "v": 1.0}},
], ids=["e_ref-text", "e_ref-nan", "e_ref-beyond-float", "float-length",
        "one-body-too-long", "bool-parity", "bool-n_path", "skin-open-bc",
        "skin-periodic-bc", "removed-gauge", "removed-exchange-full",
        "removed-exchange-imag", "removed-periodic-bc", "oracle-check-beyond-n3",
        "dot-oracle-check-sector"])
def test_main_bad_config_values_exit_two(tmp_path, capsys, raw):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert main(["run", str(cfg_path), "--output-dir", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not (tmp_path / "o").exists()  # refused before any output


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
    when a task uses them.  Building a sector model orders no band: that
    waits for its first band factor."""
    import pointgap

    src = os.path.dirname(os.path.dirname(os.path.abspath(pointgap.__file__)))
    code = ("import sys, pointgap.cli\n"
            "from pointgap.models import ChainParams, chain_model\n"
            "def loaded():\n"
            "    print(' '.join(m for m in ('scipy.linalg', 'scipy.optimize', "
            "'scipy.spatial', 'scipy.sparse', 'scipy.sparse.csgraph', "
            "'scipy.sparse.linalg', 'pointgap.checks') if m in sys.modules))\n"
            "loaded()\n"
            "assert chain_model(ChainParams(length=7, j=1.0, v=1.0), 4, 1).dim == 182\n"
            "loaded()\n")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.splitlines() == ["scipy.linalg", "scipy.linalg"]


def test_main_presets_listing(tmp_path, capsys):
    assert main(["presets"]) == 0
    out = capsys.readouterr().out
    assert "fig1" in out and "figS4ef" in out
    assert main(["presets", "--write", str(tmp_path / "p")]) == 0
    files = sorted(os.listdir(tmp_path / "p"))
    assert f"fig1.json" in files and len(files) == len(PRESETS)
    cfg = config_from_dict(json.loads((tmp_path / "p" / "fig3b.json").read_text()))
    assert cfg.sector == (3, -1)
