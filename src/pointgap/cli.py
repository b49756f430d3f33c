"""Reproducible experiment runner.

Subcommands:

* ``pointgap run <config.json>`` - execute one experiment, write CSV/JSON
  artifacts plus a content-hashed run manifest into the output directory.
* ``pointgap presets`` - list the bundled per-panel presets
  (``--write DIR`` materializes them as config files).
* ``pointgap check`` - run the invariant/oracle property suite.

Exit codes: 0 success, 2 configuration or validation error, 3 computation
error (a closed gap, an unresolved winding, solver failure); stderr carries
the structured context.  Identical configs reproduce byte-identical data
files: eigenvalues are emitted in sorted order, eigenvector phases are fixed,
and floats are written as shortest round-trip decimals (their ``repr``).  A
spectral or occupations CSV makes that repr once per distinct 64-bit pattern
in the file; a spectral one writes one block of lines per flow, each block
one join of its lines' pieces.  Its bytes are those of one repr per float.
A JSON artifact is one ``json.dumps`` and one write.  A deform task builds
each path point's model once, sweeps the whole path in one ``sweep_theta``
call and winds it in one ``many_body_winding`` call; an eigensolve that
fails or a gap that closes there names its theta and path point ``s``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace

import numpy as np

from . import __version__
from .models import (
    chain_model,
    chain_sector_basis,
    deformation_params,
    dot_model,
    dot_sector_basis,
    one_body_model,
)
from .observables import boundary_sensitivity, product_state_profiles
from .presets import PRESETS, HEAVY_DIM, ConfigError, ExperimentConfig, config_from_dict
from .spectral import EigensolverError, SpectralError, sweep_theta
from .topology import GapClosedError, WindingResult, many_body_winding, spin_winding


def _reprs(values):
    """The shortest round-trip decimal (``repr``) of each float of
    ``values``, as an object array of its shape; made once per distinct
    64-bit pattern, so -0.0 stays apart from 0.0."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    texts = np.array([repr(x) for x in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].reshape(values.shape)


def _write_spectra(path, header, heads, spectra):
    """Write ``header``, then one line ``<head><index>,<re>,<im>`` per
    eigenvalue, one block of rows per flow: ``heads[i][r]`` leads row ``r``
    of ``spectra[i]``.

    The file's reprs come from one ``_reprs``: a flow's twist-orbit image
    rows copy or negate its solved rows, so fig3b's flow.csv holds 14,392
    floats but 4,069 distinct ones.  A block is one object array of its
    lines' pieces - head, index, re, ",", im and a newline - joined once,
    so only one flow's pieces are held at a time.  The bytes are those of
    one repr per float.
    """
    values = np.concatenate(spectra, dtype=complex).view(np.float64)  # re, im interleaved
    table = _reprs(values)
    index = np.array([f"{k}," for k in range(values.shape[1] // 2)], dtype=object)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        start = 0
        for block_heads in heads:
            rows = table[start:start + len(block_heads)]
            start += len(block_heads)
            pieces = np.empty((len(rows), len(index), 6), dtype=object)
            pieces[..., 0] = np.array(block_heads, dtype=object)[:, None]
            pieces[..., 1] = index
            pieces[..., 2] = rows[:, 0::2]
            pieces[..., 3] = ","
            pieces[..., 4] = rows[:, 1::2]
            pieces[..., 5] = "\n"
            fh.write("".join(pieces.reshape(-1).tolist()))


def write_flow_csv(path, flow):
    heads = [f"{theta!r}," for theta in flow.grid.tolist()]
    _write_spectra(path, ("theta", "eig_index", "re_e", "im_e"), [heads], [flow.spectra])


def write_deform_csv(path, path_values, flows):
    """The flows are swept on one twist grid; each path value's and each
    theta's repr is made once."""
    thetas = np.array([f"{theta!r}," for theta in flows[0].grid.tolist()], dtype=object)
    heads = np.array([f"{s!r}," for s in path_values.tolist()], dtype=object)[:, None] + thetas
    _write_spectra(path, ("path_param", "theta", "eig_index", "re_e", "im_e"), heads,
                   [flow.spectra for flow in flows])


def write_spectrum_csv(path, values):
    _write_spectra(path, ("eig_index", "re_e", "im_e"), [[""]], [np.asarray(values)[None]])


def write_occupations_csv(path, occupations):
    """One line ``<state>,<re>,<im>,<site>,<orbital>,<spin>,<value>`` per
    state and mode, states in record order and modes in sorted label order."""
    labels = occupations.layout.labels
    order = sorted(range(len(labels)), key=labels.__getitem__)
    values = occupations.values
    table = _reprs(np.column_stack([values.real, values.imag, occupations.weights[:, order]]))
    heads = (np.arange(len(table)).astype(str).astype(object)
             + "," + table[:, 0] + "," + table[:, 1] + ",")
    modes = np.array([f"{site},{orbital},{spin}," for site, orbital, spin in
                      (labels[m] for m in order)], dtype=object)
    lines = (heads[:, None] + modes + table[:, 2:]).ravel().tolist()
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(["state_index,re_e,im_e,site,orbital,spin,value", *lines, ""]))


def _write_json(path, payload):
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _winding_payload(result, sector, e_ref):
    return {
        "sector": list(sector) if sector is not None else None,
        "e_ref": [e_ref.real, e_ref.imag],
        "winding": result.value,
        "raw_phase_change": result.raw_phase_change,
        "gap_margin": result.gap_margin,
        "margin_theta": result.margin_theta,
        "max_phase_step": result.max_phase_step,
        "grid_size_used": result.grid_size_used,
    }


def _model(cfg: ExperimentConfig):
    """The config's sector model, or its one-body model where it names no sector."""
    if cfg.sector is None:
        return one_body_model(cfg.params)
    if cfg.model == "dot":
        return dot_model(cfg.params, *cfg.sector)
    return chain_model(cfg.params, *cfg.sector)


# ---------------------------------------------------------------------------
# task runners: each returns (summary dict, [artifact names])
# ---------------------------------------------------------------------------

def run_flow(cfg, outdir):
    flow = sweep_theta(_model(cfg), cfg.n_grid)
    write_flow_csv(os.path.join(outdir, "flow.csv"), flow)
    return {"dim": flow.dim, "n_theta": len(flow.grid)}, ["flow.csv"]


def run_winding(cfg, outdir):
    model = _model(cfg)
    ws = spin_winding(model, cfg.e_ref, cfg.n_grid) if cfg.sector is None else None
    if ws is None:
        w = many_body_winding(model, cfg.e_ref, cfg.n_grid)
    else:  # det(h - E) = det(h_up - E) det(h_dn - E): the margin is the nearer block's
        up, dn = ws.up, ws.down
        near = dn if dn.gap_margin < up.gap_margin else up
        w = WindingResult(up.value + dn.value, up.raw_phase_change + dn.raw_phase_change,
                          max(up.max_phase_step, dn.max_phase_step), near.gap_margin,
                          near.margin_theta, up.grid_size_used + dn.grid_size_used)
    payload = _winding_payload(w, cfg.sector, cfg.e_ref)
    summary = {k: payload[k] for k in ("winding", "gap_margin", "grid_size_used")}
    if ws is not None:
        payload["spin_winding"] = summary["spin_winding"] = [ws.value.numerator,
                                                             ws.value.denominator]
    _write_json(os.path.join(outdir, "winding.json"), payload)
    return summary, ["winding.json"]


def run_skin(cfg, outdir):
    bs = boundary_sensitivity(cfg.params, cfg.sector, cfg.n_grid)
    write_flow_csv(os.path.join(outdir, "flow.csv"), bs.flow)
    write_spectrum_csv(os.path.join(outdir, "obc_spectrum.csv"), bs.obc_occupations.values)

    obc = replace(cfg.params, bc="open")
    write_occupations_csv(os.path.join(outdir, "occupations.csv"), bs.obc_occupations)
    artifacts = ["flow.csv", "obc_spectrum.csv", "occupations.csv",
                 "sensitivity.json", "winding.json"]
    if cfg.params.j == 0.0 and cfg.params.v == 0.0:
        write_occupations_csv(os.path.join(outdir, "product_occupations.csv"),
                              product_state_profiles(obc, cfg.sector))
        artifacts.append("product_occupations.csv")

    # the flow above is of the winding's own model
    w = many_body_winding(bs.twisted_model, cfg.e_ref, cfg.n_grid,
                          spectra=bs.flow.spectra)
    _write_json(os.path.join(outdir, "winding.json"),
                _winding_payload(w, cfg.sector, cfg.e_ref))
    sens = {
        "hausdorff_obc_pbc": bs.hausdorff_obc_pbc,
        "edge_weight": bs.edge_weight,
        "max_site_occupation": bs.max_site_occupation,
    }
    _write_json(os.path.join(outdir, "sensitivity.json"), sens)
    summary = dict(sens)
    summary["winding"] = w.value
    summary["gap_margin"] = w.gap_margin
    return summary, artifacts


def run_deform(cfg, outdir):
    """Flow and winding at n_path + 1 points along a dot deformation path.

    Each point's model is built once; one ``sweep_theta`` call sweeps the
    whole path, and one ``many_body_winding`` call winds it, each point's
    flow giving its winding's phases and margin.  An eigensolve that fails
    or a gap that closes names its theta and path point ``s``.
    """
    path_values = np.linspace(0.0, 1.0, cfg.n_path + 1)
    models = [dot_model(deformation_params(cfg.params, cfg.path, s), *cfg.sector)
              for s in path_values.tolist()]
    try:
        flows = sweep_theta(models, cfg.n_grid)
        windings = many_body_winding(models, cfg.e_ref, cfg.n_grid,
                                     spectra=[flow.spectra for flow in flows])
    except EigensolverError as exc:
        raise EigensolverError(
            f"eigensolver failed at theta={exc.theta:.6f}, path point "
            f"s={path_values[exc.model].item()!r}", theta=exc.theta, model=exc.model) from exc
    except GapClosedError as exc:
        raise GapClosedError(
            exc.theta, exc.e_ref, f"{exc.detail}, path point "
            f"s={path_values[exc.model].item()!r}", model=exc.model) from exc
    points = [{"s": s, "winding": w.value, "gap_margin": w.gap_margin}
              for s, w in zip(path_values.tolist(), windings)]
    write_deform_csv(os.path.join(outdir, "deform.csv"), path_values, flows)
    # the smallest distance over the whole (path, theta) grid
    gap_margin = min(pt["gap_margin"] for pt in points)
    payload = {
        "path": cfg.path,
        "sector": list(cfg.sector),
        "e_ref": [cfg.e_ref.real, cfg.e_ref.imag],
        "gap_margin": gap_margin,
        "points": points,
    }
    _write_json(os.path.join(outdir, "windings.json"), payload)
    values = {pt["winding"] for pt in points}
    return {"gap_margin": gap_margin, "windings": sorted(values),
            "winding_constant": len(values) == 1}, ["deform.csv", "windings.json"]


def run_oracle_check(cfg, outdir):
    from . import checks as checks_mod

    if cfg.model == "dot":
        worst, ok = checks_mod.dot_closed_form_verdict(cfg.params, seed=2024)
        report = {"dot_max_eigenvalue_distance": worst, "dot_ok": ok}
    else:
        err, err_half, ratio, ok = checks_mod.chain_splitting_verdict(cfg.params,
                                                                     cfg.sector)
        report = {"splitting_error": err, "splitting_error_halved": err_half,
                  "error_ratio_under_halving": ratio, "second_order_scaling_ok": ok}
    _write_json(os.path.join(outdir, "oracle.json"), report)
    return report, ["oracle.json"]


TASK_RUNNERS = {
    "flow": run_flow,
    "winding": run_winding,
    "skin": run_skin,
    "deform": run_deform,
    "oracle-check": run_oracle_check,
}


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def _sector_dim(cfg: ExperimentConfig) -> int:
    if cfg.sector is None:
        return 0
    if cfg.model == "dot":
        return dot_sector_basis(*cfg.sector).dim
    return chain_sector_basis(cfg.params, *cfg.sector).dim


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def execute(cfg: ExperimentConfig, outdir: str, allow_heavy: bool = False) -> dict:
    """Run one validated config; returns the manifest dict."""
    try:
        dim = _sector_dim(cfg)
    except ValueError as exc:  # a sector this model cannot build
        raise ConfigError(str(exc)) from exc
    if cfg.sector is not None and dim == 0:
        n, parity = cfg.sector
        raise ConfigError(f"sector (N={n}, P={parity:+d}) is empty: it has no states")
    if dim > HEAVY_DIM and not allow_heavy:
        raise ConfigError(
            f"sector dimension {dim} exceeds {HEAVY_DIM}; rerun with --allow-heavy")
    try:
        os.makedirs(outdir, exist_ok=True)
    except OSError as exc:  # e.g. a file already at that path
        raise ConfigError(f"cannot create output directory {outdir!r}: {exc}") from None
    lock_path = os.path.join(outdir, ".pointgap.lock")
    try:
        fd = os.open(lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        raise ConfigError(
            f"output directory {outdir!r} is locked by another run "
            f"({lock_path} exists)") from None
    os.write(fd, str(os.getpid()).encode())
    os.close(fd)
    try:
        start = time.perf_counter()
        summary, artifacts = TASK_RUNNERS[cfg.task](cfg, outdir)
        wall = time.perf_counter() - start
        manifest = {
            "config": cfg.to_dict(),
            "tool_version": __version__,
            "wall_time_s": wall,
            "summary": summary,
            "outputs": [{"path": name, "sha256": _sha256(os.path.join(outdir, name))}
                        for name in artifacts],
        }
        tmp = os.path.join(outdir, ".run_manifest.tmp")
        _write_json(tmp, manifest)
        os.replace(tmp, os.path.join(outdir, "run_manifest.json"))
        return manifest
    finally:
        os.unlink(lock_path)


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 or not JSON
        print(f"config error: cannot read {args.config}: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = config_from_dict(raw)
        outdir = args.output_dir or cfg.output_dir or "."
        manifest = execute(cfg, outdir, allow_heavy=args.allow_heavy)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpectralError as exc:
        context = {"task": raw.get("task"), "sector": raw.get("sector"),
                   "error": type(exc).__name__, "message": str(exc)}
        theta = getattr(exc, "theta", None)
        if theta is not None:
            context["theta"] = theta
        print(f"computation error: {json.dumps(context, sort_keys=True)}",
              file=sys.stderr)
        return 3
    for key, value in sorted(manifest["summary"].items()):
        print(f"{key}: {value}")
    print(f"outputs written to {outdir} "
          f"({', '.join(o['path'] for o in manifest['outputs'])})")
    return 0


def _cmd_presets(args) -> int:
    for name, entry in PRESETS.items():
        cfg = entry["config"]
        sector = cfg.get("sector")
        sector_txt = f"({sector[0]},{sector[1]:+d})" if sector else "one-body"
        print(f"{name:9s} {cfg['model']:5s} {cfg['task']:12s} {sector_txt:9s} "
              f"{entry['description']}")
    if args.write:
        os.makedirs(args.write, exist_ok=True)
        for name, entry in PRESETS.items():
            _write_json(os.path.join(args.write, f"{name}.json"), entry["config"])
        print(f"wrote {len(PRESETS)} preset files to {args.write}")
    return 0


def _cmd_check(args) -> int:
    from . import checks as checks_mod

    results = checks_mod.run_all(verbose=True)
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pointgap",
        description="winding numbers and skin-effect diagnostics for "
                    "interacting non-Hermitian fermion models")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--output-dir", help="override the config's output_dir")
    p_run.add_argument("--allow-heavy", action="store_true",
                       help=f"permit sectors with dimension above {HEAVY_DIM}")
    p_run.set_defaults(fn=_cmd_run)

    p_presets = sub.add_parser("presets", help="list bundled experiment presets")
    p_presets.add_argument("--write", metavar="DIR",
                           help="also write each preset as DIR/<name>.json")
    p_presets.set_defaults(fn=_cmd_presets)

    p_check = sub.add_parser("check", help="run the oracle/invariant suite")
    p_check.set_defaults(fn=_cmd_check)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
