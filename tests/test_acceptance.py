"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured numbers (run with ``pytest -v -s`` to see
them inline).  Tolerances are pinned here, not configurable.

The one long-running criterion (the 6864-dimensional half-filled chain
sector) is marked ``heavy`` and deselected by default; run it explicitly with
``pytest -m heavy tests/test_acceptance.py``.
"""

import json
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from pointgap.cli import execute
from pointgap.fock import UP
from pointgap.models import (
    ChainParams,
    DotParams,
    chain_model,
    dot_model,
    dot_sector_basis,
    one_body_model,
)
from pointgap.observables import boundary_sensitivity, product_state_profiles
from pointgap.oracles import diagonal_flow_winding, dot_sector_diagonal_flows
from pointgap.presets import preset_config
from pointgap.spectral import eigendecompose, sweep_theta
from pointgap.topology import many_body_winding, spin_winding
from pointgap import checks as checks_mod

DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                eps_b_dn=-0.25)
CHAIN = ChainParams(length=7, t=1.0)
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures",
                       "skin_thresholds.json")


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail} "
          f"({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s budget"


def test_criterion_1_one_body_invariants():
    t0 = time.perf_counter()
    h_dot = one_body_model(DOT)
    w_dot = many_body_winding(h_dot, 0.0)
    ws_dot = spin_winding(h_dot, 0.0)
    t_dot = time.perf_counter() - t0

    t1 = time.perf_counter()
    h_chain = one_body_model(CHAIN)
    w_chain = many_body_winding(h_chain, 0.0)
    ws_chain = spin_winding(h_chain, 0.0)
    t_chain = time.perf_counter() - t1

    ok = ((w_dot.value, ws_dot.value) == (0, 1)
          and (w_chain.value, ws_chain.value) == (0, 1))
    detail = (f"dot (w, ws) = ({w_dot.value}, {ws_dot.value}), "
              f"chain (w, ws) = ({w_chain.value}, {ws_chain.value})")
    _report(1, ok and max(t_dot, t_chain) < 1.0, detail,
            max(t_dot, t_chain), 1.0)


def test_criterion_2_closed_form_equivalence():
    t0 = time.perf_counter()
    worst, ok = checks_mod.dot_closed_form_verdict(replace(DOT, j=1.0, v=1.0), seed=7)
    elapsed = time.perf_counter() - t0
    _report(2, ok,
            f"max closed-form vs ED distance {worst:.2e} over 21 draws", elapsed, 5.0)


def test_criterion_3_many_body_trivialization():
    t0 = time.perf_counter()
    windings = {}
    for jv in (0.0, 1.0):
        p = replace(DOT, j=jv, v=jv)
        windings[(2, 1, jv)] = many_body_winding(dot_model(p, 2, 1), 0.0, n_grid=128).value
        windings[(2, -1, jv)] = many_body_winding(dot_model(p, 2, -1), 0.0,
                                                  n_grid=128).value
    all_zero = all(v == 0 for v in windings.values())

    p_int = replace(DOT, j=1.0, v=1.0)
    flow = sweep_theta(dot_model(p_int, 2, 1), 256)
    line_gap = float(np.min(flow.spectra.imag.max(axis=1)
                            - flow.spectra.imag.min(axis=1)))
    gap_ok = line_gap >= p_int.v - 1e-10

    contrast_numeric = many_body_winding(dot_model(DOT, 1, -1), 0.0, n_grid=128).value
    contrast_analytic = diagonal_flow_winding(
        dot_sector_diagonal_flows(DOT, dot_sector_basis(1, -1)), 0.0)
    contrast_ok = contrast_numeric == contrast_analytic == 1

    elapsed = time.perf_counter() - t0
    ok = all_zero and gap_ok and contrast_ok
    _report(3, ok,
            f"W(2,+1) = W(2,-1) = 0 at both couplings: {all_zero}; "
            f"line gap {line_gap:.6f} >= V; W(1,-1) = {contrast_numeric}",
            elapsed, 5.0)


def test_criterion_4_deformation_paths(tmp_path):
    # fig2c and fig2d: the dot (2,+1) sector of DOT along each path, 33 path
    # points, 64 twist steps, reference energy 0
    t0 = time.perf_counter()
    results = {}
    for name in ("fig2c", "fig2d"):
        cfg = preset_config(name)
        assert (cfg.params, cfg.sector, cfg.n_path, cfg.n_grid, cfg.e_ref) == (
            DOT, (2, 1), 32, 64, 0.0)
        execute(cfg, str(tmp_path / name))
        payload = json.loads((tmp_path / name / "windings.json").read_text())
        windings = {pt["winding"] for pt in payload["points"]}
        results[cfg.path] = (payload["gap_margin"], windings)
    elapsed = time.perf_counter() - t0
    ok = all(margin > 0 and windings == {0}
             for margin, windings in results.values())
    detail = "; ".join(
        f"{path}: min |E| = {margin:.4f}, windings {sorted(w)}"
        for path, (margin, w) in results.items())
    _report(4, ok, detail, elapsed, 30.0)


def test_criterion_5_skin_effect_fragility():
    t0 = time.perf_counter()
    with open(FIXTURE) as fh:
        frozen = json.load(fh)
    n_grid = frozen["n_grid"]

    obc = replace(CHAIN, bc="open")
    sol = eigendecompose(chain_model(obc, 3, -1).matrix(0.0))
    obc_zero = float(np.abs(sol.values).max())

    w = many_body_winding(chain_model(CHAIN, 3, -1), 0.0, n_grid=n_grid)

    up = product_state_profiles(obc, (3, -1)).spin_weights(UP)
    up = up[up.sum(axis=1) > 1e-9]
    fracs = (up[:, -2:] / up.sum(axis=1, keepdims=True)).sum(axis=1)

    bs0 = boundary_sensitivity(CHAIN, (3, -1), n_grid=n_grid)
    bs1 = boundary_sensitivity(replace(CHAIN, j=1.0, v=1.0), (3, -1), n_grid=n_grid)

    checks = {
        "obc max |E| < 1e-8": obc_zero < 1e-8,
        "gap margin > 0": w.gap_margin > 0,
        "W(3,-1) = 0": w.value == 0,
        "up weight on rightmost two >= 0.60": min(fracs) >= 0.60,
        "hausdorff drops below 0.2x": (
            bs1.hausdorff_obc_pbc < 0.2 * bs0.hausdorff_obc_pbc),
        "max-site occupation drops": (
            bs1.max_site_occupation < bs0.max_site_occupation),
        "matches frozen fixture": (
            abs(bs1.hausdorff_obc_pbc - frozen["interacting"]["hausdorff"]) < 1e-6
            and abs(bs1.max_site_occupation
                    - frozen["interacting"]["max_site_occupation"]) < 1e-6
            and abs(bs0.hausdorff_obc_pbc
                    - frozen["noninteracting"]["hausdorff"]) < 1e-6),
    }
    elapsed = time.perf_counter() - t0
    failed = [k for k, v in checks.items() if not v]
    _report(5, not failed,
            f"obc max |E| = {obc_zero:.1e}, margin = {w.gap_margin:.3f}, "
            f"min edge fraction = {min(fracs):.3f}, hausdorff "
            f"{bs0.hausdorff_obc_pbc:.4f} -> {bs1.hausdorff_obc_pbc:.4f}, "
            f"max site {bs0.max_site_occupation:.3f} -> "
            f"{bs1.max_site_occupation:.3f}"
            + (f"; FAILED: {failed}" if failed else ""),
            elapsed, 60.0)


def test_criterion_6_larger_sector_windings():
    t0 = time.perf_counter()
    values = {}
    for jv in (0.0, 1.0):
        p = replace(CHAIN, j=jv, v=jv)
        res = many_body_winding(chain_model(p, 4, 1), 0.3j, n_grid=64)
        values[jv] = (res.value, res.gap_margin)
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 and margin > 0 for v, margin in values.values())
    detail = ", ".join(f"J=V={jv}: W(4,+1) = {v} (margin {m:.4f})"
                       for jv, (v, m) in values.items())
    _report(6, ok, detail, elapsed, 120.0)


@pytest.mark.heavy
def test_criterion_6_heavy_half_filled_windings():
    """Half-filled chain sector (dim 6864); about 70 s on 2 vCPUs, run
    explicitly with ``pytest -m heavy``."""
    t0 = time.perf_counter()
    values = {}
    for jv in (0.0, 1.0):
        p = replace(CHAIN, j=jv, v=jv)
        res = many_body_winding(chain_model(p, 9, -1), -0.04, n_grid=64)
        values[jv] = (res.value, res.gap_margin)
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 and margin > 0 for v, margin in values.values())
    detail = ", ".join(f"J=V={jv}: W(9,-1) = {v} (margin {m:.2e})"
                       for jv, (v, m) in values.items())
    _report("6-heavy", ok, detail, elapsed, 7200.0)


def test_criterion_7_perturbation_oracle():
    t0 = time.perf_counter()
    # the splitting formulas read the model's own edge amplitudes; they
    # spread the twist over every link, which has the eigenvalues of the
    # model's boundary-link twist
    p = ChainParams(length=7, t=1.0, j=0.04, v=0.03)
    err, err_half, ratio, ok = checks_mod.chain_splitting_verdict(p, (3, -1))
    elapsed = time.perf_counter() - t0
    _report(7, ok,
            f"assignment distance {err:.3e} -> {err_half:.3e}, "
            f"halving ratio {ratio:.3f} (want 4 +- 0.5)", elapsed, 30.0)


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    results = checks_mod.run_all(verbose=False)
    elapsed = time.perf_counter() - t0
    failed = [r.name for r in results if not r.ok]
    for r in results:
        print(f"  [{'PASS' if r.ok else 'FAIL'}] {r.name}: {r.detail}")
    _report(8, not failed,
            f"{len(results)} property suites" + (f"; FAILED: {failed}" if failed else ""),
            elapsed, 60.0)
