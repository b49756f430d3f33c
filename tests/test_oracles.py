from dataclasses import replace

import numpy as np
import pytest

from pointgap.checks import chain_splitting_verdict
from pointgap.fock import apply_create, chain_layout
from pointgap.models import (
    ChainParams,
    DotParams,
    chain_model,
    dot_model,
    edge_amplitudes,
)
from pointgap.oracles import (
    CircleFlow,
    FlowThroughReferenceError,
    chain_first_order_eigenvalues,
    circle_flow_winding,
    diagonal_flow_winding,
    dot_sector21_eigenvalues,
    dot_sector2m1_eigenvalues,
    dot_shift_params,
    eigenvalue_match,
)

FIG_DOT = DotParams(lam=1.0, eps_a_up=0.2, eps_a_dn=-0.1, eps_b_up=0.35,
                    eps_b_dn=-0.25)


def test_shift_parameter_combinations():
    d0, d3, d0p, d3p = dot_shift_params(FIG_DOT)
    assert abs(d0 - 0.1) < 1e-15
    assert abs(d3 - 0.45) < 1e-15
    assert abs(d0p - 0.1) < 1e-15
    assert abs(d3p - (0.2 - 0.25 + 0.1 - 0.35) / 2) < 1e-15


def test_two_level_strict_reference_point():
    # at lam = 1 the in-root term lam sin(theta) is the bare sin(theta)
    p = replace(FIG_DOT, j=1.0, v=1.0)
    ep, em = dot_sector21_eigenvalues(p, np.pi / 2)
    root = np.sqrt(1.45**2 + 0.25)
    assert abs(ep - 1j * (0.1 + root)) < 5e-6
    assert abs(em - 1j * (0.1 - root)) < 5e-6
    assert abs(root - 1.53379) < 5e-6


def test_two_level_no_coupling_limit():
    p = DotParams(lam=0.8, eps_a_up=0.3, eps_a_dn=0.3, eps_b_up=-0.3,
                  eps_b_dn=-0.3)  # delta3 = 0
    for theta in (0.3, 2.0):
        ep, em = dot_sector21_eigenvalues(p, theta)
        base = 0.8 * np.cos(theta)
        split = 0.8 * abs(np.sin(theta))
        assert abs(ep - (base + 1j * split)) < 1e-12
        assert abs(em - (base - 1j * split)) < 1e-12


def test_two_level_line_gap():
    p = replace(FIG_DOT, v=1.0)
    gaps = [(lambda e: e[0].imag - e[1].imag)(dot_sector21_eigenvalues(p, th))
            for th in np.linspace(0, 2 * np.pi, 129)]
    assert min(gaps) >= p.v - 1e-12


def test_four_level_no_coupling_is_diagonal():
    p = replace(FIG_DOT, j=0.0)
    model = dot_model(p, 2, -1)
    for theta in (0.4, 3.0):
        diag = np.diag(model(theta))
        vals = dot_sector2m1_eigenvalues(p, theta)
        assert eigenvalue_match(diag, vals)[0] < 1e-12


def test_four_level_localized_level_is_static():
    for theta in (0.0, 1.0, 5.0):
        vals = dot_sector2m1_eigenvalues(FIG_DOT, theta)
        assert vals[3] == 1j * (FIG_DOT.eps_b_up + FIG_DOT.eps_b_dn)


# ---------------------------------------------------------------------------
# chain first-order splitting
# ---------------------------------------------------------------------------

def _quadruplet_columns(length, basis):
    """Hopping-eigenmode quadruplet states as Fock-space column vectors."""
    lay = chain_layout(length)
    om = np.exp(2j * np.pi / length)
    cols = []
    for n in range(length):
        for aspin, b0, bl in (("up", "up", "up"), ("up", "dn", "dn"),
                              ("dn", "up", "dn"), ("dn", "dn", "up")):
            col = np.zeros(basis.dim, dtype=complex)
            for j in range(length):
                coef = (om ** (-n * j) if aspin == "up" else om ** (n * j))
                coef /= np.sqrt(length)
                s, sign = 0, 1
                for mode in (lay.mode(length - 1, "b", bl),
                             lay.mode(0, "b", b0), lay.mode(j, "a", aspin)):
                    s, x = apply_create(s, mode)
                    sign *= x
                col[basis.index_of(s)] += coef * sign
            cols.append(col)
    return np.array(cols).T


def test_first_order_block_structure():
    """In the hopping eigenbasis the model's edge coupling reproduces the
    closed-form quadruplet blocks exactly (at theta = 0, where no hop carries
    a twist), written in its amplitudes x (exchange) and y (pair)."""
    L, J, V = 7, 0.37, 0.53
    p = ChainParams(length=L, t=1.0, j=J, v=V)
    x, y = edge_amplitudes(p)
    model = chain_model(p, 3, -1)
    h = model(0.0)
    T = _quadruplet_columns(L, model.basis)
    ht = np.linalg.solve(T, h @ T)
    om = np.exp(2j * np.pi / L)
    for n in range(L):
        blk = ht[4 * n:4 * n + 4, 4 * n:4 * n + 4].copy()
        blk -= np.diag(np.diag(blk))
        w = om ** (2 * n)
        pair_part = (y / L) * np.array([[0, 0, 1 / w, 1], [0, 0, 0, 0],
                                        [w, 0, 0, 0], [1, 0, 0, 0]])
        exchange_part = (x / L) * np.array([[0, 0, 0, 0], [0, 0, 1, 1 / w],
                                            [0, 1, 0, 0], [0, w, 0, 0]])
        np.testing.assert_allclose(blk, pair_part + exchange_part, atol=1e-12)


def test_splitting_coefficients():
    from pointgap.oracles import chain_splitting_coefficients

    p = ChainParams(length=7, t=1.0, j=0.3, v=0.5)
    x, y = edge_amplitudes(p)
    for n in range(7):
        om, c2_p, c2_m = chain_splitting_coefficients(p, n)
        assert abs(om**7 - 1.0) < 1e-14
        # the two amplitudes share the mode-phase prefactor
        pref = 1.0 / (om * 7) ** 2
        assert abs((c2_p + c2_m) - pref * 2 * (x**2 + y**2)) < 1e-14


@pytest.mark.parametrize("j, v", [(0.04, 0.03), (0.03, 0.05), (0.05, 0.0), (0.0, 0.04)])
@pytest.mark.parametrize("length", [5, 7])
def test_first_order_error_is_second_order(length, j, v):
    """On the default chain's (3,-1) sector, halving J and V shrinks the
    formulas' error fourfold: they hold to first order."""
    ratio = chain_splitting_verdict(ChainParams(length=length, j=j, v=v), (3, -1))[2]
    assert abs(ratio - 4.0) < 0.05


def test_first_order_collapse_without_coupling():
    p = ChainParams(length=7, t=1.0)
    for n in (0, 2, 5):
        vals = chain_first_order_eigenvalues(p, n, 0.9)
        om = np.exp(2j * np.pi * n / 7)
        expect = {om * np.exp(1j * 0.9 / 7), om * np.exp(-1j * 0.9 / 7)}
        for v in vals:
            assert min(abs(v - e) for e in expect) < 1e-12


def test_first_order_equal_couplings_mode_zero():
    # edge amplitudes of equal size, J / 2 = V: mode zero does not split
    p = ChainParams(length=7, t=1.0, j=0.8, v=0.4)
    vals = chain_first_order_eigenvalues(p, 0, 1.1)
    expect = {np.exp(1j * 1.1 / 7), np.exp(-1j * 1.1 / 7)}
    for v in vals:
        assert min(abs(v - e) for e in expect) < 1e-12


def test_spec_example_mode_one():
    # the formulas are written with the twist spread over every link; the
    # model's boundary-link twist is a gauge transformation of that matrix,
    # with the same eigenvalues
    for scale, budget in ((1.0, 5e-4), (0.5, 1.3e-4)):
        p = ChainParams(length=7, t=1.0, j=0.04 * scale, v=0.03 * scale)
        model = chain_model(p, 3, -1)
        ed = np.linalg.eigvals(model(1.0))
        quad = np.array(chain_first_order_eigenvalues(p, 1, 1.0))
        dist = np.abs(ed[None, :] - quad[:, None]).min(axis=1).max()
        assert dist < budget


# ---------------------------------------------------------------------------
# analytic winding of circle flows
# ---------------------------------------------------------------------------

def test_circle_encloses_origin():
    assert circle_flow_winding(CircleFlow(plus=1.0, const=0.2j)) == 1


def test_counter_rotating_pair_cancels():
    flows = [CircleFlow(plus=1.0, const=0.2j), CircleFlow(minus=1.0, const=-0.1j)]
    assert diagonal_flow_winding(flows, 0.0) == 0


def test_constant_never_winds():
    assert circle_flow_winding(CircleFlow(const=0.35j)) == 0


def test_circle_outside_reference():
    assert circle_flow_winding(CircleFlow(plus=0.5, const=2.0)) == 0


def test_segment_degenerate_case():
    # equal contra-rotating amplitudes trace a segment: no winding off-line
    assert circle_flow_winding(CircleFlow(plus=1.0, minus=1.0, const=0.1j)) == 0
    with pytest.raises(FlowThroughReferenceError):
        circle_flow_winding(CircleFlow(plus=1.0, minus=1.0, const=0.5))


def test_constant_at_reference_raises():
    with pytest.raises(FlowThroughReferenceError):
        circle_flow_winding(CircleFlow(const=0.3), 0.3)


def test_ellipse_orientation_and_membership():
    # |plus| > |minus|: counterclockwise; origin inside the rotated ellipse
    f = CircleFlow(plus=1.0, minus=0.3j, const=0.1)
    assert circle_flow_winding(f) == 1
    assert circle_flow_winding(CircleFlow(plus=0.3j, minus=1.0, const=0.1)) == -1
    # winding agrees with a dense numerical angle count
    for flow in (f, CircleFlow(plus=0.2, minus=0.9, const=0.4 + 0.2j)):
        z = flow(np.linspace(0, 2 * np.pi, 4097))
        total = np.sum(np.angle(z[1:] / z[:-1]))
        assert circle_flow_winding(flow) == round(total / (2 * np.pi))
