"""Every check the benchmark makes can fail, and the tracer degrades to
"missing" instead of failing.

    python3 -m pytest -q perfbench/test_checks.py

Each test feeds a checker an output built from the closed form (which must
pass) and the same output made wrong (which must be rejected).  Apart from
two tiny solves that show the hooks fire, nothing here solves.
"""

import sys
from math import log
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _cube(n=9):
    x = np.linspace(0.0, 1.0, n)
    return np.meshgrid(x, x, x, indexing="ij")


# ---------------------------------------------------------------------------
# box-dirichlet


def test_box_constant_rejects_broken_symmetry_and_state():
    X, Y, Z = _cube()
    u3 = 1.0 - 4.0 * (X * (1 - X)) * (Y * (1 - Y)) * (Z * (1 - Z))
    assert checks.check_box_constant(u3, 1.0, 1e-11, 0.5) == []
    # one reflected axis perturbed: odd in z about the centre, zero on the
    # boundary
    odd = 1e-8 * (Z - 0.5) * np.sin(np.pi * X) * np.sin(np.pi * Y)
    assert checks.check_box_constant(u3 + odd, 1.0, 1e-11, 0.5)
    assert checks.check_box_constant(u3 + 1e-3, 1.0, 1e-11, 0.5)
    assert checks.check_box_constant(u3, 1.0, 1e-8, 0.5)
    assert checks.check_box_constant(u3, 1.0, 1e-11, -1e-3)
    assert checks.check_box_constant(u3 * np.nan, 1.0, 1e-11, 0.5)


def test_box_manufactured_rejects_shifted_solution():
    X, Y, Z = _cube(25)
    pts = np.stack([X.ravel(), Y.ravel(), Z.ravel()], axis=1)
    perm, flips = workloads.cube_symmetry(5)
    y = pts[:, perm]
    y[:, flips] = 1.0 - y[:, flips]
    um, f = workloads.manufactured_data(y)
    assert np.all(f > 0)
    h = 1.0 / 24
    assert checks.check_box_manufactured(um, um, h, 1e-11, 0.5) == []
    assert checks.check_box_manufactured(um + 1e-3, um, h, 1e-11, 0.5)
    assert checks.check_box_manufactured(um, um, h, 1e-11, 0.0)


def test_manufactured_factor_matches_sigma2_of_eigenvalues():
    rng = np.random.default_rng(0)
    y = rng.uniform(0.0, 1.0, (50, 3))
    um, f = workloads.manufactured_data(y)
    # same W, sigma_2 from the eigenvalues instead of traces
    eps = 1e-5
    phase = 2.0 * y[:, 0] + y[:, 1] - y[:, 2]
    c = np.array([2.0, 1.0, -1.0])
    grad = 0.4 * (y - 0.4) + 0.05 * np.cos(phase)[:, None] * c
    hess = (0.4 * np.eye(3)
            - 0.05 * np.sin(phase)[:, None, None] * np.outer(c, c))
    lap = np.trace(hess, axis1=1, axis2=2)
    W = hess - np.einsum("ia,ib->iab", grad, grad)
    W += (np.sum(grad**2, axis=1) + lap)[:, None, None] * np.eye(3)
    lam = np.linalg.eigvalsh(W)
    s2 = lam[:, 0] * lam[:, 1] + lam[:, 0] * lam[:, 2] + lam[:, 1] * lam[:, 2]
    assert np.allclose(f, s2 * np.exp(-4.0 * um), rtol=1e-12)
    # and grad really is the gradient of um
    num = np.stack([
        (workloads.manufactured_data(y + eps * e)[0]
         - workloads.manufactured_data(y - eps * e)[0]) / (2 * eps)
        for e in np.eye(3)], axis=1)
    assert np.allclose(num, grad, atol=1e-8)


# ---------------------------------------------------------------------------
# complete-family


def _hk_record(max_abs, min_hk, einstein):
    return {"result": {"max_abs_Hk": max_abs, "min_Hk": min_hk,
                       "is_einstein": einstein}}


def test_pe_ball_rejects_shift_and_verdict():
    r = np.linspace(0.0, 0.999, 400)
    w4 = log(2.0) - np.log1p(-r * r)
    good = _hk_record([1e-4, 2e-4, 3e-4], [-1e-4, -1e-4, 0.0], True)
    assert checks.check_pe_ball(good, r, w4) == []
    assert checks.check_pe_ball(good, r, w4 + 1e-3)
    assert checks.check_pe_ball(
        _hk_record([1e-4, 2e-4, 3e-4], [0, 0, 0], False), r, w4)
    assert checks.check_pe_ball(
        _hk_record([1e-4, 2e-3, 3e-4], [0, 0, 0], True), r, w4)
    assert checks.check_pe_ball({"result": {}}, r, w4)


def test_pe_annulus_rejects_einstein_verdict():
    good = _hk_record([0.1, 0.05, 0.02], [0.0, 0.0, -1e-5], False)
    assert checks.check_pe_annulus(good) == []
    assert checks.check_pe_annulus(
        _hk_record([0.1, 0.05, 0.02], [0.0, 0.0, -1e-5], True))
    assert checks.check_pe_annulus(
        _hk_record([0.1, 0.05, 0.02], [0.0, -1e-2, 0.0], False))
    assert checks.check_pe_annulus(
        _hk_record([1e-3, 1e-3, 1e-3], [0.0, 0.0, 0.0], False))


def test_complete_ball_rejects_shift_and_constant():
    r = np.linspace(0.0, 0.9999, 2048)
    u = checks.einstein_radial(3, 3, r)
    rec = {"result": {"asymptotics": {"constant": 0.5 * log(2.0) + 1e-3}}}
    assert checks.check_complete_ball(rec, r, u, 3, 3) == []
    assert checks.check_complete_ball(rec, r, u + 1e-3, 3, 3)
    off = {"result": {"asymptotics": {"constant": 0.5 * log(2.0) + 2e-2}}}
    assert checks.check_complete_ball(off, r, u, 3, 3)
    assert checks.check_complete_ball({"result": {}}, r, u, 3, 3)


def test_einstein_radial_solves_the_radial_equation():
    # sigma_k{a, b x (m-1)} = e^{2kw} for the closed form, all m, k
    r = np.linspace(0.0, 0.95, 200)
    for m in (3, 4):
        for k in range(1, m + 1):
            w = checks.einstein_radial(m, k, r)
            q = 1.0 - r * r
            a, b = checks.radial_eigenvalues(
                r, w, 2 * r / q, 2 / q + 4 * r * r / q**2, m)
            lhs = checks.sigma_pair(a, b, k, m)
            assert np.allclose(lhs, np.exp(2 * k * w), rtol=1e-12)


# ---------------------------------------------------------------------------
# annulus-ramp


def test_subball_and_oracle_agreement_reject_wrong_outputs():
    r = np.linspace(0.0, 0.9, 49)
    w = checks.einstein_radial(4, 3, r)
    assert checks.check_subball(r, w, 0.9, 4, 3) == []
    assert checks.check_subball(r, w + 1e-3, 0.9, 4, 3)
    assert checks.check_subball(r, checks.einstein_radial(4, 2, r), 0.9, 4, 3)
    assert checks.check_oracle_degrees(w, w + 1e-13) == []
    assert checks.check_oracle_degrees(w, w + 1e-9)


def test_fd_vs_oracle_rejects_shift():
    h = 0.5 / 1024
    u = np.linspace(0.0, 0.5, 1025)
    assert checks.check_fd_vs_oracle(u + 1e-9, u, h) == []
    assert checks.check_fd_vs_oracle(u + 1e-3, u, h)
    assert checks.check_fd_vs_oracle(u * np.nan, u, h)


def test_cone_check_rejects_field_outside_the_cone():
    r = np.linspace(0.5, 0.9, 1025)
    w = checks.einstein_radial(4, 3, r)
    assert checks.cone_failures(*checks.uniform_derivatives(r, w), 4, 3,
                                "w") == []
    assert checks.cone_failures(*checks.uniform_derivatives(r, -w), 4, 3,
                                "w")
    q = 1.0 - r * r
    dw, d2w = 2 * r / q, 2 / q + 4 * r * r / q**2
    assert checks.cone_failures(r, w, dw, d2w, 4, 3, "w") == []
    assert checks.cone_failures(r, w, -dw, -d2w, 4, 3, "w")


# ---------------------------------------------------------------------------
# surface-cli


def test_surface_rejects_shift_columns_and_sign():
    r = np.linspace(0.0, 1.0, 257)
    u = (1.0 - r * r) / 8.0
    good = {"result": {"positive": True}}
    cols = list(checks.CSV_COLUMNS_2D)
    assert checks.check_surface(good, cols, r, u) == []
    assert checks.check_surface(good, cols, r, u + 1e-3)
    assert checks.check_surface({"result": {"positive": False}}, cols, r, u)
    assert checks.check_surface(good, cols[:-1], r, u)
    assert checks.check_surface(good, cols, None, None)


# ---------------------------------------------------------------------------
# tracing


def test_missing_hook_is_reported_not_fatal(monkeypatch):
    from sigmaric import continuation_solver as cs

    hooks = [h for h in tracing.HOOKS if h[2] != "cs.linear"]
    hooks.append((tracing.CS, "_NoSuchSolver.solve", "cs.linear", None,
                  None))
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    original = cs._RadialDisc.residual
    tracer = tracing.Tracer().install()
    try:
        assert cs._RadialDisc.residual is not original
    finally:
        tracer.uninstall()
    assert cs._RadialDisc.residual is original
    assert tracer.missing == [f"{tracing.CS}:_NoSuchSolver.solve"]
    metrics = tracing.per_layer_metrics(tracer.aggregates())
    assert metrics["continuation_solver.linear_s"]["missing"]
    assert metrics["continuation_solver.linear_calls"]["missing"]
    assert metrics["continuation_solver.residual_calls"]["value"] == 0
    assert set(metrics) == set(tracing.LAYER_METRICS)


def test_hooks_record_a_small_radial_solve():
    from sigmaric import continuation_solver as cs, domains

    grid = domains.make_radial_grid(0.5, 1.0, 33, m=3)
    cfg = cs.SolveConfig(grid=grid, background=domains.background_ricci(grid),
                         k=2, boundary_data=0.5)
    tracer = tracing.Tracer().install()
    try:
        state = cs.solve_dirichlet(cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    agg = tracer.aggregates()
    total = tracing.merge(tracing.empty_aggregates(), agg)
    tracing.merge(total, agg)
    once = tracing.per_layer_metrics(agg)
    twice = tracing.per_layer_metrics(total)
    steps = sum(1 for e in state.trace if e[0] in ("t", "ramp"))
    assert once["continuation_solver.steps"]["value"] == steps
    assert once["continuation_solver.jacobian_calls"]["value"] > 0
    assert once["continuation_solver.factor_calls"]["value"] == \
        once["continuation_solver.linear_calls"]["value"]
    assert once["continuation_solver.factor_nnz"]["value"] > 0
    assert once["continuation_solver.self_s"]["value"] >= 0.0
    assert twice["continuation_solver.residual_calls"]["value"] == \
        2 * once["continuation_solver.residual_calls"]["value"]


def test_hooks_record_a_small_box_solve():
    from sigmaric import continuation_solver as cs, domains

    grid = domains.make_box_grid([0, 0, 0], [1, 1, 1], [7, 7, 7])
    cfg = cs.SolveConfig(grid=grid, background=domains.background_ricci(grid),
                         k=2, boundary_data=0.5)
    tracer = tracing.Tracer().install()
    try:
        cs.solve_dirichlet(cfg)
    finally:
        tracer.uninstall()
    m = tracing.per_layer_metrics(tracer.aggregates())
    calls = m["continuation_solver.krylov_calls"]["value"]
    assert calls == m["continuation_solver.linear_calls"]["value"] > 0
    assert m["continuation_solver.krylov_matvecs"]["value"] > calls
    assert m["continuation_solver.factor_calls"]["value"] >= 1
    assert m["domains.box_operators_s"]["value"] > 0.0
