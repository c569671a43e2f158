"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with -s (or read captured output) to see the per-criterion lines; each
line carries the measured numbers next to the required tolerances.
"""

import itertools
import time
from math import comb, log

import numpy as np
import pytest

from oracles import manufactured_box
from sigmaric.cc_invariants import (
    CCSetup,
    compute_Hk,
    invariance_check,
    solve_family,
)
from sigmaric.continuation_solver import (
    SolveConfig,
    complete_grading,
    solve_complete,
    solve_dirichlet,
)
from sigmaric.domains import (
    ScalarField,
    background_ricci,
    make_box_grid,
    make_radial_grid,
)
from sigmaric.radial_oracle import bvp_solve, einstein_exact_radial
from sigmaric.surface_scalar import (
    SurfaceProblem,
    make_polar_disk,
    solve_positive_scalar,
    verify_positive_scalar,
)
from sigmaric.symfun import sigma_all_batch

from test_conformal_ops import derivative_pair, random_admissible_state


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE CRITERION {num}: {status} ({detail})"
    print(line)
    assert ok, line


def _complete_ball(n, m, k):
    grid = make_radial_grid(0.0, 1.0, n, m=m, grading=complete_grading(n))
    cfg = SolveConfig(grid=grid, background=background_ricci(grid, "flat"),
                      k=k)
    return grid, solve_complete(cfg)


def test_criterion_1_einstein_oracle():
    t0 = time.perf_counter()
    errs = {}
    for n in (1024, 2048):
        grid, state = _complete_ball(n, 3, 3)
        core = 1.0 - grid.nodes >= 0.1
        exact = einstein_exact_radial(3, 3, grid.nodes[core])
        errs[n] = float(np.max(np.abs(state.u.values[core] - exact)))
    wall = time.perf_counter() - t0
    ratio = errs[1024] / errs[2048]
    ok = errs[2048] <= 1e-3 and 3.0 <= ratio <= 5.0 and wall <= 60.0
    _report(1, ok,
            f"sup err {errs[2048]:.2e} <= 1e-3, doubling ratio "
            f"{ratio:.2f} in [3, 5], runtime {wall:.1f}s <= 60s")


def test_criterion_2_asymptotic_constants():
    details = []
    ok = True
    for k in (1, 2, 3):
        _, state = _complete_ball(1024, 3, k)
        fit = state.asymptotics
        target = 0.5 * log(2.0) + log(comb(3, k)) / (2.0 * k)
        good = (abs(fit["constant"] - target) <= 1e-2
                and abs(fit["constant"] - fit["einstein_reference"]) <= 1e-2)
        if k != 3:
            # the constant differs from the k = m value 1/2 ln(m - 1)
            good = good and abs(fit["constant"] - 0.5 * log(2.0)) > 1e-2
        ok = ok and good
        details.append(f"k={k}: {fit['constant']:.5f} vs {target:.5f}, "
                       f"reference {fit['einstein_reference']:.5f}")
    _report(2, ok, "; ".join(details) + " (tol 1e-2)")


def test_criterion_3_dirichlet_invariants():
    t0 = time.perf_counter()
    grid = make_box_grid([0, 0, 0], [1, 1, 1], [33, 33, 33])
    bg = background_ricci(grid, "flat")
    max_u0 = 0.0
    max_res = 0.0
    min_margin = np.inf
    worst_mono = -np.inf
    for k in (1, 2, 3):
        prev = None
        for j in (0.0, 1.0, 2.0):
            state = solve_dirichlet(SolveConfig(grid=grid, background=bg,
                                                k=k, boundary_data=j))
            max_res = max(max_res, state.residual_norm)
            min_margin = min(min_margin, state.cone_margin)
            if j == 0.0:
                max_u0 = max(max_u0, float(state.u.values.max()))
            if prev is not None:
                worst_mono = max(worst_mono,
                                 float((prev - state.u.values).max()))
            prev = state.u.values
    wall = time.perf_counter() - t0
    ok = (max_u0 <= 1e-10 and min_margin > 0 and max_res <= 1e-9
          and worst_mono <= 1e-10 and wall <= 300.0)
    _report(3, ok,
            f"zero-data max u {max_u0:.1e} <= 1e-10, margin "
            f"{min_margin:.2f} > 0, residual {max_res:.1e} <= 1e-9, "
            f"monotonicity violation {worst_mono:.1e} <= 1e-10, "
            f"runtime {wall:.0f}s <= 300s")


def test_criterion_4_jacobian_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for m in (3, 4):
        for k in range(1, m + 1):
            for _ in range(20):
                st = random_admissible_state(rng, m, k)
                analytic, numeric = derivative_pair(st, k, rng)
                worst = max(worst, abs(analytic - numeric)
                            / max(abs(numeric), 1e-8))
    _report(4, worst <= 1e-6,
            f"20 states per (m,k) in {{3,4}} x {{1..m}}, max rel err "
            f"{worst:.2e} <= 1e-6")


def test_criterion_5_algebraic_kernel():
    rng = np.random.default_rng(7)
    total = 100000
    per_m = total // 5
    worst = 0.0
    nesting_violations = 0
    maclaurin_violations = 0
    for m in range(2, 7):
        lams = rng.normal(0.0, 2.0, (per_m, m))
        esp = sigma_all_batch(lams)
        abs_esp = sigma_all_batch(np.abs(lams))
        for k in range(1, m + 1):
            idx = np.array(list(itertools.combinations(range(m), k)))
            brute = np.prod(lams[:, idx], axis=2).sum(axis=1)
            worst = max(worst, float(np.max(
                np.abs(esp[:, k] - brute) / abs_esp[:, k]
            )))
        pos = esp[:, 1:] > 0.0
        # Gamma_k membership must be prefix monotone: sigma_j > 0 for all
        # j <= k once it holds for k
        member = np.cumprod(pos, axis=1).astype(bool)
        nesting_violations += int(np.sum(pos[:, 1:] & ~member[:, :-1]
                                         & member[:, 1:]))
        # MacLaurin ratios on the prefix of orders where membership holds
        depth = member.sum(axis=1)
        binom = np.array([comb(m, j) for j in range(1, m + 1)])
        with np.errstate(invalid="ignore"):
            ratios = np.where(
                esp[:, 1:] > 0,
                (esp[:, 1:] / binom) ** (1.0 / np.arange(1, m + 1)),
                np.nan,
            )
        for j in range(m - 1):
            sel = depth >= j + 2
            bad = ratios[sel, j + 1] > ratios[sel, j] * (1 + 1e-12) + 1e-300
            maclaurin_violations += int(np.sum(bad))
    ok = (worst <= 1e-12 and nesting_violations == 0
          and maclaurin_violations == 0)
    _report(5, ok,
            f"{total} vectors m <= 6: recursion vs enumeration rel err "
            f"{worst:.2e} <= 1e-12, cone nesting violations "
            f"{nesting_violations}, MacLaurin violations "
            f"{maclaurin_violations}")


def _manufactured_error(n):
    grid = make_box_grid([0, 0, 0], [1, 1, 1], [n, n, n])
    k = 2
    um, _, _, f = manufactured_box(grid, k)
    cfg = SolveConfig(grid=grid, background=background_ricci(grid, "flat"),
                      k=k, boundary_data=um, rhs_factor=f)
    state = solve_dirichlet(cfg)
    return float(np.max(np.abs(state.u.values - um)))


def test_criterion_6_manufactured_solution():
    err17 = _manufactured_error(17)
    err33 = _manufactured_error(33)
    ratio = err17 / err33
    ok = err33 <= 1e-3 and 3.0 <= ratio <= 5.0
    _report(6, ok,
            f"sup err {err33:.2e} <= 1e-3 at 33^3, 17^3 -> 33^3 ratio "
            f"{ratio:.2f} consistent with O(h^2)")


def test_criterion_7_pe_detection():
    t0 = time.perf_counter()
    nodes = 384
    ball = make_radial_grid(0.0, 1.0, nodes, m=4,
                            grading=complete_grading(nodes))
    ball_family = solve_family(CCSetup(grid=ball, n=3))
    ball_Hk = compute_Hk(ball_family)
    max_ball = max(float(np.max(np.abs(h.values))) for h in ball_Hk)
    annulus = make_radial_grid(0.5, 1.0, nodes, m=4, cluster="both",
                               grading=complete_grading(nodes))
    ann_Hk = compute_Hk(solve_family(CCSetup(grid=annulus, n=3)))
    min_ann = min(float(h.values.min()) for h in ann_Hk)
    max_ann = max(float(h.values.max()) for h in ann_Hk)
    bump = ScalarField(ball, 0.3 * np.exp(-((ball.nodes - 0.4) / 0.15) ** 2))
    dev = invariance_check(ball_family, bump)
    wall = time.perf_counter() - t0
    ok = (max_ball <= 1e-3 and min_ann >= -1e-3 and max_ann >= 1e-2
          and dev <= 1e-3 and wall <= 600.0)
    _report(7, ok,
            f"flat ball max |H_k| {max_ball:.2e} <= 1e-3; perturbed "
            f"(annulus) min H_k {min_ann:.1e} >= -1e-3 and max H_k "
            f"{max_ann:.2e} >= 1e-2; compactification-change deviation "
            f"{dev:.1e} <= 1e-3; runtime {wall:.0f}s <= 600s")


def test_criterion_8_surface():
    grid = make_polar_disk(1.0, 256, 256)
    problem = SurfaceProblem(grid=grid)
    u = solve_positive_scalar(problem)
    exact = (1.0 - np.sum(grid.points**2, axis=1)) / 8.0
    err = float(np.max(np.abs(u.values - exact)))
    rep = verify_positive_scalar(problem, u)
    ok = err <= 1e-6 and rep["positive"]
    _report(8, ok,
            f"flat disk sup err {err:.2e} <= 1e-6 on 256^2, curvature "
            f"min {rep['new_curvature_min']:.3f} > 0")


def test_criterion_9_radial_cross_validation():
    grid = make_radial_grid(0.5, 1.0, 1024, m=3)
    bg = background_ricci(grid, "flat")
    worst = 0.0
    for k, j1, j0 in ((1, 2.0, 1.0), (3, 1.0, 0.5)):
        data = np.where(grid.nodes > 0.75, j1, j0)
        state = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=k,
                                            boundary_data=data))
        prof = bvp_solve(0.5, 1.0, m=3, k=k, j1=j1, j0=j0, n=96)
        worst = max(worst, float(np.max(
            np.abs(state.u.values - prof.interp(grid.nodes))
        )))
    _report(9, worst <= 1e-4,
            f"annulus, 1024 nodes, k in {{1,3}}: sup deviation from the "
            f"collocation oracle {worst:.2e} <= 1e-4")
