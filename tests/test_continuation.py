import gc
import weakref
from dataclasses import replace
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sigmaric.continuation_solver as cs
from oracles import (
    background_prescale,
    box_homotopy_tensor,
    complete_bracket,
    eigenvalues,
    manufactured_box,
)
from sigmaric.cc_invariants import CCSetup, solve_family
from sigmaric.conformal_ops import conformal_tensor
from sigmaric.continuation_solver import (
    SolveConfig,
    complete_grading,
    solve_complete,
    solve_dirichlet,
)
from sigmaric.domains import (
    BackgroundMetric,
    background_ricci,
    make_box_grid,
    make_radial_grid,
)
from sigmaric.radial_oracle import bvp_solve, einstein_exact_radial
from sigmaric.symfun import sigma_all

from test_domains import _BOX_IDS, _BOXES


def flat_config(grid, k, **kw):
    return SolveConfig(grid=grid, background=background_ricci(grid, "flat"),
                       k=k, **kw)


class TestConfig:
    def test_validation(self):
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        bg = background_ricci(grid, "flat")
        with pytest.raises(ValueError):
            SolveConfig(grid=grid, background=bg, k=4)
        with pytest.raises(ValueError):
            SolveConfig(grid=grid, background=bg, k=2, tol_residual=0.0)

    @pytest.mark.parametrize("key", ["rhs_scale", "tol_residual"])
    @pytest.mark.parametrize("value", [-1.0, 0.0, np.nan, np.inf])
    def test_scalars_finite_and_positive(self, key, value):
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        with pytest.raises(ValueError, match=key):
            flat_config(grid, 2, **{key: value})

    @pytest.mark.parametrize("key, value", [
        ("boundary_data", np.nan), ("boundary_data", np.inf),
        ("rhs_factor", np.nan), ("rhs_factor", np.inf),
    ])
    def test_fields_finite(self, key, value):
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        vals = np.ones(grid.n)
        vals[-1] = value
        with pytest.raises(ValueError, match="finite"):
            solve_dirichlet(flat_config(grid, 2, **{key: vals}))

    def test_scalar_fields_broadcast(self):
        # a scalar boundary data or rhs factor is the constant nodal field
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        for key in ("boundary_data", "rhs_factor"):
            a, b = (solve_dirichlet(flat_config(grid, 2, **{key: data}))
                    for data in (2.0, np.full(grid.n, 2.0)))
            assert np.array_equal(a.u.values, b.u.values)

    def test_missing_boundary_data(self):
        grid = make_radial_grid(0.5, 1.0, 9, m=3)
        cfg = flat_config(grid, 2, boundary_data=None)
        with pytest.raises(ValueError, match="^boundary data is missing$"):
            solve_dirichlet(cfg)

    def test_boundary_data_length(self):
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        cfg = flat_config(grid, 2, boundary_data=np.zeros(5))
        with pytest.raises(ValueError):
            solve_dirichlet(cfg)

    def test_rhs_factor_positive(self):
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        cfg = flat_config(grid, 2, rhs_factor=np.zeros(grid.n))
        with pytest.raises(ValueError):
            solve_dirichlet(cfg)

    def test_conformal_background_rejected(self):
        # conformally flat backgrounds reduce exactly to flat solves of
        # u + phi, so both discretizations refuse a metric e^{2 phi} delta
        # outright (before its rho is read)
        for grid in (make_radial_grid(0.5, 1.0, 33, m=3),
                     make_box_grid([0, 0, 0], [1, 1, 1], [5, 5, 5])):
            x0 = grid.points[:, 0] if hasattr(grid, "points") else grid.nodes
            g = np.exp(0.2 * x0)[:, None, None] * np.eye(grid.m)
            bg = BackgroundMetric(grid, "conformal", g, np.zeros_like(g))
            cfg = SolveConfig(grid=grid, background=bg, k=2)
            with pytest.raises(TypeError, match="u \\+ phi"):
                solve_dirichlet(cfg)


class TestDirichletRadial:
    def test_zero_data_nonpositive(self):
        # sigma_k(W) = e^{2ku} with zero data forces u < 0 inside
        grid = make_radial_grid(0.0, 1.0, 65, m=3)
        state = solve_dirichlet(flat_config(grid, 2))
        assert state.u.values.max() <= 1e-10
        assert state.u.values.min() < -1e-3
        assert state.cone_margin > 0
        assert state.residual_norm <= 1e-10

    def test_oracle_agreement_second_order(self):
        # independent spectral-collocation solve of the same radial BVP
        prof = bvp_solve(0.5, 1.0, m=3, k=3, j1=1.0, j0=0.5, n=80)
        errs = {}
        for n in (65, 129):
            grid = make_radial_grid(0.5, 1.0, n, m=3)
            data = np.where(grid.nodes > 0.75, 1.0, 0.5)
            state = solve_dirichlet(flat_config(grid, 3, boundary_data=data))
            errs[n] = np.max(np.abs(state.u.values - prof.interp(grid.nodes)))
        assert errs[129] < 5e-6
        assert 3.0 < errs[65] / errs[129] < 5.0

    def test_data_monotonicity(self):
        # comparison principle: larger boundary data, larger solution
        grid = make_radial_grid(0.5, 1.0, 65, m=3)
        lo = solve_dirichlet(flat_config(grid, 2, boundary_data=0.5))
        hi = solve_dirichlet(flat_config(grid, 2, boundary_data=1.0))
        assert np.all(hi.u.values >= lo.u.values - 1e-12)

    def test_continuation_trace(self):
        # a data jump the ramp cannot take in full steps: on the coarsest
        # nested grid (69 -> 35 -> 18 nodes) the t-homotopy runs first,
        # then the ramp, whose step is halved after failures; each finer
        # level adds one Newton solve at s = 1.  From 65 nodes the
        # coarsest grid has 5, where the ramp takes full steps.
        grid = make_radial_grid(0.5, 1.0, 69, m=4)
        data = np.where(grid.nodes > 0.75, 0.5, 0.0)
        cfg = flat_config(grid, 3, boundary_data=data)
        state = solve_dirichlet(cfg)
        trace, finer = state.trace[:-2], state.trace[-2:]
        assert [e[:2] for e in finer] == [("ramp", 1.0)] * 2
        assert state.trace[-1][3] == state.residual_norm
        labels = [e[0] for e in trace]
        n_t = labels.count("t")
        assert n_t > 0
        assert labels == ["t"] * n_t + ["ramp"] * (len(trace) - n_t)
        for phase in (trace[:n_t], trace[n_t:]):
            params = np.array([0.0] + [e[1] for e in phase])
            steps = np.diff(params)
            assert params[-1] == 1.0
            assert np.all(steps > 0)
            assert np.all(steps <= cs.T_STEP_INIT)
        assert steps.min() < 0.25  # steps of the ramp, the last phase

    def test_warped_background(self):
        # hyperbolic warped annulus: rho has top eigenvalue m - 1, so the
        # background is pre-scaled by 2 before continuation
        grid = make_radial_grid(0.5, 1.0, 129, m=3)
        bg = background_ricci(grid, "warped",
                              profile=(np.sinh, np.cosh, np.sinh))
        cfg = SolveConfig(grid=grid, background=bg, k=2, boundary_data=0.5)
        state = solve_dirichlet(cfg)
        assert state.background_scale == pytest.approx(2.0, rel=1e-12)
        assert state.residual_norm <= 1e-10
        assert state.cone_margin > 0


class TestPredictor:
    # the secant predictor starts each step near the solution, where the
    # full Newton step passes the max-norm descent test; started from the
    # last accepted point, the ramp below needed 796 Jacobians for 436
    # accepted iterations
    @staticmethod
    def annulus(n):
        grid = make_radial_grid(0.5, 1.0, n, m=4)
        data = np.where(grid.nodes > 0.75, 0.5, 0.0)
        return flat_config(grid, 3, boundary_data=data)

    def test_ramp_work(self, monkeypatch):
        calls = [0]
        jacobian = cs._RadialDisc.jacobian

        def counted(self, u, t, fvals):
            calls[0] += 1
            return jacobian(self, u, t, fvals)

        monkeypatch.setattr(cs._RadialDisc, "jacobian", counted)
        # 69 nodes, as in test_continuation_trace: the coarsest nested
        # grid has 18 nodes, where this ramp halves its steps
        trace = solve_dirichlet(self.annulus(69)).trace
        assert calls[0] <= 250
        assert sum(e[2] for e in trace) <= 150

    def test_trace_names_rule_and_returned_residual(self):
        state = solve_dirichlet(self.annulus(257))
        rules = {"residual", "increment", "damping-floor"}
        assert all(e[-1] in rules for e in state.trace)
        # the last step ends on the increment, above tol: the entry must
        # carry the residual of the point it returns
        assert state.trace[-1][-1] == "increment"
        assert state.trace[-1][3] == state.residual_norm


class TestDirichletBox:
    def test_zero_data_nonpositive(self):
        grid = make_box_grid([0, 0, 0], [1, 1, 1], [9, 9, 9])
        state = solve_dirichlet(flat_config(grid, 2))
        assert state.u.values.max() <= 1e-10
        assert state.u.values.min() < -1e-3
        assert state.cone_margin > 0

    def test_manufactured_recovery(self):
        grid = make_box_grid([0, 0, 0], [1, 1, 1], [17, 17, 17])
        k = 2
        um, gm, hm, f = manufactured_box(grid, k)
        esp = sigma_all(eigenvalues(conformal_tensor(gm, hm)))
        assert esp[:, 1:k + 1].min() > 0  # manufactured state is admissible
        cfg = flat_config(grid, k, boundary_data=um, rhs_factor=f)
        state = solve_dirichlet(cfg)
        assert np.max(np.abs(state.u.values - um)) < 5e-5
        assert state.residual_norm <= 1e-10


def _cold(cfg):
    """The continuation on cfg's own grid, with no coarser level:
    (u, res, margin, trace, u_t), u_t the end of its t-phase."""
    disc = cs._make_disc(cfg)
    bc = cs._boundary_values(cfg.grid, cfg.boundary_data)
    fvals = cs._rhs_factor_values(cfg.grid, cfg.rhs_factor)
    return cs._continuation(disc, cfg, bc, fvals)


def _box_data(grid):
    x = grid.points
    return 0.5 + 0.2 * np.sin(3.0 * x[:, 0]) * x[:, 1] - 0.1 * x[:, -1]


class TestNested:
    # solve_dirichlet continues on the coarsest nested grid and runs one
    # Newton per finer grid from the prolonged solution below
    def test_prolongation_exact_on_box_cubics(self):
        lo, hi = [0.0, -1.0, 0.5], [1.0, 0.5, 2.0]
        coarse = make_box_grid(lo, hi, [5, 7, 6])
        fine = make_box_grid(lo, hi, [9, 13, 11])

        def cubic(p):
            x, y, z = p.T
            return ((x**3 - 2.0 * x) * (y**3 + y**2 - 1.0)
                    * (z**3 - z + 2.0) + x * y * z**2)

        u = cs._prolong(coarse, cubic(coarse.points))
        assert np.max(np.abs(u - cubic(fine.points))) <= 1e-12

    def test_prolongation_exact_on_graded_cubics(self):
        # a graded radial grid coarsens to every other node of its map and
        # prolongs exactly what is cubic in the uniform parameter xi
        grid = make_radial_grid(0.0, 1.0, 33, grading=1.1, m=3)
        coarse, take = cs._nested_level(flat_config(grid, 2), 2)
        assert np.array_equal(take, np.arange(0, 33, 2))
        for key in ("nodes", "dr", "d2r"):
            assert np.array_equal(getattr(coarse.grid, key),
                                  getattr(grid, key)[::2])

        def cubic(xi):
            return 2.0 * xi**3 - 3.0 * xi**2 + 0.5 * xi - 1.0

        u = cs._prolong(coarse.grid, cubic(np.linspace(0.0, 1.0, 17)))
        assert np.max(np.abs(u - cubic(np.linspace(0.0, 1.0, 33)))) <= 1e-13

    @pytest.mark.parametrize("counts, strides", [
        ([9, 9], [1, 2]), ([17, 9, 13], [1, 2]), ([33], [1, 2, 4, 8]),
        ([10, 9, 9], [1]), ([7, 7], [1]),
    ], ids=["9x9", "17x9x13", "33", "even", "floor"])
    def test_nesting(self, counts, strides):
        grid = make_box_grid([0.0] * len(counts), [1.0] * len(counts), counts)
        assert cs._nested_strides(grid) == strides
        cfg = flat_config(grid, 1)
        for stride in strides[1:]:
            level, take = cs._nested_level(cfg, stride)
            # the coarse nodes are the fine ones at every stride-th node
            assert np.array_equal(level.grid.points, grid.points[take])
            assert level.background.g.shape == (take.size, len(counts),
                                                len(counts))

    @staticmethod
    def _problem(name):
        """(config, finer levels, levels that fall back) of a named case."""
        boxes = {"box-17x9x13": ([17, 9, 13], [1.0, 0.5, 0.8], 2, 1, 0),
                 "box-33^2": ([33, 33], [1.0, 1.0], 2, 3, 0),
                 "box-9^4": ([9] * 4, [1.0] * 4, 3, 1, 1)}
        if name in boxes:
            counts, hi, k, finer, fallen = boxes[name]
            grid = make_box_grid([0.0] * len(counts), hi, counts)
            return (flat_config(grid, k, boundary_data=_box_data(grid)),
                    finer, fallen)
        if name == "graded-ball":
            ball = make_radial_grid(0.0, 1.0, 129, grading=1.01, m=3)
            return flat_config(ball, 2, boundary_data=1.0), 5, 0
        annulus = make_radial_grid(0.5, 1.0, 129, m=3)
        warped = background_ricci(annulus, "warped",
                                  profile=(np.sinh, np.cosh, np.sinh))
        return SolveConfig(grid=annulus, background=warped, k=2,
                           boundary_data=0.5), 5, 0

    # On 9^4 with k = 3 the 5^4 solution, prolonged, leaves the fine cone
    # next to the edges (sigma_3 down to -20), where the data make a
    # boundary layer that 5 nodes per axis do not resolve: Newton fails
    # there and the continuation runs on the 9^4 grid instead.
    @pytest.mark.parametrize("name", ["box-17x9x13", "box-33^2", "box-9^4",
                                      "graded-ball", "warped-annulus"])
    def test_matches_cold_continuation(self, name):
        cfg, finer, fallen = self._problem(name)
        state = solve_dirichlet(cfg)
        u, res, _, trace, _ = _cold(cfg)
        assert np.max(np.abs(state.u.values - u)) <= 1e-10
        assert state.residual_norm <= cfg.tol_residual
        assert state.cone_margin > 0
        assert state.trace[-1][3] == state.residual_norm
        steps = [e[:2] for e in state.trace]
        if fallen:
            # the cold solve itself, after what the cascade recorded
            assert np.array_equal(state.u.values, u)
            assert state.trace[-len(trace):] == trace
            assert steps.count(("t", 1.0)) == 2
        else:
            # one Newton at s = 1 per finer level after the coarsest
            # level's t-homotopy
            assert steps[-finer:] == [("ramp", 1.0)] * finer
            assert steps.count(("t", 1.0)) == 1

    @pytest.mark.parametrize("grid", [
        make_box_grid([0, 0, 0], [1, 1, 1], [10, 9, 9]),
        make_radial_grid(0.5, 1.0, 64, m=3),
    ], ids=["box", "annulus"])
    def test_even_count_is_its_own_coarsest_grid(self, grid):
        cfg = flat_config(grid, 2, boundary_data=0.5)
        state = solve_dirichlet(cfg)
        u, res, margin, trace, _ = _cold(cfg)
        assert np.array_equal(state.u.values, u)
        assert state.trace == trace
        assert (state.residual_norm, state.cone_margin) == (res, margin)

    def test_failed_level_falls_back(self, monkeypatch):
        # the finest level's Newton fails: the continuation runs on the
        # finest grid from u = 0, so the solve is the cold one
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        cfg = flat_config(grid, 2, boundary_data=0.5)
        newton, failed = cs._damped_newton, []

        def failing(disc, u, t, bc, fvals, config, trace):
            if disc.grid is grid and not failed:
                failed.append(t)
                raise cs.ContinuationFailure("injected", trace)
            return newton(disc, u, t, bc, fvals, config, trace)

        monkeypatch.setattr(cs, "_damped_newton", failing)
        state = solve_dirichlet(cfg)
        monkeypatch.undo()
        u, res, margin, trace, _ = _cold(cfg)
        assert failed == [1.0]
        assert np.array_equal(state.u.values, u)
        assert (state.residual_norm, state.cone_margin) == (res, margin)
        assert state.trace[-len(trace):] == trace
        # 33 -> 17 -> 9 -> 5: the levels 9 and 17 each took one Newton
        cascade = state.trace[:-len(trace)]
        assert [e[:2] for e in cascade[-2:]] == [("ramp", 1.0)] * 2
        assert cascade[0][0] == "t" and trace[0][0] == "t"

    def test_failed_coarsest_continuation_falls_back(self, monkeypatch):
        # a continuation that fails on the coarsest grid does not fail the
        # solve: the finest grid's continuation runs, and only it
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        cfg = flat_config(grid, 2, boundary_data=0.5)
        continuation, grids = cs._continuation, []

        def failing(disc, config, bc, fvals):
            grids.append(disc.grid.n)
            if disc.grid is not grid:
                raise cs.ContinuationFailure("injected", [("t", 0.25)])
            return continuation(disc, config, bc, fvals)

        monkeypatch.setattr(cs, "_continuation", failing)
        state = solve_dirichlet(cfg)
        monkeypatch.undo()
        u, res, margin, trace, _ = _cold(cfg)
        assert grids == [5, 33]
        assert np.array_equal(state.u.values, u)
        assert state.trace == [("t", 0.25)] + trace

    def test_failure_without_nested_grids_is_raised(self, monkeypatch):
        # an even count has no coarser level: its failing continuation
        # raises, and is not run twice
        grid = make_radial_grid(0.5, 1.0, 32, m=3)
        calls = []

        def failing(disc, config, bc, fvals):
            calls.append(disc.grid.n)
            raise cs.ContinuationFailure("injected")

        monkeypatch.setattr(cs, "_continuation", failing)
        with pytest.raises(cs.ContinuationFailure, match="injected"):
            solve_dirichlet(flat_config(grid, 2, boundary_data=0.5))
        assert calls == [32]


class TestCompleteGuess:
    def test_grading_halves_with_doubling(self):
        g1 = make_radial_grid(0.0, 1.0, 257, m=3,
                              grading=complete_grading(257))
        g2 = make_radial_grid(0.0, 1.0, 513, m=3,
                              grading=complete_grading(513))
        h1 = np.diff(g1.nodes).min()
        h2 = np.diff(g2.nodes).min()
        assert h1 / h2 == pytest.approx(2.0, rel=0.02)

    def test_rung_prediction_exact_on_the_layer_model(self):
        # u_j = -ln(A + B e^{-j}) is predicted exactly from rungs j, j - 2
        x = np.linspace(0.0, 1.0, 9)
        A, B = 0.1 + x, 1.0 + 2.0 * x**2

        def rung(j):
            return -np.log(A + B * np.exp(-j))

        assert np.allclose(cs._predict_rung(rung(4.0), rung(2.0)),
                           rung(6.0), rtol=0.0, atol=1e-13)
        # a prediction that is not a positive e^{-u} at some node: none
        assert cs._predict_rung(rung(4.0), rung(2.0) - 3.0) is None
        # the same line at e^{-j} = 0 is the complete solution -ln A
        limit = cs._predict_rung(rung(4.0), rung(2.0),
                                 1.0 / np.expm1(cs.J_STEP))
        assert np.allclose(limit, -np.log(A), rtol=0.0, atol=1e-13)

    def test_predicted_rungs_take_few_iterations(self):
        # the ramp to j = 4 is predicted from the j = 0 rung, the closed-form
        # ball barrier, and accepted whole; each later ramp, predicted from
        # the two rungs before it, takes at most 4 Newton iterations (13,
        # 16 and 15 from the secant alone)
        n = 257
        grid = make_radial_grid(0.0, 1.0, n, m=3,
                                grading=complete_grading(n))
        state = solve_complete(flat_config(grid, 3))
        ramps, steps = {}, []  # each rung's ramp steps, by its j
        for entry in state.trace:
            if entry[0] == "rung":
                ramps[entry[1]], steps = steps, []
            else:
                steps.append(entry)
        assert sorted(ramps) == [4.0, 6.0, 8.0, 10.0]
        for j in (6.0, 8.0, 10.0):
            assert [e[:2] for e in ramps[j]] == [("ramp", 1.0)]
            assert ramps[j][0][2] <= 4
        # the barrier's polish at its own data, which on the ball are
        # j = 2 already, then the j = 4 ramp in one step
        assert [e[:2] for e in ramps[4.0]] == [("ramp", 0.0), ("ramp", 1.0)]


class TestComplete:
    def test_ball_matches_exact(self):
        # k = m ball: the complete solution is the hyperbolic metric scaled
        # to sigma_k = binom(m, k), known in closed form
        n = 512
        grid = make_radial_grid(0.0, 1.0, n, m=3,
                                grading=complete_grading(n))
        cfg = flat_config(grid, 3)
        state = solve_complete(cfg)
        core = grid.nodes <= 0.9
        exact = einstein_exact_radial(3, 3, grid.nodes[core])
        assert np.max(np.abs(state.u.values[core] - exact)) < 5e-4
        rep = state.asymptotics
        assert rep["tail_extrapolated"]
        assert abs(rep["constant"] - rep["einstein_reference"]) < 1e-2
        assert rep["j_final"] <= rep["j_cap"]

    def test_asymptotic_constant_at_the_reference(self):
        # the quadratic fit in the distance reads the k = m ball's constant
        # to about 2e-6 at n = 1025; the affine fit read -8.0e-5
        n = 1025
        grid = make_radial_grid(0.0, 1.0, n, m=3,
                                grading=complete_grading(n))
        rep = solve_complete(flat_config(grid, 3)).asymptotics
        assert abs(rep["constant"] - rep["einstein_reference"]) <= 5e-6

    def test_rungs_hold_the_rhs_factor(self, monkeypatch):
        # a rung ramps only the boundary data, from the last rung's
        # solution at data J_STEP up: every residual it evaluates sees the
        # rhs factor at its target
        n = 129
        grid = make_radial_grid(0.0, 1.0, n, m=3,
                                grading=complete_grading(n))
        f = 1.0 + 0.2 * grid.nodes**2
        seen = []
        residual = cs._RadialDisc.residual

        def recorded(self, u, t, bc, fvals):
            seen.append((bc[-1], fvals.copy()))
            return residual(self, u, t, bc, fvals)

        monkeypatch.setattr(cs._RadialDisc, "residual", recorded)
        solve_complete(flat_config(grid, 2, rhs_factor=f))
        rung = [fv for b, fv in seen if b > cs.J_STEP]
        assert rung and all(np.array_equal(fv, f) for fv in rung)


class TestCompleteBracket:
    # every interior node of a complete solve lies between the closed-form
    # ball bounds of oracles.complete_bracket, the last rung's boundary
    # layer included; the boundary holds the last rung's data
    @pytest.mark.parametrize("r0", [0.0, 0.3], ids=["ball", "annulus"])
    def test_interior_within_bracket(self, r0):
        n = 1025
        grid = make_radial_grid(r0, 1.0, n, m=3, grading=complete_grading(n),
                                cluster="both" if r0 else "outer")
        state = solve_complete(flat_config(grid, 3))
        u, inner = state.u.values, ~grid.boundary
        lower, upper = complete_bracket(3, 3, grid.nodes[inner], r0)
        assert np.max(u[inner] - upper) <= 1e-4
        assert np.max(lower - u[inner]) <= 1e-4
        assert np.all(u[grid.boundary] == state.asymptotics["j_final"])


def _no_barrier(*args):
    raise cs.ContinuationFailure("barrier start refused")


def _complete_grid(m, n, r0):
    return make_radial_grid(r0, 1.0, n, m=m, grading=complete_grading(n),
                            cluster="both" if r0 else "outer")


class TestBarrierStart:
    # a cold flat radial solve with rhs factor 1 starts from the complete
    # solution of a larger ball, polished at its own data and recorded as
    # ("ramp", 0.0, ...), with no t-continuation; it must reach the solve
    # the t-continuation reaches when the barrier start is refused
    @pytest.mark.parametrize("r0", [0.0, 0.5], ids=["ball", "annulus"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_the_t_continuation(self, monkeypatch, r0, k):
        cfg = flat_config(_complete_grid(3, 1025, r0), k)
        state = solve_complete(cfg)
        assert state.trace[0][:2] == ("ramp", 0.0)
        assert not any(e[0] == "t" for e in state.trace)
        monkeypatch.setattr(cs, "_barrier_start", _no_barrier)
        cold = solve_complete(cfg)
        assert cold.trace[0][0] == "t"
        assert np.max(np.abs(state.u.values - cold.u.values)) <= 1e-9
        assert (state.asymptotics["j_final"]
                == cold.asymptotics["j_final"])

    def test_barrier_reads_j_on_the_sphere(self):
        grid = _complete_grid(4, 33, 0.5)
        for c, j in ((0.3, 2.0), (1.1, 0.0), (-0.5, 6.0)):
            w = cs._ball_barrier(grid, c, j)
            assert w[-1] == pytest.approx(j, abs=1e-11)
            assert np.all(np.diff(w) > 0)

    def test_refused_barrier_falls_back(self):
        # on this coarse two-sided annulus the barrier leaves the discrete
        # cone next to r0 and its polish fails: the solve falls back to the
        # t-continuation and still lies in the shifted closed-form bracket
        m, k, r0 = 4, 3, 0.5
        grid = _complete_grid(m, 384, r0)
        scale = float(comb(m, k) * (m - 1) ** k)
        state = solve_complete(flat_config(grid, k, rhs_scale=scale))
        assert state.trace[0][0] == "t"
        assert state.cone_margin > 0
        u, inner = state.u.values, ~grid.boundary
        lower, upper = complete_bracket(m, k, grid.nodes[inner], r0)
        shift = -np.log(scale) / (2 * k)
        assert np.max(u[inner] - upper - shift) <= 1e-4
        assert np.max(lower + shift - u[inner]) <= 1e-4
        rep = state.asymptotics
        assert abs(rep["constant"] - rep["einstein_reference"]) <= 1e-3

    def test_weighted_solves_keep_the_t_continuation(self):
        # the barrier solves the equation only with rhs factor 1
        grid = _complete_grid(3, 129, 0.0)
        state = solve_complete(flat_config(
            grid, 2, rhs_factor=1.0 + 0.2 * grid.nodes**2))
        assert state.trace[0][0] == "t"
        assert not any(e[:2] == ("ramp", 0.0) for e in state.trace)


def random_rho(grid, seed, size=1.0):
    """A box background g = delta with a random symmetric rho at each
    node, entries of the given size."""
    A = size * np.random.default_rng(seed).standard_normal(
        (grid.n, grid.m, grid.m))
    rho = A + np.swapaxes(A, 1, 2)
    g = np.broadcast_to(np.eye(grid.m), rho.shape).copy()
    return BackgroundMetric(grid, "flat", g, rho)


def _converged(grid, k, data, background=None, t=1.0):
    """Dirichlet state converged at t and the discretization it was solved
    on: the solution at t = 1, then Newton at t from there."""
    cfg = SolveConfig(grid=grid, k=k, boundary_data=data,
                      background=background or background_ricci(grid, "flat"))
    u = solve_dirichlet(cfg).u.values
    disc = cs._make_disc(cfg)
    bc = cs._boundary_values(grid, data)
    if t < 1.0:
        u = cs._damped_newton(disc, u, t, bc, np.ones(u.size), cfg, [])[0]
    return disc, u, bc


def _jacobian_at(disc, u, bc, t=1.0):
    """The Jacobian at (u, t), from what the residual there built."""
    ones = np.ones(u.size)
    return disc.jacobian(u, ones, disc.residual(u, t, bc, ones)[2])


def _box_state(k, hi=(1.0, 0.5, 0.8), counts=(11, 7, 9), rho=False):
    # with rho != 0 the state is converged at t = 0.6, so the t rho term,
    # the anchor and the prescale all enter
    grid = make_box_grid(np.zeros(len(hi)), hi, counts)
    phase = grid.points @ np.resize([1.0, 2.0, -1.0], grid.m)
    bg, t = (random_rho(grid, 11, 0.2), 0.6) if rho else (None, 1.0)
    disc, u, bc = _converged(grid, k, 0.5 + 0.1 * np.sin(phase), bg, t)
    v = np.cos(phase) + grid.points.prod(axis=1)
    return disc, u, bc, v, t


def _radial_state():
    grid = make_radial_grid(0.5, 1.0, 65, m=4)
    r = grid.nodes
    disc, u, bc = _converged(grid, 3, np.where(r > 0.75, 0.5, 0.0))
    return disc, u, bc, np.cos(3.0 * r), 1.0


def _ball_state():
    # v has slope 1 at the centre, so the ball row du(0) = 0 sees it
    grid = make_radial_grid(0.0, 1.0, 65, m=3)
    r = grid.nodes
    disc, u, bc = _converged(grid, 2, 0.5)
    return disc, u, bc, np.cos(3.0 * r) + r, 1.0


_STATES = {
    "box-k1": lambda: _box_state(1),
    "box-k2": lambda: _box_state(2),
    "box-k3": lambda: _box_state(3),
    "box-rho-k2": lambda: _box_state(2, rho=True),
    "box4d-k3": lambda: _box_state(3, (1.0, 0.7, 1.2, 0.9), (6, 5, 7, 5)),
    "box2d-k2": lambda: _box_state(2, (1.0, 0.7), (13, 11)),
    "radial-m4-k3": _radial_state,
    "radial-ball-m3-k2": _ball_state,
}


class TestDiscreteJacobian:
    # the Jacobian the solver uses (the box operator's matvec, the filled
    # radial matrix) against central differences of the discrete residual
    # at a converged state (the row weight 1/(1 + rhs) is not
    # differentiated, which is exact only where F = 0); v must be smooth,
    # since for a rough v the O(eps^2) truncation term carries
    # (D v)^3 ~ h^-3 and swamps the comparison (a standard normal v reads
    # 4e-5 on the radial grid, the smooth one 2e-8)
    @pytest.mark.parametrize("case", list(_STATES))
    def test_matches_central_differences(self, case):
        disc, u, bc, v, t = _STATES[case]()
        ones = np.ones(u.size)
        J = _jacobian_at(disc, u, bc, t)
        Jv = J.matvec(v) if case.startswith("box") else J @ v
        eps = 1e-6
        Fp = disc.residual(u + eps * v, t, bc, ones)[0]
        Fm = disc.residual(u - eps * v, t, bc, ones)[0]
        fd = (Fp - Fm) / (2.0 * eps)
        err = np.max(np.abs(Jv - fd)) / np.max(np.abs(Jv))
        assert err <= 1e-6

    # away from a solution (converged at t = 1, evaluated at t = 0.6, so
    # F != 0) J is the derivative of w(u0) (sigma_k - rhs)(u), the row
    # weight w = 1/(1 + rhs) frozen at u0: central differences of that
    # match, those of F itself do not
    @pytest.mark.parametrize("case", ["box-k2", "radial-m4-k3"])
    def test_row_weight_is_frozen(self, case):
        disc, u, bc, v, _ = _STATES[case]()
        t, ones, eps = 0.6, np.ones(u.size), 1e-6
        J = _jacobian_at(disc, u, bc, t)
        Jv = J.matvec(v) if case.startswith("box") else J @ v
        w0 = 1.0 / (1.0 + disc._rhs(u, ones))

        def error(frozen):
            def residual(x):
                F = disc.residual(x, t, bc, ones)[0]
                if frozen:  # F / w(x) = sigma_k - rhs at the PDE rows
                    F[disc.pde] *= (1.0 + disc._rhs(x, ones)[disc.pde]) \
                        * w0[disc.pde]
                return F

            fd = (residual(u + eps * v) - residual(u - eps * v)) / (2 * eps)
            return np.max(np.abs(Jv - fd)) / np.max(np.abs(Jv))

        F = disc.residual(u, t, bc, ones)[0]
        assert np.max(np.abs(F)) > 1e-2
        assert error(frozen=True) <= 1e-6
        assert error(frozen=False) > 1e-3

    # entries that cancel are dropped, as sparse sums drop them: stored
    # zeros change SuperLU's ordering and with it the Newton path
    @pytest.mark.parametrize("state", [_ball_state, _radial_state],
                             ids=["radial-ball", "radial-annulus"])
    def test_no_stored_zeros(self, state):
        disc, u, bc, _, _ = state()
        J = _jacobian_at(disc, u, bc)
        assert J.nnz == np.count_nonzero(J.data)

    # the radial fill straight into the grid's CSC layout against the
    # scipy.sparse products and sums it stands for, with the ball row
    # closed by D1, and against the fill it replaced (the pattern of Dxi2,
    # eliminate_zeros, tocsc): bitwise equal indptr, indices and data, so
    # SuperLU orders it the same, also where a coefficient cancels.  c2
    # and c1 vanish at non-PDE rows, as the row weight w does
    @pytest.mark.parametrize("case", ["ball", "annulus", "warped"])
    def test_radial_fill_matches_sparse_sum(self, case):
        if case == "ball":
            grid = make_radial_grid(0.0, 1.0, 65, grading=1.05, m=3)
        else:
            grid = make_radial_grid(0.5, 1.0, 65, grading=1.05, m=4,
                                    cluster="both")
        bg = background_ricci(grid, "flat")
        if case == "warped":
            bg = background_ricci(grid, "warped",
                                  profile=(np.sinh, np.cosh, np.sinh))
        disc = cs._make_disc(SolveConfig(grid=grid, background=bg, k=2))
        c2, c1, c0 = np.random.default_rng(7).standard_normal((3, grid.n))
        c2[~disc.pde] = c1[~disc.pde] = 0.0
        ball = np.zeros(grid.n)
        if grid.is_ball:
            ball[0] = 1.0
        Dxi2 = cs.uniform_d2(grid.n, grid.xi_step)
        rows = np.repeat(np.arange(grid.n), np.diff(Dxi2.indptr))
        on_pattern = [np.asarray(A[rows, Dxi2.indices]).ravel() for A in
                      (disc.D2, disc.D1, sp.identity(grid.n).tocsr())]

        def pattern_fill():
            ref = Dxi2.copy()
            ref.data = sum(c[rows] * vals for c, vals in
                           zip((c2, c1 + ball, c0), on_pattern))
            ref.eliminate_zeros()
            return ref.tocsc()

        nnz = []
        for cancel in (False, True):
            if cancel:  # D1 has no diagonal at an interior row
                i = grid.n // 2
                c0[i] = -c2[i] * disc.D2.diagonal()[i]
            ref = (sp.diags(c2) @ disc.D2 + sp.diags(c1) @ disc.D1
                   + sp.diags(c0) + sp.diags(ball) @ disc.D1)
            J = disc._fill(c2, c1, c0)
            assert J.format == "csc" and J.nnz == np.count_nonzero(J.data)
            assert np.array_equal(J.toarray(), ref.toarray())
            old = pattern_fill()
            for key in ("indptr", "indices", "data"):
                a, b = getattr(J, key), getattr(old, key)
                assert a.dtype == b.dtype and np.array_equal(a, b), key
            nnz.append(J.nnz)
        assert nnz[1] == nnz[0] - 1


class TestRadialOperators:
    # the mapped stencils, 1/r and the Jacobian layout are built once per
    # RadialGrid instance, shared read-only by every disc on it, and
    # released with the grid
    @staticmethod
    def _count_builds(monkeypatch):
        builds = []
        stencil = cs.uniform_d2

        def counted(n, h):
            builds.append(n)
            return stencil(n, h)

        monkeypatch.setattr(cs, "uniform_d2", counted)
        return builds

    def test_discs_on_one_grid_share_one_build(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        discs = [cs._make_disc(flat_config(grid, k)) for k in (1, 3)]
        assert builds == [33]
        assert discs[0].ops is discs[1].ops
        assert discs[0].D2 is discs[1].D2 and discs[0].cf is discs[1].cf
        # another instance, even an equal one, builds its own
        other = cs._make_disc(flat_config(replace(grid), 2))
        assert builds == [33, 33] and other.ops is not discs[0].ops

    def test_family_builds_once(self, monkeypatch):
        builds = self._count_builds(monkeypatch)
        n = 97
        grid = make_radial_grid(0.0, 1.0, n, m=4,
                                grading=complete_grading(n))
        family = solve_family(CCSetup(grid=grid, n=3))
        assert len(family.w) == 4 and builds == [n]

    def test_shared_arrays_read_only(self):
        grid = make_radial_grid(0.0, 1.0, 33, grading=1.05, m=3)
        disc = cs._make_disc(flat_config(grid, 2))
        ops = disc.ops
        shared = [ops.inv_r, ops.indices, ops.indptr, *ops.on_layout]
        for A in (ops.D1, ops.D2):
            shared += [A.data, A.indices, A.indptr]
        ones = np.ones(grid.n)
        J = disc._fill(ones * disc.pde, ones * disc.pde, ones)
        shared += [J.indices, J.indptr]
        for array in shared:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_released_with_the_grid(self):
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        state = solve_dirichlet(flat_config(grid, 2, boundary_data=0.5))
        ops = weakref.ref(cs._radial_operators(grid))
        assert ops() is not None
        del grid, state
        gc.collect()
        assert ops() is None


class TestBoxSigma:
    # sigma_k and the cone margin that _BoxDisc._sigma reads off the
    # component-major kernel, for every k, against sigma_all of the
    # eigenvalues of W_t formed node-major by the oracle, with its own
    # derivatives, anchor and prescale; t < 1, so rho, the anchor and the
    # prescale all enter
    @pytest.mark.parametrize("rho", [False, True], ids=["flat", "rho"])
    @pytest.mark.parametrize("lo, hi, counts", _BOXES, ids=_BOX_IDS)
    def test_matches_eigenvalues(self, lo, hi, counts, rho):
        grid = make_box_grid(lo, hi, counts)
        m, x = grid.m, grid.points
        bg = random_rho(grid, 5, 0.3) if rho else background_ricci(grid,
                                                                   "flat")
        u = 0.3 * np.sin(x @ np.arange(1.0, m + 1)) - 0.2 * np.sum(x * x, 1)
        t = 0.6
        for k in range(1, m + 1):
            disc = cs._make_disc(SolveConfig(grid=grid, background=bg, k=k))
            sigma_k, margin, _ = disc._sigma(u, t)
            W = box_homotopy_tensor(grid, u, bg.rho, t, comb(m, k) ** (-1 / k),
                                    background_prescale(bg.g, bg.rho))
            lam = np.linalg.eigvalsh(W)
            ref = sigma_all(lam)
            tol = 1e-12 * comb(m, k) * max(1.0, np.abs(lam).max()) ** k
            assert np.max(np.abs(sigma_k[~grid.boundary] - ref[:, k])) <= tol
            assert np.all(sigma_k[grid.boundary] == 0.0)
            assert abs(margin - ref[:, 1 : k + 1].min()) <= tol


class TestEvaluatedOnce:
    # the line search's evaluation of the point it accepts serves the next
    # Newton iteration, and the Jacobian takes what the residual at the
    # same u built: no Jacobian runs _sigma, and the build is released
    # before the linear solve.  A point is (u, t, bc, f): a ramp step
    # starts at the last step's (u, t = 1) with new data, which is a new
    # residual
    @pytest.mark.parametrize("case", ["radial", "box"])
    def test_each_point_once(self, case, monkeypatch):
        if case == "radial":
            grid = make_radial_grid(0.5, 1.0, 65, m=4)
            data = np.where(grid.nodes > 0.75, 0.5, 0.0)
            cls, k = cs._RadialDisc, 3
        else:
            grid = make_box_grid([0, 0, 0], [1, 1, 1], [9, 9, 9])
            x, y, z = grid.points.T
            data = 0.5 + 0.1 * np.sin(x + 2 * y - z)
            cls, k = cs._BoxDisc, 2
        points, builds, jacobians, held = [], [0], [], []
        residual, jacobian, sigma = cls.residual, cls.jacobian, cls._sigma
        solve = cs._PrecondSolver.solve

        def counted_sigma(self, u, t):
            builds[0] += 1
            return sigma(self, u, t)

        def recorded_residual(self, u, t, bc, fvals):
            points.append((u.copy(), t, bc.copy(), fvals.copy()))
            out = residual(self, u, t, bc, fvals)
            points[-1] += (weakref.ref(out[2][0]),)
            return out

        def recorded_jacobian(self, u, fvals, built):
            last = points[-1]
            follows = np.array_equal(last[0], u) and last[4]() is built[0]
            before = builds[0]
            J = jacobian(self, u, fvals, built)
            jacobians.append((follows, builds[0] - before,
                              weakref.ref(built[0])))
            return J

        def checked_solve(self, J, b, eta):
            held.append(jacobians[-1][2]() is not None)
            return solve(self, J, b, eta)

        monkeypatch.setattr(cls, "_sigma", counted_sigma)
        monkeypatch.setattr(cls, "residual", recorded_residual)
        monkeypatch.setattr(cls, "jacobian", recorded_jacobian)
        monkeypatch.setattr(cs._PrecondSolver, "solve", checked_solve)
        solve_dirichlet(flat_config(grid, k, boundary_data=data))
        assert builds[0] == len(points)
        for p, q in zip(points, points[1:]):
            assert not (p[1] == q[1] and all(
                np.array_equal(p[i], q[i]) for i in (0, 2, 3)))
        assert jacobians and all(f for f, _, _ in jacobians)
        assert sum(n for _, n, _ in jacobians) == 0
        assert len(held) == len(jacobians) and not any(held)

    # the build is handed from residual to jacobian, never kept: a solve
    # leaves every attribute of the discretization as it found it
    @pytest.mark.parametrize("grid", [
        make_radial_grid(0.0, 1.0, 33, m=3),
        make_box_grid([0, 0, 0], [1, 1, 1], [7, 7, 7]),
    ], ids=["radial", "box"])
    def test_solve_leaves_no_state(self, grid):
        cfg = flat_config(grid, 2, boundary_data=0.5)
        disc = cs._make_disc(cfg)
        before = {key: (v, v.copy() if isinstance(v, np.ndarray) else None)
                  for key, v in vars(disc).items()}
        cs._continuation(disc, cfg, np.full(grid.n, 0.5), np.ones(grid.n))
        assert vars(disc).keys() == before.keys()
        for key, (v, copy) in before.items():
            assert vars(disc)[key] is v, key
            assert copy is None or np.array_equal(v, copy), key


class TestPrescale:
    # the scale c >= 1 with c g >= rho each discretization reads off what
    # it extracts, against the Cholesky reduction of the generalized
    # eigenproblem rho v = lam g v on the full background
    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("profile", [
        (np.sinh, np.cosh, np.sinh),
        (np.sin, np.cos, lambda r: -np.sin(r)),
        (np.cosh, np.sinh, np.cosh),
    ], ids=["sinh", "sin", "cosh"])
    def test_warped_annulus(self, profile, m):
        grid = make_radial_grid(0.5, 1.0, 65, m=m)
        bg = background_ricci(grid, "warped", profile=profile)
        scale = cs._make_disc(SolveConfig(grid=grid, background=bg,
                                          k=2)).bg_scale
        ref = background_prescale(bg.g, bg.rho)
        assert abs(scale - ref) <= 2 * np.spacing(ref)

    def test_box_random_rho(self):
        grid = make_box_grid([0, 0, 0], [1, 1, 1], [5, 5, 5])
        bg = random_rho(grid, 3)
        scale = cs._make_disc(SolveConfig(grid=grid, background=bg,
                                          k=2)).bg_scale
        ref = background_prescale(bg.g, bg.rho)
        assert ref > 1.0
        assert abs(scale - ref) <= 2 * np.spacing(ref)


class TestBoxLinearSolve:
    @pytest.mark.parametrize("lo, hi, counts, k", [
        ([0, 0, 0], [1.0, 0.5, 0.8], [11, 7, 9], 2),
        ([0, 0, 0, 0], [1.0, 0.7, 1.2, 0.9], [6, 5, 7, 5], 3),
    ])
    def test_matches_direct_solve(self, lo, hi, counts, k):
        grid = make_box_grid(lo, hi, counts)
        data = 0.5 + 0.1 * np.sin(grid.points @ np.arange(1, grid.m + 1))
        disc, u, bc = _converged(grid, k, data)
        J = _jacobian_at(disc, u, bc)
        b = np.random.default_rng(23).standard_normal(grid.n)
        x = cs._PrecondSolver().solve(J, b)
        # the matrix of the operator, one column per unit vector
        A = np.column_stack([J.matvec(e) for e in np.eye(grid.n)])
        ref = spla.spsolve(sp.csc_matrix(A), b)
        assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))

    # GMRES is judged by its own convergence flag: one call per solve,
    # which applies J only inside GMRES, and one more, warm, only when
    # the flag says that the first did not converge
    @staticmethod
    def _system():
        grid = make_box_grid([0, 0, 0], [1.0, 0.5, 0.8], [11, 7, 9])
        data = 0.5 + 0.1 * np.sin(grid.points @ np.arange(1, 4))
        disc, u, bc = _converged(grid, 2, data)
        b = np.random.default_rng(23).standard_normal(grid.n)
        return _jacobian_at(disc, u, bc), b

    def test_one_gmres_call_per_solve(self, monkeypatch):
        J, b = self._system()
        matvec, gmres = J.matvec, spla.gmres
        applied, products, calls = [0], [0], []

        def counted(v):
            applied[0] += 1
            return matvec(v)

        def recorded(A, b, **kwargs):
            def product(v):
                products[0] += 1
                return A.matvec(v)

            calls.append(kwargs.get("x0"))
            return gmres(spla.LinearOperator(A.shape, matvec=product,
                                             dtype=float), b, **kwargs)

        J.matvec = counted
        monkeypatch.setattr(spla, "gmres", recorded)
        cs._PrecondSolver().solve(J, b, 1e-6)
        assert calls == [None]
        assert applied[0] == products[0] > 0

    def test_unconverged_gmres_runs_again_warm(self, monkeypatch):
        J, b = self._system()
        gmres, calls = spla.gmres, []

        def flagged(A, b, **kwargs):
            x, info = gmres(A, b, **kwargs)
            calls.append((kwargs.get("x0"), x))
            return x, 1 if len(calls) == 1 else info

        monkeypatch.setattr(spla, "gmres", flagged)
        x = cs._PrecondSolver().solve(J, b, 1e-6)
        assert len(calls) == 2
        assert calls[0][0] is None and calls[1][0] is calls[0][1]
        assert x is calls[1][1]


class TestForcingTerms:
    # box Newton steps are solved only to the forcing term eta they are
    # given (inexact Newton), which GMRES's own flag certifies
    grid = make_box_grid([0, 0, 0], [1.0, 0.5, 0.8], [11, 7, 9])
    data = 0.5 + 0.1 * np.sin(grid.points @ np.arange(1, 4))

    def _solve(self, monkeypatch):
        solves = []
        solve = cs._PrecondSolver.solve

        def recorded(self, J, b, eta):
            x = solve(self, J, b, eta)
            rel = np.linalg.norm(J.matvec(x) - b) / np.linalg.norm(b)
            solves.append((eta, rel))
            return x

        monkeypatch.setattr(cs._PrecondSolver, "solve", recorded)
        state = solve_dirichlet(flat_config(self.grid, 2,
                                            boundary_data=self.data))
        monkeypatch.undo()
        return state, solves

    def test_each_solve_meets_its_forcing_term(self, monkeypatch):
        _, solves = self._solve(monkeypatch)
        assert solves and all(rel <= eta for eta, rel in solves)
        # 0.5 tol / res may lift eta above the cap; nothing takes it below
        # ETA_MIN
        assert min(eta for eta, _ in solves) >= cs.ETA_MIN

    def test_exact_solves_agree(self, monkeypatch):
        inexact, solves = self._solve(monkeypatch)
        monkeypatch.setattr(cs, "ETA_MAX", 1e-10)
        exact, exact_solves = self._solve(monkeypatch)
        assert solves[0][0] == 0.1 and exact_solves[0][0] < 1e-9
        u, v = inexact.u.values, exact.u.values
        assert np.max(np.abs(u - v)) <= 1e-10
        # the same steps, each with at most one more Newton iteration
        assert [e[:2] for e in inexact.trace] == [e[:2] for e in exact.trace]
        assert all(a[2] <= b[2] + 1
                   for a, b in zip(inexact.trace, exact.trace))
