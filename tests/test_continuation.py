import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sigmaric.continuation_solver as cs
from oracles import manufactured_box
from sigmaric.conformal_ops import conformal_tensor
from sigmaric.continuation_solver import (
    SolveConfig,
    complete_grading,
    solve_complete,
    solve_dirichlet,
)
from sigmaric.domains import (
    background_ricci,
    box_derivative_operators,
    make_box_grid,
    make_radial_grid,
)
from sigmaric.radial_oracle import bvp_solve, einstein_exact_radial
from sigmaric.symfun import sigma_all


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
        # u + phi, so the discretizations refuse them outright
        grid = make_radial_grid(0.5, 1.0, 33, m=3)
        bg = background_ricci(
            grid, "conformal",
            phi=lambda x: 0.1 * x[0],
            dphi=lambda x: np.array([0.1, 0.0, 0.0]),
            d2phi=lambda x: np.zeros((3, 3)),
        )
        cfg = SolveConfig(grid=grid, background=bg, k=2)
        with pytest.raises(TypeError):
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
        # a data jump the ramp cannot take in full steps: the t-homotopy
        # runs first, then the ramp, whose step is halved after failures
        grid = make_radial_grid(0.5, 1.0, 65, m=4)
        data = np.where(grid.nodes > 0.75, 0.5, 0.0)
        cfg = flat_config(grid, 3, boundary_data=data)
        trace = solve_dirichlet(cfg).trace
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
        trace = solve_dirichlet(self.annulus(65)).trace
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
        esp = sigma_all(np.linalg.eigvalsh(conformal_tensor(gm, hm)))
        assert esp[:, 1:k + 1].min() > 0  # manufactured state is admissible
        cfg = flat_config(grid, k, boundary_data=um, rhs_factor=f)
        state = solve_dirichlet(cfg)
        assert np.max(np.abs(state.u.values - um)) < 5e-5
        assert state.residual_norm <= 1e-10


class TestCompleteGuess:
    def test_grading_halves_with_doubling(self):
        g1 = make_radial_grid(0.0, 1.0, 257, m=3,
                              grading=complete_grading(257))
        g2 = make_radial_grid(0.0, 1.0, 513, m=3,
                              grading=complete_grading(513))
        h1 = np.diff(g1.nodes).min()
        h2 = np.diff(g2.nodes).min()
        assert h1 / h2 == pytest.approx(2.0, rel=0.02)


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
        assert rep["matches_half_log"]
        assert abs(rep["constant"] - rep["einstein_reference"]) < 1e-2
        assert rep["j_final"] <= rep["j_cap"]


def _converged(grid, k, data):
    """Converged Dirichlet state and the discretization it was solved on."""
    cfg = flat_config(grid, k, boundary_data=data)
    state = solve_dirichlet(cfg)
    disc = cs._make_disc(cfg, state.background_scale)
    bc = cs._boundary_values(grid, data)
    return disc, state.u.values, bc


def _box_state(k):
    grid = make_box_grid([0, 0, 0], [1.0, 0.5, 0.8], [11, 7, 9])
    x, y, z = grid.points.T
    disc, u, bc = _converged(grid, k, 0.5 + 0.1 * np.sin(x + 2 * y - z))
    return disc, u, bc, np.cos(x + 2 * y - z) + x * y * z


def _radial_state():
    grid = make_radial_grid(0.5, 1.0, 65, m=4)
    r = grid.nodes
    disc, u, bc = _converged(grid, 3, np.where(r > 0.75, 0.5, 0.0))
    return disc, u, bc, np.cos(3.0 * r)


def _ball_state():
    # v has slope 1 at the centre, so the ball row du(0) = 0 sees it
    grid = make_radial_grid(0.0, 1.0, 65, m=3)
    r = grid.nodes
    disc, u, bc = _converged(grid, 2, 0.5)
    return disc, u, bc, np.cos(3.0 * r) + r


class TestDiscreteJacobian:
    # the assembled Jacobian against central differences of the discrete
    # residual at a converged state; v must be smooth, since for a rough
    # v the O(eps^2) truncation term carries (D v)^3 ~ h^-3 and swamps
    # the comparison (a standard normal v reads 4e-5 on the radial grid,
    # the smooth one 2e-8)
    @pytest.mark.parametrize("case", ["box-k1", "box-k2", "box-k3",
                                      "radial-m4-k3", "radial-ball-m3-k2"])
    def test_matches_central_differences(self, case):
        if case.startswith("box"):
            disc, u, bc, v = _box_state(int(case[-1]))
        elif case.startswith("radial-ball"):
            disc, u, bc, v = _ball_state()
        else:
            disc, u, bc, v = _radial_state()
        ones = np.ones(u.size)
        J = disc.jacobian(u, 1.0, ones)
        Jv = getattr(J, "matrix", J) @ v
        eps = 1e-6
        Fp, _ = disc.residual(u + eps * v, 1.0, bc, ones)
        Fm, _ = disc.residual(u - eps * v, 1.0, bc, ones)
        fd = (Fp - Fm) / (2.0 * eps)
        err = np.max(np.abs(Jv - fd)) / np.max(np.abs(Jv))
        assert err <= 1e-6

    # entries that cancel are dropped, as sparse sums drop them: stored
    # zeros change SuperLU's ordering and with it the Newton path
    @pytest.mark.parametrize("state", [_ball_state, _radial_state,
                                       lambda: _box_state(2)],
                             ids=["radial-ball", "radial-annulus", "box"])
    def test_no_stored_zeros(self, state):
        disc, u, _, _ = state()
        J = disc.jacobian(u, 1.0, np.ones(u.size))
        A = getattr(J, "matrix", J)
        assert A.nnz == np.count_nonzero(A.data)


class TestStencilPattern:
    # the fill against the scipy.sparse products and sums it replaces: the
    # same stored pattern and bitwise equal values, also where two terms
    # cancel exactly (the repeated D1[0] with the negated coefficient)
    def test_matches_sparse_sum(self):
        grid = make_box_grid([0, 0, 0], [1.0, 0.5, 0.8], [6, 5, 4])
        D1, D2 = box_derivative_operators(grid)
        ops = [sp.identity(grid.n), D1[0], *D2.values(), D1[0]]
        rng = np.random.default_rng(5)
        coefs = [rng.standard_normal(grid.n) * (rng.random(grid.n) < 0.7)
                 for _ in ops[:-1]]
        coefs.append(-coefs[1])
        pattern = cs._StencilPattern(ops)
        J = pattern.fill(coefs)
        ref = sp.diags(coefs[0]) @ ops[0]
        for c, A in zip(coefs[1:], ops[1:]):
            ref = ref + sp.diags(c) @ A
        ref = ref.tocsr()
        ref.sort_indices()
        assert ref.nnz < pattern.indices.size  # entries did cancel
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(J, name), getattr(ref, name))


class TestEvaluatedOnce:
    # the line search's evaluation of the point it accepts serves the next
    # Newton iteration, and the Jacobian reuses what the residual built at
    # the same (u, t).  A point is (u, t, bc, f): a ramp step starts at the
    # last step's (u, t = 1) with new data, which is a new residual
    @pytest.mark.parametrize("case", ["radial", "box"])
    def test_each_point_once(self, case, monkeypatch):
        if case == "radial":
            grid = make_radial_grid(0.5, 1.0, 65, m=4)
            data = np.where(grid.nodes > 0.75, 0.5, 0.0)
            cls, build, k = cs._RadialDisc, "_eigen_pair", 3
        else:
            grid = make_box_grid([0, 0, 0], [1, 1, 1], [9, 9, 9])
            x, y, z = grid.points.T
            data = 0.5 + 0.1 * np.sin(x + 2 * y - z)
            cls, build, k = cs._BoxDisc, "_assemble", 2
        points, builds, jacobians = [], [0], []
        residual, jacobian = cls.residual, cls.jacobian
        assemble = getattr(cls, build)

        def counted_build(self, u, t):
            builds[0] += 1
            return assemble(self, u, t)

        def recorded_residual(self, u, t, bc, fvals):
            points.append((u.copy(), t, bc.copy(), fvals.copy()))
            return residual(self, u, t, bc, fvals)

        def recorded_jacobian(self, u, t, fvals):
            last = points[-1]
            follows = last[1] == t and np.array_equal(last[0], u)
            before = builds[0]
            J = jacobian(self, u, t, fvals)
            jacobians.append((follows, builds[0] - before))
            return J

        monkeypatch.setattr(cls, build, counted_build)
        monkeypatch.setattr(cls, "residual", recorded_residual)
        monkeypatch.setattr(cls, "jacobian", recorded_jacobian)
        solve_dirichlet(flat_config(grid, k, boundary_data=data))
        for p, q in zip(points, points[1:]):
            assert not (p[1] == q[1] and all(
                np.array_equal(p[i], q[i]) for i in (0, 2, 3)))
        assert jacobians and all(f for f, _ in jacobians)
        assert sum(n for _, n in jacobians) == 0


class TestBoxLinearSolve:
    @pytest.mark.parametrize("lo, hi, counts, k", [
        ([0, 0, 0], [1.0, 0.5, 0.8], [11, 7, 9], 2),
        ([0, 0, 0, 0], [1.0, 0.7, 1.2, 0.9], [6, 5, 7, 5], 3),
    ])
    def test_matches_direct_solve(self, lo, hi, counts, k):
        grid = make_box_grid(lo, hi, counts)
        data = 0.5 + 0.1 * np.sin(grid.points @ np.arange(1, grid.m + 1))
        disc, u, _ = _converged(grid, k, data)
        J = disc.jacobian(u, 1.0, np.ones(grid.n))
        b = np.random.default_rng(23).standard_normal(grid.n)
        x = cs._PrecondSolver().solve(J, b)
        ref = spla.spsolve(J.matrix.tocsc(), b)
        assert np.max(np.abs(x - ref)) <= 1e-8 * np.max(np.abs(ref))
