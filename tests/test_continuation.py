import weakref
from math import comb

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import sigmaric.continuation_solver as cs
from oracles import (
    background_prescale,
    box_homotopy_tensor,
    eigenvalues,
    manufactured_box,
)
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
        esp = sigma_all(eigenvalues(conformal_tensor(gm, hm)))
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

    # the radial fill on the pattern of the parameter-space stencil Dxi2
    # against the scipy.sparse products and sums it stands for, with the
    # ball row closed by D1: bitwise equal values and no stored zeros
    @pytest.mark.parametrize("grid", [
        make_radial_grid(0.0, 1.0, 65, grading=1.05, m=3),
        make_radial_grid(0.5, 1.0, 65, grading=1.05, m=4, cluster="both"),
    ], ids=["ball", "annulus"])
    def test_radial_fill_matches_sparse_sum(self, grid):
        disc = cs._make_disc(flat_config(grid, 2))
        c2, c1, c0 = np.random.default_rng(7).standard_normal((3, grid.n))
        ball = np.zeros(grid.n)
        if grid.is_ball:
            c2[0] = c1[0] = 0.0
            ball[0] = 1.0
        ref = (sp.diags(c2) @ disc.D2 + sp.diags(c1) @ disc.D1
               + sp.diags(c0) + sp.diags(ball) @ disc.D1)
        J = disc._fill(c2, c1, c0)
        assert J.format == "csc" and J.nnz == np.count_nonzero(J.data)
        assert np.array_equal(J.toarray(), ref.toarray())


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


class TestForcingTerms:
    # box Newton steps are solved only to the forcing term eta they are
    # given (inexact Newton); on this box no solve needs the rounding floor
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
