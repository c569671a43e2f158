import inspect

import numpy as np
import pytest
from math import log

import sigmaric.cc_invariants as cc
import sigmaric.continuation_solver as cs
from sigmaric.cc_invariants import (
    CCSetup,
    compute_Hk,
    constants,
    detection_report,
    einstein_benchmark_tolerance,
    invariance_check,
    solve_family,
)
from sigmaric.continuation_solver import (
    SolveConfig,
    complete_grading,
    solve_complete,
    solve_dirichlet,
)
from sigmaric.domains import ScalarField, background_ricci, make_radial_grid


def ball_setup(n=3, nodes=384):
    grid = make_radial_grid(0.0, 1.0, nodes, m=n + 1,
                            grading=complete_grading(nodes))
    return CCSetup(grid=grid, n=n)


def annulus_setup(n=3, nodes=384):
    grid = make_radial_grid(0.5, 1.0, nodes, m=n + 1,
                            grading=complete_grading(nodes), cluster="both")
    return CCSetup(grid=grid, n=n)


class TestConstants:
    def test_values(self):
        assert constants(3, 1).beta == pytest.approx(2.0)
        assert constants(3, 4).beta_tilde == pytest.approx(81.0)
        assert constants(3, 2).c_tilde == pytest.approx(36.0)
        assert constants(3, 2).c == pytest.approx(1.5)
        assert constants(4, 1).beta_tilde == pytest.approx(20.0)

    def test_einstein_value(self):
        # beta_tilde equals sigma_k of the eigenvalue vector (n, ..., n)
        # in dimension n + 1
        from sigmaric.symfun import sigma_all

        for n in (2, 3, 5):
            esp = sigma_all(np.full(n + 1, float(n)))
            for k in range(1, n + 2):
                assert constants(n, k).beta_tilde == pytest.approx(esp[k])

    def test_range(self):
        with pytest.raises(ValueError):
            constants(3, 0)
        with pytest.raises(ValueError):
            constants(3, 5)
        with pytest.raises(ValueError):
            constants(1, 1)


class TestSetup:
    def test_dimension_mismatch(self):
        grid = make_radial_grid(0.0, 1.0, 65, m=3)
        with pytest.raises(ValueError):
            CCSetup(grid=grid, n=3)

    def test_phi_validation(self):
        grid = make_radial_grid(0.0, 1.0, 65, m=4)
        CCSetup(grid=grid, n=3, phi=0.3)  # a scalar is broadcast
        with pytest.raises(ValueError, match="phi"):
            CCSetup(grid=grid, n=3, phi=np.zeros(5))
        with pytest.raises(ValueError, match="phi must be finite"):
            CCSetup(grid=grid, n=3, phi=np.full(grid.n, np.inf))


class TestShiftIdentity:
    def test_rhs_scale_is_additive_shift(self):
        # w(beta_tilde-normalized) = w(unit-normalized) - ln(bt)/(2k)
        grid = make_radial_grid(0.0, 1.0, 257, m=4)
        bg = background_ricci(grid, "flat")
        k = 2
        bt = constants(3, k).beta_tilde
        s = log(bt) / (2 * k)
        a = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=k,
                                        boundary_data=1.0, rhs_scale=bt))
        b = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=k,
                                        boundary_data=1.0 + s))
        assert np.max(np.abs(a.u.values - (b.u.values - s))) <= 1e-10


@pytest.fixture(scope="module")
def ball_family():
    return solve_family(ball_setup())


@pytest.fixture(scope="module")
def annulus_family():
    return solve_family(annulus_setup())


class TestBallFamily:
    @pytest.fixture
    def family(self, ball_family):
        return ball_family

    def test_all_members_agree(self, family):
        # the ball class contains the model Einstein metric, so every
        # order picks out the same exponent ln(2 / (1 - s^2))
        grid = family.setup.grid
        core = grid.nodes <= 0.9
        hyp = np.log(2.0 / (1.0 - grid.nodes[core] ** 2))
        for w in family.w:
            assert np.max(np.abs(w.values[core] - hyp)) < 1e-3

    def test_Hk_small_and_zero_on_boundary(self, family):
        # every order stops at the same j_final and holds it on the
        # boundary node, the last one, so H_k is exactly 0 there; the
        # centre r = 0, the first node, is discretization error only
        j_final = {st.asymptotics["j_final"] for st in family.states}
        assert len(j_final) == 1
        for h in compute_Hk(family):
            assert np.max(np.abs(h.values)) <= 1e-3
            assert h.values[-1] == 0.0
            assert abs(h.values[0]) <= 1e-6

    def test_Hk_at_discretization_level(self, family):
        # every order's complete solution is the line through its last two
        # rungs read at j = infinity, exact for the ball's boundary layer:
        # max |H_k| is discretization error, with no spike from the layer
        for h in compute_Hk(family):
            assert np.max(np.abs(h.values)) <= 1e-5

    def test_detected_as_einstein(self, family):
        rep = detection_report(family)
        assert rep["is_einstein"]
        assert rep["threshold"] > 0
        assert len(rep["max_abs_Hk"]) == 3

    def test_cone_margins(self, family):
        assert all(st.cone_margin > 0 for st in family.states)


class TestAnnulusFamily:
    @pytest.fixture
    def family(self, annulus_family):
        return annulus_family

    def test_Hk_nonnegative_and_positive_somewhere(self, family):
        hk = compute_Hk(family)
        for h in hk:
            assert h.values.min() >= -1e-10
        assert max(h.values.max() for h in hk) >= 1e-2

    def test_family_ordering(self, family):
        # each member is a supersolution of the next problem, so the
        # beta_tilde-normalized exponents decrease in k
        for lo, hi in zip(family.w[1:], family.w[:-1]):
            assert np.min(hi.values - lo.values) >= -1e-10

    def test_not_einstein(self, family):
        rep = detection_report(family, threshold=1e-3)
        assert not rep["is_einstein"]


def newton_iterations(state):
    return sum(e[2] for e in state.trace if e[0] in ("t", "ramp"))


class TestWarmFamily:
    # order k + 1 starts from order k's rungs: each member must still be
    # the cold solve of its order, to the solver tolerance
    @pytest.mark.parametrize("make", [ball_setup, annulus_setup],
                             ids=["ball", "annulus"])
    def test_matches_cold_solves(self, make):
        setup = make(nodes=97)
        family = solve_family(setup)
        bg = background_ricci(setup.grid, "flat")
        for k, (w, state) in enumerate(zip(family.w, family.states), 1):
            cold = solve_complete(SolveConfig(
                grid=setup.grid, background=bg, k=k,
                rhs_scale=constants(setup.n, k).beta_tilde))
            assert np.max(np.abs(w.values - cold.u.values)) <= 1e-9
            assert (state.asymptotics["j_final"]
                    == cold.asymptotics["j_final"])

    # on the ball every order has the same exact solution: order 1 starts
    # from the ball barrier, and each later order from its warm rungs
    # alone, with no t-continuation and no barrier polish (a silent
    # fallback fails this); every Newton solve is recorded: the trace
    # counts one iteration per Jacobian
    def test_ball_warm_orders(self, monkeypatch):
        jacobians = [0]
        jacobian = cs._RadialDisc.jacobian

        def counted(self, *args):
            jacobians[0] += 1
            return jacobian(self, *args)

        monkeypatch.setattr(cs._RadialDisc, "jacobian", counted)
        family = solve_family(ball_setup(nodes=97))
        first, *warm = [state.trace for state in family.states]
        assert first[0][:2] == ("ramp", 0.0)
        assert not any(e[0] == "t" for e in first)
        for trace in warm:
            assert trace[0][:2] == ("ramp", 1.0)
            assert not any(e[0] == "t" or e[:2] == ("ramp", 0.0)
                           for e in trace)
        its = [newton_iterations(state) for state in family.states]
        assert sum(its) == jacobians[0]

    # on the 384-node annulus a warm try stalls at the grid's rounding
    # floor, far above 100 tol but below the floor eps |J| (1 + |u|) of
    # the graded stencils: Newton accepts it, so no order after the first
    # reruns the t-continuation
    def test_annulus_warm_orders_accepted_at_the_floor(self, annulus_family):
        for state in annulus_family.states[1:]:
            assert not any(e[0] == "t" for e in state.trace)
        floor = [e for st in annulus_family.states[1:] for e in st.trace
                 if e[0] == "ramp" and e[4] == "damping-floor"]
        assert any(e[3] > 1e-6 for e in floor)


@pytest.fixture(scope="module")
def recorded_annulus_family():
    """The 384-node annulus family with, in the order they ran, every
    Jacobian ("J") and residual ("F") evaluation, and per complete solve
    its events and state, per Newton solve its stop rule and events, and
    per path-follower phase its data at s = 1, its guess and its entries."""
    events, solves, newtons, phases = [], [], [], []
    jacobian, residual = cs._RadialDisc.jacobian, cs._RadialDisc.residual
    newton, follow, complete = (cs._damped_newton, cs._follow,
                                cc.solve_complete)

    def counted_jacobian(self, *args):
        events.append("J")
        return jacobian(self, *args)

    def counted_residual(self, *args):
        events.append("F")
        return residual(self, *args)

    def recorded_newton(*args):
        start = len(events)
        out = newton(*args)
        newtons.append((out[5], events[start:]))
        return out

    def recorded_follow(*args, **kwargs):
        bound = inspect.signature(follow).bind(*args, **kwargs).arguments
        trace = bound["trace"]
        start = len(trace)
        out = follow(*args, **kwargs)
        phases.append((len(solves), bound["data"](1.0)[1].max(),
                       bound.get("guess"), [e[:2] for e in trace[start:]]))
        return out

    def recorded_complete(config, warm=()):
        start = len(events)
        state = complete(config, warm=warm)
        solves.append((events[start:], state))
        return state

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cs._RadialDisc, "jacobian", counted_jacobian)
        mp.setattr(cs._RadialDisc, "residual", counted_residual)
        mp.setattr(cs, "_damped_newton", recorded_newton)
        mp.setattr(cs, "_follow", recorded_follow)
        mp.setattr(cc, "solve_complete", recorded_complete)
        solve_family(annulus_setup())
    return solves, newtons, phases


class TestNewtonWork:
    # every Newton solve a complete solve makes is in its trace, with one
    # iteration per Jacobian assembled and solved
    def test_trace_counts_every_jacobian(self, recorded_annulus_family):
        solves, _, _ = recorded_annulus_family
        assert len(solves) == 4
        for events, state in solves:
            assert newton_iterations(state) == events.count("J")

    # the rounding-floor stop is tested on the full step, the one residual
    # evaluated after the last Jacobian, not after a whole line search
    def test_floor_stop_after_one_residual(self, recorded_annulus_family):
        _, newtons, _ = recorded_annulus_family
        floor = [events for rule, events in newtons
                 if rule == "damping-floor"]
        assert floor
        for events in floor:
            last = len(events) - 1 - events[::-1].index("J")
            assert events[last + 1:] == ["F"]

    # order 1's j = 4 rung has no guess: the line through the rung j = 2
    # and the closed-form barrier at j = 0 is not a positive e^{-u}; its
    # ramp still tries the whole step first (from the rung below, 6
    # iterations; four quarter steps took 16)
    def test_unpredicted_rung_in_one_step(self, recorded_annulus_family):
        _, _, phases = recorded_annulus_family
        rung = [p for p in phases if p[0] == 0 and p[1] == 4.0]
        assert len(rung) == 1
        _, _, guess, entries = rung[0]
        assert guess is None and entries == [("ramp", 1.0)]


class TestInvariance:
    @pytest.fixture(scope="class")
    def family(self):
        return solve_family(ball_setup(nodes=257))

    def test_zero_shift(self, family):
        assert invariance_check(family, 0.0) <= 1e-12

    def test_constant_shift(self, family):
        assert invariance_check(family, 0.7) <= 1e-10

    def test_bump_shift(self, family):
        grid = family.setup.grid
        bump = ScalarField(
            grid, 0.3 * np.exp(-(((grid.nodes - 0.4) / 0.15) ** 2))
        )
        assert invariance_check(family, bump) <= 1e-10

    def test_conformal_background_family(self, family):
        # a conformally flat bump stays inside the ball class, so the
        # invariants remain at the Einstein level
        grid = family.setup.grid
        bump = ScalarField(
            grid, 0.2 * np.exp(-(((grid.nodes - 0.3) / 0.2) ** 2))
        )
        moved = CCSetup(grid=grid, n=3, phi=bump)
        fam = solve_family(moved)
        assert all(st.cone_margin > 0 for st in fam.states)
        for h in compute_Hk(fam):
            assert np.max(np.abs(h.values)) <= 1e-3
        # e^{2w} e^{2 phi} delta is the complete metric e^{2(w + phi)}
        # delta, so each member plus phi is the flat family's member
        for w, flat in zip(fam.w, family.w):
            assert np.max(np.abs(w.values + bump.values
                                 - flat.values)) <= 1e-12


class TestBenchmarkTolerance:
    def test_small_at_working_resolutions(self):
        # the spread is a difference of per-k discretization errors, so it
        # need not be monotone in resolution; it only has to stay well
        # below the detection scale
        for nodes in (257, 513):
            t = einstein_benchmark_tolerance(
                3, nodes, grading=complete_grading(nodes)
            )
            assert 0 < t < 1e-3

    def test_grid_sharing_required(self):
        g1 = make_radial_grid(0.0, 1.0, 65, m=4)
        g2 = make_radial_grid(0.0, 1.0, 65, m=4)
        f1 = ScalarField(g1, np.zeros(65))
        f2 = ScalarField(g2, np.zeros(65))
        with pytest.raises(ValueError):
            compute_Hk([f1, f2])


class TestDetectionThreshold:
    @staticmethod
    def counted_solves(monkeypatch):
        calls = [0]
        solve = cc.solve_complete

        def counted(config, **kwargs):
            calls[0] += 1
            return solve(config, **kwargs)

        monkeypatch.setattr(cc, "solve_complete", counted)
        return calls

    def test_ball_model_reuses_its_family(self, monkeypatch):
        # the unit-ball model family is the one the threshold measures, so
        # its report solves no second family, and the threshold is the
        # same number the separate measurement gives
        setup = ball_setup(nodes=96)
        calls = self.counted_solves(monkeypatch)
        rep = detection_report(solve_family(setup))
        assert calls[0] == 4
        assert rep["threshold"] == 10.0 * einstein_benchmark_tolerance(
            3, 96, grading=setup.grid.grading)

    @pytest.mark.parametrize("change", ["phi", "tol", "radius"])
    def test_other_families_measure_the_ball(self, change, monkeypatch):
        setup = ball_setup(nodes=96)
        grid = setup.grid
        if change == "phi":
            setup = CCSetup(grid=grid, n=3, phi=ScalarField(
                grid, 0.1 * grid.nodes**2))
        elif change == "tol":
            setup = CCSetup(grid=grid, n=3, tol_residual=1e-9)
        else:
            setup = CCSetup(grid=make_radial_grid(
                0.0, 0.9, 96, m=4, grading=grid.grading), n=3)
        calls = self.counted_solves(monkeypatch)
        rep = detection_report(solve_family(setup))
        assert calls[0] == 8
        assert rep["threshold"] == 10.0 * einstein_benchmark_tolerance(
            3, 96, grading=grid.grading)
