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
        for h in compute_Hk(family):
            assert np.max(np.abs(h.values)) <= 1e-3
            # boundary node: zero up to the per-rung solver tolerance
            assert abs(h.values[0]) <= 1e-6

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

    # on the ball every order has the same exact solution, so a warm
    # order takes at most half the cold first order's iterations (a silent
    # fallback to the cold path fails this), and every Newton solve is
    # recorded: the trace counts one iteration per Jacobian
    def test_ball_warm_orders(self, monkeypatch):
        jacobians = [0]
        jacobian = cs._RadialDisc.jacobian

        def counted(self, *args):
            jacobians[0] += 1
            return jacobian(self, *args)

        monkeypatch.setattr(cs._RadialDisc, "jacobian", counted)
        family = solve_family(ball_setup(nodes=97))
        its = [newton_iterations(state) for state in family.states]
        assert all(2 * i <= its[0] for i in its[1:])
        assert sum(its) == jacobians[0]


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
