from math import comb, log

import numpy as np
import pytest

from oracles import eigenvalues
from sigmaric import radial_oracle
from sigmaric.conformal_ops import anchor, homotopy_tensor
from sigmaric.radial_oracle import (
    _admissible_residual,
    _cheb_nodes_and_diff,
    _sigma_pair_margin,
    bvp_solve,
    einstein_boundary_constant,
    einstein_exact,
    einstein_exact_radial,
    radial_eigenvalues,
    sigma_pair,
)
from sigmaric.symfun import sigma_all

from test_conformal_ops import radial_node


class TestRadialEigenvalues:
    def test_constant_profile(self):
        a, b = radial_eigenvalues(1.0, 0.0, 0.0, 0.5, t=0.3, k=2, m=3)
        anchor = comb(3, 2) ** (-0.5)
        assert a == pytest.approx(0.7 * anchor)
        assert b == pytest.approx(0.7 * anchor)

    def test_origin_regularity_required(self):
        with pytest.raises(ValueError):
            radial_eigenvalues(0.0, 1.0, 0.0, 0.0, t=1.0, k=1, m=3)

    def test_matches_full_assembly(self):
        # axisymmetric sample vs the conformal_ops homotopy tensor with
        # analytic derivatives
        m, k, t = 4, 3, 0.6
        r = 0.7
        w, dw, d2w = 0.2, -0.4, 1.1
        a, b = radial_eigenvalues(w, dw, d2w, r, t=t, k=k, m=m)
        grad, hess = radial_node(m, r, dw, d2w)
        W = homotopy_tensor(grad, hess, np.zeros((m, m, 1)), t,
                            anchor(m, k, 1.0), 1.0)
        lam = eigenvalues(W)[0]
        expect = np.sort(np.array([a] + [b] * (m - 1)))
        assert np.allclose(lam, expect, rtol=1e-12)

    def test_einstein_closed_form_eigenvalues(self):
        m, k = 3, 2
        s = 0.6
        w, dw, d2w = einstein_exact_radial(m, k, s, derivatives=True)
        a, b = radial_eigenvalues(w, dw, d2w, s, t=1.0, k=k, m=m)
        expect = comb(m, k) ** (-1.0 / k) * np.exp(2 * w)
        assert a == pytest.approx(expect, rel=1e-10)
        assert b == pytest.approx(expect, rel=1e-10)


class TestEinsteinExact:
    def test_center_value(self):
        assert einstein_exact(3, 3, np.zeros(3)) == pytest.approx(
            1.5 * log(2.0)
        )

    def test_boundary_constant_k_equals_m(self):
        s = 1.0 - 1e-8
        w = einstein_exact_radial(3, 3, s)
        r = 1.0 - s
        assert w + np.log(r) == pytest.approx(0.5 * log(2.0), abs=1e-7)
        assert einstein_boundary_constant(3, 3) == pytest.approx(
            0.5 * log(2.0)
        )

    def test_boundary_constant_k1_carries_binomial(self):
        assert einstein_boundary_constant(3, 1) == pytest.approx(
            0.5 * log(2.0) + 0.5 * log(3.0)
        )

    def test_outside_ball_raises(self):
        with pytest.raises(ValueError):
            einstein_exact_radial(3, 2, 1.1)

    @pytest.mark.parametrize("m,k", [(3, 1), (3, 3), (4, 2), (4, 4), (5, 3)])
    def test_solves_equation_exactly(self, m, k):
        # the primary correctness anchor: residual of the closed form under
        # the pointwise operators, with analytic derivatives
        for s in (0.0, 0.35, 0.8, 0.95):
            w, dw, d2w = einstein_exact_radial(m, k, s, derivatives=True)
            a, b = radial_eigenvalues(
                w if s > 0 else w,
                dw if s > 0 else 0.0,
                d2w,
                s,
                t=1.0,
                k=k,
                m=m,
            )
            res = sigma_pair(a, b, k, m) - np.exp(2 * k * w)
            assert abs(res) <= 1e-10 * max(1.0, np.exp(2 * k * w))


class TestAdmissibility:
    @pytest.mark.parametrize("m", range(2, 7))
    def test_margin_matches_closed_form(self, m):
        rng = np.random.default_rng(40 + m)
        a = rng.normal(0.0, 2.0, 500)
        b = rng.normal(0.0, 2.0, 500)
        top = np.maximum(np.abs(a), np.abs(b))
        for k in range(1, m + 1):
            ref = np.min(
                [sigma_pair(a, b, j, m) for j in range(1, k + 1)], axis=0
            )
            scale = np.max(
                [comb(m, j) * top**j for j in range(1, k + 1)], axis=0
            )
            err = np.abs(_sigma_pair_margin(a, b, k, m) - ref)
            assert np.all(err <= 1e-12 * scale)

    def test_non_finite_trial_point_rejected(self):
        # an overflowing trial point must be rejected so that the line
        # search halves its step, not raise out of bvp_solve
        n, r0, r1, m, k = 32, 0.5, 1.0, 4, 3
        xi, Dxi = _cheb_nodes_and_diff(n)
        r = r0 + (r1 - r0) * (1.0 + xi) / 2.0
        D = Dxi * (2.0 / (r1 - r0))
        w = np.zeros(n + 1)
        w[n // 2] = 1e160
        with np.errstate(over="ignore", invalid="ignore"):
            got = _admissible_residual(
                w, r, D, D @ D, 1.0, k, m, 1.0, 0.5, 0.0, False
            )
        assert got == (False, np.inf)

    def test_one_sigma_all_call_per_margin(self, monkeypatch):
        calls = {"sigma_all": 0, "admissible": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(radial_oracle, "sigma_all",
                            counting("sigma_all", radial_oracle.sigma_all))
        monkeypatch.setattr(
            radial_oracle, "_admissible_residual",
            counting("admissible", radial_oracle._admissible_residual))
        bvp_solve(0.5, 1.0, m=3, k=2, j1=0.5, j0=0.0, n=24)
        assert calls["admissible"] > 0
        assert calls["sigma_all"] == calls["admissible"]


class TestBvpSolve:
    def test_annulus_zero_data_nonpositive(self):
        prof = bvp_solve(0.5, 1.0, m=3, k=3, j1=0.0, j0=0.0, n=48)
        assert prof.w.max() <= 1e-9

    def test_comparison_principle(self):
        p0 = bvp_solve(0.5, 1.0, m=3, k=2, j1=0.0, j0=0.0, n=48)
        p1 = bvp_solve(0.5, 1.0, m=3, k=2, j1=1.0, j0=1.0, n=48)
        assert np.all(p0.w <= p1.w + 1e-10)

    def test_ball_large_datum_approaches_einstein(self):
        prof = bvp_solve(0.0, 1.0, m=3, k=3, j1=10.0, n=220)
        core = prof.r <= 0.5
        exact = einstein_exact_radial(3, 3, prof.r[core])
        assert np.abs(prof.w[core] - exact).max() <= 1e-3

    def test_cone_membership_everywhere(self):
        prof = bvp_solve(0.5, 1.0, m=4, k=3, j1=0.5, j0=0.0, n=48)
        for ri, wi, dwi, d2wi in zip(prof.r, prof.w, prof.dw, prof.d2w):
            a, b = radial_eigenvalues(wi, dwi, d2wi, ri, t=1.0, k=3, m=4)
            lam = np.array([a, b, b, b])
            assert sigma_all(lam)[1:4].min() > 0

    def test_newton_stops_at_rounding_floor(self):
        # the rounding floor of D2 @ w exceeds tol = 1e-10 at these degrees;
        # Newton must stop on the increment there instead of stalling on
        # residual noise, and the converged polynomials agree to well below
        # the floor
        args = dict(m=4, k=3, j1=0.5, j0=0.0)
        ref = bvp_solve(0.5, 1.0, n=96, **args)
        r_eval = np.linspace(0.5, 1.0, 41)
        w_ref = ref.interp(r_eval)
        rules = {"residual", "increment", "damping-floor"}
        assert {entry[-1] for entry in ref.trace} <= rules
        for n in (32, 40, 48, 56, 64):
            prof = bvp_solve(0.5, 1.0, n=n, **args)
            assert np.abs(prof.interp(r_eval) - w_ref).max() <= 1e-10
            assert len(prof.trace) > 0
            assert {entry[-1] for entry in prof.trace} <= rules

    def test_ramp_iterations(self):
        # with the secant predictor the data ramp takes a few Newton
        # iterations per step; from the last accepted point it took 486
        prof = bvp_solve(0.5, 1.0, m=4, k=3, j1=0.5, j0=0.0, n=24)
        assert sum(entry[1] for entry in prof.trace) <= 200

    def test_newton_starts_in_the_cone(self, monkeypatch):
        # a secant guess may leave the cone (on this annulus one does), and
        # Newton may return its start unchanged by the residual or the
        # damping-floor rule, so every Newton solve must start admissible
        starts = []
        system = radial_oracle._collocation_system

        def recorded(w, *args):
            if not starts or starts[-1][1][3:] != args[3:]:
                starts.append((w.copy(), args))  # a new (t, b1, b0)
            return system(w, *args)

        monkeypatch.setattr(radial_oracle, "_collocation_system", recorded)
        bvp_solve(0.5, 1.0, m=4, k=3, j1=0.5, j0=0.0, n=48)
        assert len(starts) > 2
        for w, args in starts:
            assert _admissible_residual(w, *args)[0]

    def test_spectral_convergence_on_einstein_benchmark(self):
        # Dirichlet data from the exact solution on an annulus; the error
        # should drop much faster than 4th order as the degree grows
        m, k = 3, 3
        r0, r1 = 0.3, 0.8
        errs = []
        for n in (12, 24, 48):
            jb1 = float(einstein_exact_radial(m, k, r1))
            jb0 = float(einstein_exact_radial(m, k, r0))
            prof = bvp_solve(r0, r1, m=m, k=k, j1=jb1, j0=jb0, n=n)
            exact = einstein_exact_radial(m, k, prof.r)
            errs.append(np.abs(prof.w - exact).max())
        assert errs[2] <= 1e-10
        # observed order between successive degree doublings >= 4
        p01 = np.log2(max(errs[0], 1e-15) / max(errs[1], 1e-15))
        assert p01 >= 4.0

    def test_profile_interpolation(self):
        prof = bvp_solve(0.5, 1.0, m=3, k=1, j1=0.0, j0=0.0, n=48)
        r_eval = np.linspace(0.5, 1.0, 7)
        vals = prof.interp(r_eval)
        assert vals[0] == pytest.approx(0.0, abs=1e-10)
        assert vals[-1] == pytest.approx(0.0, abs=1e-10)

    def test_annulus_requires_inner_datum(self):
        with pytest.raises(ValueError):
            bvp_solve(0.5, 1.0, m=3, k=1, j1=0.0)

    def test_profile_interpolation_matches_pointwise_loop(self):
        # the one-array barycentric formula against the point-at-a-time
        # loop it replaced, exact node hits included
        prof = bvp_solve(0.5, 1.0, m=4, k=3, j1=0.5, j0=0.0, n=48)
        x, y = prof.r, prof.w
        wgt = np.ones(x.size)
        wgt[0] = wgt[-1] = 0.5
        wgt *= (-1.0) ** np.arange(x.size)

        def loop(xv):
            d = xv - x
            hit = np.argmin(np.abs(d))
            if abs(d[hit]) < 1e-14:
                return y[hit]
            t = wgt / d
            return (t @ y) / t.sum()

        r_eval = np.concatenate([np.linspace(0.5, 1.0, 1025), x])
        ref = np.array([loop(xv) for xv in r_eval])
        got = prof.interp(r_eval)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
        assert np.array_equal(got[1025:], y)
        grid = r_eval[:1024].reshape(32, 32)
        assert np.array_equal(prof.interp(grid), got[:1024].reshape(32, 32))
        assert prof.interp(0.75) == pytest.approx(loop(0.75), rel=1e-14)
        assert prof.interp(x[3]) == y[3]


class TestBvpInputs:
    @pytest.mark.parametrize("name,kwargs", [
        ("k", dict(k=0)),
        ("k", dict(k=5)),
        ("m", dict(m=1, k=1)),
        ("n", dict(n=1)),
        ("n", dict(n=16.5)),
        ("r0", dict(r0=np.nan)),
        ("r1", dict(r1=np.inf)),
        ("j1", dict(j1=np.nan)),
        ("j0", dict(j0=-np.inf)),
        ("rhs_scale", dict(rhs_scale=np.nan)),
        ("rhs_scale", dict(rhs_scale=0.0)),
        ("rhs_scale", dict(rhs_scale=-1.0)),
    ])
    def test_rejected_before_newton(self, monkeypatch, name, kwargs):
        def no_newton(*args):
            raise AssertionError("Newton ran on a rejected input")

        monkeypatch.setattr(radial_oracle, "_collocation_system", no_newton)
        args = dict(r0=0.5, r1=1.0, m=4, k=3, j1=0.5, j0=0.0, n=16)
        args.update(kwargs)
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bvp_solve(**args)


def _counted_solve(monkeypatch, *args, **kwargs):
    """bvp_solve with its admissible-residual calls counted and the
    continuation parameter t + b1/j1 of each Newton try recorded."""
    calls = {"admissible": 0}
    tries = []
    system = radial_oracle._collocation_system
    admissible = radial_oracle._admissible_residual

    def recorded(w, *sys_args):
        if not tries or tries[-1] != sys_args[3:]:
            tries.append(sys_args[3:])  # a new (t, b1, b0)
        return system(w, *sys_args)

    def counted(*adm_args):
        calls["admissible"] += 1
        return admissible(*adm_args)

    monkeypatch.setattr(radial_oracle, "_collocation_system", recorded)
    monkeypatch.setattr(radial_oracle, "_admissible_residual", counted)
    prof = bvp_solve(*args, **kwargs)
    j1 = kwargs["j1"]
    params = [t + b1 / j1 for t, _k, _m, _rs, b1, *_ in tries]
    return prof, calls["admissible"], params


class TestStepControl:
    def test_annulus_ramp_rejects_instead_of_crawling(self, monkeypatch):
        # before the step control the first data-ramp step crawled through
        # 55 damped iterations, with 490 admissible calls for 104 Newton
        # iterations
        prof, admissible, _ = _counted_solve(
            monkeypatch, 0.5, 1.0, m=4, k=3, j1=0.5, j0=0.0, n=48)
        iters = [entry[1] for entry in prof.trace]
        assert max(iters) <= 15
        assert admissible <= 2.5 * sum(iters)

    def test_slow_ramp_takes_few_steps(self, monkeypatch):
        # halving without growth took 496 steps and 5904 admissible calls;
        # a step floor of 0.01 left 5327, from deep backtracking below it
        prof, admissible, _ = _counted_solve(
            monkeypatch, 0.2, 1.0, m=5, k=3, j1=0.3, j0=0.0, n=40)
        assert len(prof.trace) <= 100
        assert admissible <= 600

    def test_trace_holds_accepted_tries_only(self, monkeypatch):
        # a try is rejected exactly when the next one starts at a smaller
        # parameter; the trace lists the accepted ones, in order
        prof, _, params = _counted_solve(
            monkeypatch, 0.5, 1.0, m=4, k=3, j1=0.5, j0=0.0, n=48)
        accepted = [p for p, nxt in zip(params, params[1:] + [np.inf])
                    if nxt > p]
        traced = [entry[0] for entry in prof.trace]
        assert len(accepted) < len(params)
        assert np.all(np.diff(traced) > 0)
        assert np.allclose(traced, accepted, rtol=0, atol=1e-12)
        assert traced[-1] == 2.0
