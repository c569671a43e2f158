from math import comb, log

import numpy as np
import pytest

from oracles import eigenvalues, jacobian_fd, kernel_residual, ricci_fd
from sigmaric.conformal_ops import (
    anchor,
    conformal_tensor,
    homotopy_tensor,
    linear_coefficients,
)
from sigmaric.radial_oracle import einstein_exact_radial
from sigmaric.symfun import sigma_all, sigma_newton


def zero_state(m, rho=None):
    """One-node stack (grad, hess, rho, u) with vanishing derivatives,
    component-major."""
    rho = np.zeros((m, m)) if rho is None else rho
    return np.zeros((m, 1)), np.zeros((m, m, 1)), rho[..., None], np.zeros(1)


def random_admissible_state(rng, m, k):
    """Random one-node stack (grad, hess, rho, u) whose W_1 eigenvalues
    land in Gamma_k+ with cone margin above 0.05."""
    while True:
        grad = 0.3 * rng.standard_normal(m)
        H = 0.3 * rng.standard_normal((m, m))
        hess = 0.5 * (H + H.T) + (0.8 + rng.uniform(0, 1)) * np.eye(m)
        P = 0.1 * rng.standard_normal((m, m))
        rho = 0.5 * (P + P.T)
        u = rng.uniform(-0.5, 0.5)
        st = grad[:, None], hess[..., None], rho[..., None], np.array([u])
        W = homotopy_tensor(*st[:3], 1.0, anchor(m, k, 1.0), 1.0)
        if sigma_all(eigenvalues(W))[0, 1 : k + 1].min() > 0.05:
            return st


def linearize(st, k, t=1.0, rhs_scale=1.0):
    """(c2, c1, c0) of the residual's derivative at a node stack: c2 and
    c1 from the kernel, c0 = -2k rhs_scale e^{2ku}."""
    grad, hess, rho, u = st
    m = len(grad)
    W = homotopy_tensor(grad, hess, rho, t, anchor(m, k, rhs_scale), 1.0)
    c2, c1 = linear_coefficients(sigma_newton(W, k)[1], grad, 1.0)
    return c2, c1, -2.0 * k * rhs_scale * np.exp(2.0 * k * u)


def derivative_pair(st, k, rng):
    """(analytic, numeric) derivative of the residual at a one-node stack
    in a random direction: the kernel's linearization against the
    oracle's central difference."""
    m = len(st[0])
    Hd = rng.standard_normal((m, m))
    Hd = 0.5 * (Hd + Hd.T)
    gd = rng.standard_normal(m)
    hd = rng.standard_normal()
    c2, c1, c0 = linearize(st, k)
    analytic = np.sum(c2[..., 0] * Hd) + c1[:, 0] @ gd + c0[0] * hd
    numeric = jacobian_fd(*st, k)(Hd[..., None], gd[:, None], hd)
    return float(analytic), float(numeric[0])


def radial_node(m, r, dw, d2w):
    """Gradient and Hessian of a radial function at x = r e_0, as
    component-major one-node stacks."""
    P = np.zeros((m, m))
    P[0, 0] = 1.0
    hess = d2w * P + (dw / r) * (np.eye(m) - P)
    return dw * P[:, :1], hess[..., None]


def fd_grad_hess(w_fun, x, h=1e-5):
    """Central-difference gradient and Hessian of w_fun at x, as
    component-major one-node stacks."""
    m = x.size
    grad = np.empty(m)
    hess = np.empty((m, m))
    for a in range(m):
        ea = np.zeros(m)
        ea[a] = h
        grad[a] = (w_fun(x + ea) - w_fun(x - ea)) / (2 * h)
        for b in range(a, m):
            eb = np.zeros(m)
            eb[b] = h
            hess[a, b] = hess[b, a] = (
                w_fun(x + ea + eb)
                - w_fun(x + ea - eb)
                - w_fun(x - ea + eb)
                + w_fun(x - ea - eb)
            ) / (4 * h * h)
    return grad[:, None], hess[..., None]


class TestRicciConformal:
    # the conformal Ricci law: conformal_tensor, and rho added at t = 1
    def test_identity_factor(self):
        rng = np.random.default_rng(0)
        P = rng.standard_normal((3, 3))
        rho = 0.5 * (P + P.T)
        grad, hess, rho_s, _ = zero_state(3, rho)
        W = homotopy_tensor(grad, hess, rho_s, 1.0, anchor(3, 2, 1.0), 1.0)
        assert np.allclose(W[..., 0], rho)

    def test_constant_factor_flat_stays_flat(self):
        grad, hess, _, _ = zero_state(4)
        assert np.allclose(conformal_tensor(grad, hess), 0.0)

    def test_hyperbolic_ball(self):
        # w = ln(2 / (1 - |x|^2)) turns flat space into the hyperbolic
        # metric with rhohat = (m-1) e^{2w} delta
        m = 3
        x = np.array([0.3, -0.2, 0.1])

        def w_fun(y):
            return np.log(2.0 / (1.0 - y @ y))

        grad, hess = fd_grad_hess(w_fun, x)
        expect = (m - 1) * np.exp(2 * w_fun(x)) * np.eye(m)
        assert np.allclose(conformal_tensor(grad, hess)[..., 0], expect,
                           rtol=1e-5, atol=1e-5)

    def test_matches_fd_curvature_oracle(self):
        # -Ric(e^{2w} delta) from Christoffel finite differences
        m = 3
        rng = np.random.default_rng(5)
        c = rng.standard_normal(m)
        A = 0.1 * rng.standard_normal((m, m))
        A = 0.5 * (A + A.T)

        def w_fun(y):
            return 0.2 * np.sin(c @ y) + y @ A @ y

        def metric(y):
            return np.exp(2 * w_fun(y)) * np.eye(m)

        x = np.array([0.2, -0.1, 0.4])
        grad, hess = fd_grad_hess(w_fun, x)
        assert np.allclose(
            conformal_tensor(grad, hess)[..., 0], -ricci_fd(metric, x),
            rtol=1e-4, atol=1e-4,
        )


class TestAssembleWt:
    # the homotopy tensor W_t
    def test_anchor(self):
        m, k = 3, 2
        lam = anchor(m, k, 1.0)
        W = homotopy_tensor(*zero_state(m)[:3], 0.0, lam, 1.0)
        assert np.allclose(W[..., 0], lam * np.eye(m))

    def test_flat_endpoint_vanishes(self):
        m, k = 4, 4
        W = homotopy_tensor(*zero_state(m)[:3], 1.0, anchor(m, k, 1.0), 1.0)
        assert np.allclose(W, 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_einstein_closed_form(self, k):
        m = 3
        s = 0.45
        w, dw, d2w = einstein_exact_radial(m, k, s, derivatives=True)
        grad, hess = radial_node(m, s, dw, d2w)
        rho = np.zeros((m, m, 1))
        W = homotopy_tensor(grad, hess, rho, 1.0, anchor(m, k, 1.0), 1.0)
        expect = comb(m, k) ** (-1.0 / k) * np.exp(2 * w)
        assert np.allclose(eigenvalues(W), expect, rtol=1e-9)
        res = kernel_residual(grad, hess, rho, np.array([w]), k)
        assert abs(res[0]) <= 1e-9 * max(1.0, expect**k)


class TestResidual:
    # sigma_k(W_t) - rhs_scale e^{2ku} on the kernel's W_t
    def test_anchor_residual_zero(self):
        for m, k in [(3, 1), (3, 3), (4, 2)]:
            res = kernel_residual(*zero_state(m), k, t=0.0)
            assert res[0] == pytest.approx(0.0, abs=1e-14)

    def test_flat_endpoint_value(self):
        res = kernel_residual(*zero_state(3), 3, t=1.0)
        assert res[0] == pytest.approx(-1.0)

    def test_det_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            st = random_admissible_state(rng, 3, 3)
            W = homotopy_tensor(*st[:3], 1.0, anchor(3, 3, 1.0), 1.0)
            direct = np.linalg.det(W[..., 0]) - np.exp(2 * 3 * st[3][0])
            assert kernel_residual(*st, 3)[0] == pytest.approx(
                direct, rel=1e-12, abs=1e-12
            )

    def test_additive_shift_identity(self):
        # at t = 1 the residual with rhs_scale = beta maps to the unit
        # residual of the shifted exponent
        rng = np.random.default_rng(2)
        m, k = 4, 2
        beta = 54.0
        shift = log(beta) / (2 * k)
        for _ in range(10):
            grad, hess, rho, u = random_admissible_state(rng, m, k)
            r_unit = kernel_residual(grad, hess, rho, u, k)
            r_beta = kernel_residual(grad, hess, rho, u - shift, k,
                                     rhs_scale=beta)
            assert r_beta[0] == pytest.approx(r_unit[0], rel=1e-12,
                                              abs=1e-12)


class TestLinearize:
    # the kernel's (c2, c1) and c0 against central differences
    def test_zero_order_coefficient(self):
        # constant directions see only c0 = -2k e^{2ku}
        for m in (3, 4):
            grad, hess, rho, u = zero_state(m)
            hess = hess + 0.5 * np.eye(m)[..., None]
            c0 = linearize((grad, hess, rho, u), m, t=0.0)[2][0]
            fd = jacobian_fd(grad, hess, rho, u, m, t=0.0)
            numeric = fd(np.zeros((m, m, 1)), np.zeros((m, 1)), 1.0)[0]
            assert c0 == pytest.approx(-2.0 * m)
            assert numeric == pytest.approx(c0, rel=1e-8)

    def test_cone_violation_loses_ellipticity(self):
        # W = diag(1, 1, -3) has sigma_1 < 0, outside Gamma_2+; there
        # c2 = diag(-4, -4, 0) is not positive definite
        st = zero_state(3, np.diag([1.0, 1.0, -3.0]))
        c2, _, _ = linearize(st, 2)
        assert np.allclose(c2[..., 0], np.diag([-4.0, -4.0, 0.0]))
        assert np.linalg.eigvalsh(c2[..., 0])[0] < 0.0

    @pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (3, 3), (4, 2), (4, 4)])
    def test_matches_fd_jacobian(self, m, k):
        rng = np.random.default_rng(10 * m + k)
        for _ in range(5):
            st = random_admissible_state(rng, m, k)
            for _ in range(3):
                analytic, numeric = derivative_pair(st, k, rng)
                assert analytic == pytest.approx(
                    numeric, rel=1e-6, abs=1e-8
                )

    def test_ellipticity_in_cone(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            st = random_admissible_state(rng, 4, 3)
            c2 = linearize(st, 3)[0][..., 0]
            assert np.linalg.eigvalsh(0.5 * (c2 + c2.T))[0] > 0

    def test_einstein_zero_order_beta_normalized(self):
        # at the Einstein solution of the beta-normalized equation the
        # constant-direction operator is -2k beta e^{2kw} h
        n = 3
        m, k = n + 1, 2
        beta = n**k * comb(n + 1, k)
        shift = log(beta) / (2 * k)
        s = 0.3
        w, dw, d2w = einstein_exact_radial(m, k, s, derivatives=True)
        grad, hess = radial_node(m, s, dw, d2w)
        st = grad, hess, np.zeros((m, m, 1)), np.array([w - shift])
        expect = -2 * k * beta * np.exp(2 * k * st[3][0])
        _, _, c0 = linearize(st, k, rhs_scale=beta)
        assert c0[0] == pytest.approx(expect, rel=1e-12)
        fd = jacobian_fd(*st, k, rhs_scale=beta)
        numeric = fd(np.zeros((m, m, 1)), np.zeros((m, 1)), 1.0)[0]
        assert numeric == pytest.approx(expect, rel=1e-8)
        # sanity: the state solves the beta-normalized equation
        assert abs(kernel_residual(*st, k, rhs_scale=beta)[0]) <= 1e-8 * beta
