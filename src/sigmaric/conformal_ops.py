"""Batched conformal curvature kernel on node stacks.

Conventions: the solver variable is the conformal exponent u with
ghat = e^{2u} g and rho = -Ric of the background g, here flat: g = delta,
the only base any solver accepts.  The negative Ricci tensor of ghat, as a
bilinear form in background indices, is

    rhohat = rho + (m-2) hess_u + (tr hess_u) delta
             + (m-2) (|du|^2 delta - du (x) du).

The homotopy tensor interpolates from a constant-curvature anchor at t = 0
to rhohat at t = 1.  Every function works on stacks of nodes: grad is
(n, m), hess and rho are (n, m, m).  The box solver and the oracle tests
run this code; sigma_k of W_t and its Newton transform come from one
symfun.sigma_newton pass, which linear_coefficients takes as given.
"""

from math import comb

import numpy as np

__all__ = [
    "anchor",
    "conformal_tensor",
    "homotopy_tensor",
    "linear_coefficients",
]


def anchor(m, k, rhs_scale):
    """Eigenvalue lam of the t = 0 anchor lam * delta.

    C(m,k) lam^k = rhs_scale, so u = 0 solves the t = 0 equation exactly
    for any rhs_scale.
    """
    return (rhs_scale / comb(m, k)) ** (1.0 / k)


def conformal_tensor(grad, hess):
    """(m-2) hess + (tr hess) delta + (m-2)(|du|^2 delta - du (x) du), the
    tensor -Ric(e^{2u} delta) at each node."""
    m = grad.shape[1]
    lap = np.trace(hess, axis1=1, axis2=2)
    g2 = np.sum(grad * grad, axis=1)
    W = (m - 2) * hess - (m - 2) * np.einsum("ia,ib->iab", grad, grad)
    W += ((m - 2) * g2 + lap)[:, None, None] * np.eye(m)
    return W


def homotopy_tensor(grad, hess, rho, t, anchor, scale):
    """W_t = (1-t) anchor delta + (t rho + conformal tensor) / scale.

    scale is the background prescale c >= 1 with c delta >= rho; at t = 1
    and scale 1 this is rhohat.
    """
    W = conformal_tensor(grad, hess)
    W += t * rho
    W /= scale
    W += (1.0 - t) * anchor * np.eye(grad.shape[1])
    return W


def linear_coefficients(T, grad, scale):
    """Coefficients (c2, c1) of the derivative of sigma_k(W_t) in u.

    T = T_{k-1}(W_t) is the Newton transform, as symfun.sigma_newton
    returns it with sigma_k.  The derivative in direction h is
    c2 : hess_h + c1 . grad_h, with c2 = ((m-2) T + tr(T) delta) / scale
    and c1 from the gradient terms contracted against T.  c2 is positive
    definite whenever the eigenvalues of W_t lie in Gamma_k+.
    """
    m = T.shape[1]
    trT = np.trace(T, axis1=1, axis2=2)
    c2 = ((m - 2) * T + trT[:, None, None] * np.eye(m)) / scale
    Tg = np.einsum("iab,ib->ia", T, grad)
    c1 = 2.0 * (m - 2) * (trT[:, None] * grad - Tg) / scale
    return c2, c1
