"""Batched conformal curvature kernel, component-major.

Conventions: the solver variable is the conformal exponent u with
ghat = e^{2u} g and rho = -Ric of the background g, here flat: g = delta,
the only base any solver accepts.  The negative Ricci tensor of ghat, as a
bilinear form in background indices, is

    rhohat = rho + (m-2) hess_u + (tr hess_u) delta
             + (m-2) (|du|^2 delta - du (x) du).

The homotopy tensor interpolates from a constant-curvature anchor at t = 0
to rhohat at t = 1.  Arrays are component-major, matrix indices first and
node axes last: grad is (m, *nodes) and rho, W_t, T and c2 are
(m, m, *nodes), so each entry is one contiguous array.  Only grad[a] and
hess[a, b] with a <= b are read, so the box solver hands over its
derivative slices as they come; each entry above the diagonal is formed
once and copied to its twin.  The box solver and the oracle tests run this
code; sigma_k of W_t and its Newton transform come from one
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
    tensor -Ric(e^{2u} delta) at each node, as an (m, m, *nodes) array."""
    m, c = len(grad), len(grad) - 2
    diag = c * sum(g * g for g in grad) + sum(hess[a, a] for a in range(m))
    W = np.empty((m, m) + np.shape(grad[0]))
    for a in range(m):
        for b in range(a, m):
            W[a, b] = W[b, a] = c * hess[a, b] - c * (grad[a] * grad[b])
        W[a, a] += diag
    return W


def homotopy_tensor(grad, hess, rho, t, anchor, scale):
    """W_t = (1-t) anchor delta + (t rho + conformal tensor) / scale.

    scale is the background prescale c >= 1 with c delta >= rho; at t = 1
    and scale 1 this is rhohat.  rho = None stands for rho = 0.
    """
    W = conformal_tensor(grad, hess)
    if rho is not None:
        W += t * rho
    W /= scale
    for a in range(len(W)):
        W[a, a] += (1.0 - t) * anchor
    return W


def linear_coefficients(T, grad, scale):
    """Coefficients (c2, c1) of the derivative of sigma_k(W_t) in u.

    T = T_{k-1}(W_t) is the Newton transform, as symfun.sigma_newton
    returns it with sigma_k.  The derivative in direction h is
    c2 : hess_h + c1 . grad_h, with c2 = ((m-2) T + tr(T) delta) / scale,
    (m, m, *nodes), and c1 = 2(m-2)(tr(T) grad - T grad) / scale,
    (m, *nodes).  c2 is positive definite whenever the eigenvalues of W_t
    lie in Gamma_k+.
    """
    m, trT = len(T), np.trace(T)
    c2, c1 = np.empty(T.shape), np.empty((m,) + T.shape[2:])
    for a in range(m):
        c2[a, a] = ((m - 2) * T[a, a] + trT) / scale
        for b in range(a + 1, m):
            c2[a, b] = c2[b, a] = (m - 2) * T[a, b] / scale
        Tg = sum(T[a, b] * grad[b] for b in range(m))
        c1[a] = 2.0 * (m - 2) * (trT * grad[a] - Tg) / scale
    return c2, c1
