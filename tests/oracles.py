"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: Ricci tensors come from
finite differences of Christoffel symbols of the full metric, Jacobians from
centered differences of the nonlinear residual, with sigma_k from
eigenvalues where the solvers use trace identities, and complete solutions
bracketed by closed-form ball solutions.  Stacks are
component-major, as in conformal_ops: grad is (m, *nodes), hess and rho
(m, m, *nodes).
"""

from math import comb, log

import numpy as np
import scipy.sparse as sp

from sigmaric.conformal_ops import anchor, conformal_tensor, homotopy_tensor
from sigmaric.domains import uniform_d1, uniform_d2
from sigmaric.symfun import sigma_all


def eigenvalues(W):
    """Ascending eigenvalues of each matrix of a component-major
    (m, m, *nodes) stack, as a (*nodes, m) array."""
    return np.linalg.eigvalsh(np.moveaxis(W, (0, 1), (-2, -1)))


def ricci_fd(metric, x, h=1e-4):
    """Ricci tensor of a metric field by nested central differences.

    metric: callable x -> (m, m) array.  Uses the coordinate formula
    R_ij = d_a Gamma^a_ij - d_j Gamma^a_ia + Gamma^a_ab Gamma^b_ij
           - Gamma^a_ib Gamma^b_ja.
    """
    x = np.asarray(x, dtype=float)
    m = x.size

    def christoffel(y):
        g = metric(y)
        ginv = np.linalg.inv(g)
        dg = np.empty((m, m, m))
        for a in range(m):
            e = np.zeros(m)
            e[a] = h
            dg[a] = (metric(y + e) - metric(y - e)) / (2 * h)
        gam = np.empty((m, m, m))
        for a in range(m):
            for i in range(m):
                for j in range(m):
                    gam[a, i, j] = 0.5 * np.sum(
                        ginv[a] * (dg[i][:, j] + dg[j][:, i] - dg[:, i, j])
                    )
        return gam

    gam0 = christoffel(x)
    dgam = np.empty((m, m, m, m))
    for a in range(m):
        e = np.zeros(m)
        e[a] = h
        dgam[a] = (christoffel(x + e) - christoffel(x - e)) / (2 * h)
    ric = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            term = 0.0
            for a in range(m):
                term += dgam[a][a, i, j] - dgam[j][a, i, a]
                for b in range(m):
                    term += (
                        gam0[a, a, b] * gam0[b, i, j]
                        - gam0[a, i, b] * gam0[b, j, a]
                    )
            ric[i, j] = term
    return ric


def kernel_residual(grad, hess, rho, u, k, t=1.0, rhs_scale=1.0):
    """sigma_k(W_t) - rhs_scale e^{2ku} at each node of a stack.

    W_t is the conformal_ops homotopy tensor at scale 1; sigma_k comes from
    its eigenvalues, not from the trace identities the solvers use.
    """
    m = len(grad)
    W = homotopy_tensor(grad, hess, rho, t, anchor(m, k, rhs_scale), 1.0)
    esp = sigma_all(eigenvalues(W))
    return esp[:, k] - rhs_scale * np.exp(2.0 * k * u)


def jacobian_fd(grad, hess, rho, u, k, t=1.0, rhs_scale=1.0, eps=1e-6):
    """Directional-derivative check data for the residual linearization.

    Returns a callable (hess_h, grad_h, h) -> centered finite difference of
    kernel_residual at the node stack in that direction, one per node; the
    direction is shaped like (hess, grad, u).
    """

    def directional(hess_h, grad_h, h):
        def shifted(sign):
            return kernel_residual(
                grad + sign * eps * grad_h, hess + sign * eps * hess_h, rho,
                u + sign * eps * h, k, t, rhs_scale,
            )

        return (shifted(+1) - shifted(-1)) / (2 * eps)

    return directional


def manufactured_box(grid, k):
    """A manufactured solution on a 3-d box grid.

    Returns (u, grad u, hess u, f) for
    u = 0.2 |x - 0.4|^2 + 0.05 sin(2 x0 + x1 - x2), with exact derivatives
    (component-major), and the rhs factor f = sigma_k(W) e^{-2ku}, W the
    conformal tensor of u, for which u solves the t = 1 equation on a flat
    background.
    """
    pts = grid.points
    phase = 2 * pts[:, 0] + pts[:, 1] - pts[:, 2]
    u = 0.2 * np.sum((pts - 0.4) ** 2, axis=1) + 0.05 * np.sin(phase)
    c = np.array([2.0, 1.0, -1.0])
    grad = 0.4 * (pts.T - 0.4) + 0.05 * np.cos(phase) * c[:, None]
    hess = -0.05 * np.sin(phase) * np.outer(c, c)[..., None]
    hess = hess + 0.4 * np.eye(3)[..., None]
    esp = sigma_all(eigenvalues(conformal_tensor(grad, hess)))
    return u, grad, hess, esp[:, k] * np.exp(-2 * k * u)


def dense_stencils(n, h):
    """uniform_d1 and uniform_d2 on n nodes of spacing h, written entry by
    entry into dense arrays: centred rows (-1/2, 0, 1/2)/h and (1, -2, 1)/h^2,
    one-sided end rows (-3/2, 2, -1/2)/h and (2, -5, 4, -1)/h^2, mirrored
    (the first with its sign flipped) at the last node."""
    d1, d2 = np.zeros((n, n)), np.zeros((n, n))
    for i in range(1, n - 1):
        d1[i, i - 1], d1[i, i + 1] = -0.5 / h, 0.5 / h
        d2[i, i - 1], d2[i, i], d2[i, i + 1] = (1.0 / h**2, -2.0 / h**2,
                                                1.0 / h**2)
    d1[0, :3] = [-1.5 / h, 2.0 / h, -0.5 / h]
    d1[-1, -3:] = [0.5 / h, -2.0 / h, 1.5 / h]
    d2[0, :4] = [2.0 / h**2, -5.0 / h**2, 4.0 / h**2, -1.0 / h**2]
    d2[-1, -4:] = [-1.0 / h**2, 4.0 / h**2, -5.0 / h**2, 2.0 / h**2]
    return d1, d2


def csr_arrays(D):
    """(indptr, indices, data) of the nonzeros of a dense matrix, rows in
    order and columns ascending within each row."""
    rows, cols = np.nonzero(D)
    return (np.searchsorted(rows, np.arange(D.shape[0] + 1)), cols,
            D[rows, cols])


def kron_lift(counts, op, axis):
    """A 1-d operator on the given axis of a box with these node counts,
    lifted to all nodes (C order) by Kronecker products."""
    out = sp.identity(1)
    for a, n in enumerate(counts):
        out = sp.kron(out, op if a == axis else sp.identity(n))
    return out.tocsr()


def box_homotopy_tensor(grid, u, rho, t, lam, scale):
    """W_t at the interior nodes of a box, node-major (n_inner, m, m), with
    no solver code: the derivatives from the 1-d stencils of domains lifted
    to the box by Kronecker products (mixed ones as products D1[a] D1[b]),
    the tensor from the formula of conformal_ops on whole node stacks.
    rho is node-major (n, m, m) on every node, lam the anchor."""
    m, counts = grid.m, grid.counts
    rows = ~grid.boundary
    D1 = [kron_lift(counts, uniform_d1(n, h), a)
          for a, (n, h) in enumerate(zip(counts, grid.spacing))]
    grad = np.stack([(D @ u)[rows] for D in D1], axis=1)
    hess = np.empty((grad.shape[0], m, m))
    for a, (n, h) in enumerate(zip(counts, grid.spacing)):
        hess[:, a, a] = (kron_lift(counts, uniform_d2(n, h), a) @ u)[rows]
        for b in range(a + 1, m):
            hess[:, a, b] = hess[:, b, a] = (D1[a] @ (D1[b] @ u))[rows]
    eye = np.eye(m)
    lap = np.trace(hess, axis1=1, axis2=2)
    g2 = np.sum(grad * grad, axis=1)
    conf = ((m - 2) * (hess - np.einsum("ia,ib->iab", grad, grad))
            + ((m - 2) * g2 + lap)[:, None, None] * eye)
    return (1.0 - t) * lam * eye + (t * rho[rows] + conf) / scale


def background_prescale(g, rho):
    """max(1, largest eigenvalue of g^{-1} rho over the nodes), by the
    symmetric reduction L^{-1} rho L^{-T} of the generalized eigenproblem
    rho v = lam g v, with g = L L^T the Cholesky factor at each node."""
    Li = np.linalg.inv(np.linalg.cholesky(g))
    A = Li @ rho @ np.swapaxes(Li, -1, -2)
    return max(1.0, float(np.linalg.eigvalsh(A)[:, -1].max()))


def complete_bracket(m, k, r, r0=0.0):
    """Closed-form (lower, upper) bounds on the complete sigma_k solution
    of a flat ball (r0 = 0) or annulus r0 < |x| < 1 in R^m, rhs factor and
    scale 1, at nodes of radius r strictly inside.

    A smaller domain has a larger complete solution (the comparison
    principle of the exhaustion), and the ball of radius R has the
    solution c - ln(R (1 - |y|^2 / R^2)) about its centre, with
    c = ln 2 + ln(m - 1) / 2 + ln C(m, k) / (2k).  So the ball of radius
    d(x) about x, inside the domain, gives the upper bound c - ln d(x), and
    the unit ball, which holds the domain, the lower bound
    c - ln(1 - |x|^2)."""
    r = np.asarray(r, dtype=float)
    d = 1.0 - r if r0 == 0.0 else np.minimum(1.0 - r, r - r0)
    c = log(2.0) + 0.5 * log(m - 1) + log(comb(m, k)) / (2.0 * k)
    return c - np.log1p(-r * r), c - np.log(d)
