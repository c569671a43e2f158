"""Elementary symmetric functions, Newton transformations and Garding cones.

Everything here is pointwise linear algebra on small symmetric matrices or
eigenvalue vectors, one at a time or stacked one per node.  The batched
conformal kernel (conformal_ops) takes its Newton transforms from here and
the grid solvers their sigma_j; the collocation oracle uses only the
checked sigma_all.
"""

from math import comb

import numpy as np

__all__ = [
    "sigma_k",
    "sigma_all",
    "sigma_all_matrix",
    "newton_transform",
    "sigma_all_batch",
    "cone_contains",
    "cone_margin",
    "maclaurin_ratios",
]


def _as_vector(lam):
    lam = np.asarray(lam, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("eigenvalue vector must be 1-d and nonempty")
    if not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalue vector must be finite")
    return lam


def sigma_all(lam):
    """All elementary symmetric polynomials e_0..e_m of the entries of lam.

    lam is one eigenvalue vector or an (..., m) stack of them, one vector
    per node; returns an (..., m+1) array.  Checked: lam must be at least
    1-d with a nonempty last axis and finite entries, else ValueError.
    Uses the stable one-root-at-a-time recurrence (polynomial expansion),
    which is exact for integer inputs up to rounding.  The root axis is
    swapped to the front of a contiguous copy, so each update is one pass
    over all nodes; every entry sees the same operations in the same
    order as a row-by-row evaluation.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.ndim < 1 or lam.shape[-1] < 1:
        raise ValueError("eigenvalue vector must be at least 1-d and nonempty")
    if not np.isfinite(lam).all():
        raise ValueError("eigenvalue vector must be finite")
    m = lam.shape[-1]
    roots = np.ascontiguousarray(np.swapaxes(lam, -1, 0))
    e = np.zeros((m + 1,) + roots.shape[1:])
    e[0] = 1.0
    for x in roots:
        # e_j <- e_j + x * e_{j-1} for all j, from the old e_{j-1}
        e[1:] = e[1:] + x * e[:-1]
    return np.swapaxes(e, 0, -1)


def sigma_k(lam, k):
    """k-th elementary symmetric polynomial of the eigenvalue vector lam."""
    lam = _as_vector(lam)
    m = lam.size
    if not 1 <= k <= m:
        raise ValueError(f"order k={k} out of range 1..{m}")
    return sigma_all(lam)[k]


def sigma_all_matrix(W, kmax):
    """sigma_0..sigma_kmax of the eigenvalues of each matrix in a stack.

    W is an (..., m, m) array; returns an (..., kmax+1) array.  Newton's
    identities on the power traces p_j = tr(W^j),

        j e_j = sum_{i=1..j} (-1)^(i-1) e_{j-i} p_i,

    are basis free: no eigendecomposition, hence robust near repeated
    spectra.  The error is normwise, of order eps |W|^j per e_j.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[-1]
    if W.shape[-2:] != (m, m):
        raise ValueError("W must be a stack of square matrices")
    if not 0 <= kmax <= m:
        raise ValueError(f"order kmax={kmax} out of range 0..{m}")
    # p[i - 1] = tr(W^i)
    p = [np.trace(W, axis1=-2, axis2=-1)]
    Wp = W
    for _ in range(1, kmax):
        Wp = Wp @ W
        p.append(np.trace(Wp, axis1=-2, axis2=-1))
    e = np.zeros(W.shape[:-2] + (kmax + 1,))
    e[..., 0] = 1.0
    for j in range(1, kmax + 1):
        s = 0.0
        for i in range(1, j + 1):
            s = s + (-1) ** (i - 1) * e[..., j - i] * p[i - 1]
        e[..., j] = s / j
    return e


def newton_transform(W, k):
    """Newton transformation T_k(W) = sigma_k(W) I - T_{k-1}(W) W, T_0 = I.

    W is one m x m matrix or an (..., m, m) stack, transformed matrix by
    matrix.  Satisfies tr(T_{k-1}(W) W) = k sigma_k(W); T_{k-1} supplies
    the elliptic coefficients of the linearized sigma_k operator.
    """
    W = np.asarray(W, dtype=float)
    m = W.shape[-1]
    if W.ndim < 2 or W.shape[-2] != m:
        raise ValueError("W must be square")
    if not 0 <= k <= m - 1:
        raise ValueError(f"order k={k} out of range 0..{m - 1}")
    e = sigma_all_matrix(W, k)
    eye = np.eye(m)
    T = np.broadcast_to(eye, W.shape).copy()
    for j in range(1, k + 1):
        T = e[..., j, None, None] * eye - T @ W
    return T


def cone_margin(lam, k):
    """min_{1<=j<=k} sigma_j(lam); positive iff lam is in the Gamma_k+ cone."""
    lam = _as_vector(lam)
    if not 1 <= k <= lam.size:
        raise ValueError(f"order k={k} out of range 1..{lam.size}")
    return float(np.min(sigma_all(lam)[1 : k + 1]))


def cone_contains(lam, k):
    """Gamma_k+ membership test: sigma_j(lam) > 0 for all j <= k.

    Returns (contained, margin) where margin = min_j sigma_j(lam).
    """
    margin = cone_margin(lam, k)
    return margin > 0.0, margin


def sigma_all_batch(lams):
    """e_0..e_m along the last axis of an (..., m) array, unchecked.

    Returns an (..., m+1) array; used by the grid solvers where sigma_j is
    needed at every node at once.  The same recurrence and node-contiguous
    layout as sigma_all, kept separate so that the collocation oracle
    shares no code with the solvers, and without its checks: non-finite
    entries give non-finite sigma_j instead of an error, and a solver's
    line search rejects the trial point by its cone margin or residual.
    """
    lams = np.asarray(lams, dtype=float)
    m = lams.shape[-1]
    roots = np.ascontiguousarray(np.swapaxes(lams, -1, 0))
    e = np.zeros((m + 1,) + roots.shape[1:])
    e[0] = 1.0
    for x in roots:
        e[1:] = e[1:] + x * e[:-1]
    return np.swapaxes(e, 0, -1)


def maclaurin_ratios(lam, k):
    """MacLaurin ratios r_j = (sigma_j / C(m,j))^(1/j), j = 1..k.

    Nonincreasing in j on Gamma_k+, with equality of r_1 and r_k only at
    constant vectors.
    """
    lam = _as_vector(lam)
    m = lam.size
    contained, _ = cone_contains(lam, k)
    if not contained:
        raise ValueError("lam is not in Gamma_k+; MacLaurin ratios undefined")
    e = sigma_all(lam)
    return np.array([(e[j] / comb(m, j)) ** (1.0 / j) for j in range(1, k + 1)])
