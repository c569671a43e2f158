"""Elementary symmetric functions, Newton transformations and Garding cones.

Everything here is pointwise linear algebra on small symmetric matrices or
eigenvalue vectors, one at a time or stacked one per node.  sigma_newton is
the one kernel for matrix stacks: the box solver takes sigma_j of W_t and
the Newton transform its Jacobian needs from one pass.  The radial solver
takes sigma_j of its eigenvalue stacks from sigma_all_batch; the
collocation oracle uses only the checked sigma_all.
"""

from math import comb

import numpy as np

__all__ = [
    "sigma_k",
    "sigma_all",
    "sigma_newton",
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


def sigma_newton(W, k):
    """sigma_0..sigma_k and the Newton transform T_{k-1} of each matrix in
    a component-major stack, in one Faddeev-LeVerrier pass:

        T_0 = I,  sigma_j = tr(T_{j-1} W) / j,  T_j = sigma_j I - T_{j-1} W.

    W is an (m, m, *nodes) array, matrix indices first, and 1 <= k <= m;
    returns (e, T) with e the (k+1, *nodes) array of sigma_0..sigma_k and
    T = T_{k-1}, (m, m, *nodes).  The recursion is basis free: no
    eigendecomposition, hence robust near repeated spectra, with an error
    of order eps |W|^j per sigma_j.  tr(T_{k-1} W) = k sigma_k, and
    T_{k-1} supplies the elliptic coefficients of the linearized sigma_k
    operator; T_0 is a read-only broadcast of I.
    """
    W = np.asarray(W, dtype=float)
    m = len(W)
    if W.shape[:2] != (m, m):
        raise ValueError("W must be a stack of square matrices")
    if not 1 <= k <= m:
        raise ValueError(f"order k={k} out of range 1..{m}")
    e = np.empty((k + 1,) + W.shape[2:])
    e[0] = 1.0
    e[1] = np.trace(W)
    T = np.broadcast_to(np.eye(m).reshape((m, m) + (1,) * (W.ndim - 2)),
                        W.shape)
    for j in range(2, k + 1):
        T = -(W if j == 2 else np.einsum("ac...,cb...->ab...", T, W))
        for a in range(m):
            T[a, a] += e[j - 1]
        # tr(T_{j-1} W) from the diagonal of the product alone
        e[j] = np.einsum("ac...,ca...->a...", T, W).sum(axis=0) / j
    return e, T


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
