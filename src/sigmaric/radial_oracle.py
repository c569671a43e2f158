"""High-accuracy radial ground truth.

Contains the exact scaled-Einstein solutions on the unit ball, the radial
reduction of the homotopy tensor on flat backgrounds, and a Chebyshev
collocation solver for the radial boundary-value problem with damped Newton
and parameter continuation.  The collocation solver is the independent
oracle the finite-difference continuation solver is checked against, so it
shares no discretization machinery with it.
"""

from dataclasses import dataclass, field as dc_field
from math import comb, log
from numbers import Integral

import numpy as np

from .symfun import sigma_all

__all__ = [
    "RadialProfile",
    "BvpFailure",
    "radial_eigenvalues",
    "sigma_pair",
    "einstein_exact",
    "einstein_exact_radial",
    "einstein_boundary_constant",
    "bvp_solve",
]

_EPS = np.finfo(float).eps
_MAX_NEWTON = 60  # Newton iterations per continuation step
# step control: above _STEP_FLOOR a try whose line search must damp below
# _MIN_DAMPING fails at once, and an accepted try of at most _FAST_ITERS
# Newton iterations doubles the step
_STEP_FLOOR = 1e-3
_MIN_DAMPING = 0.25
_FAST_ITERS = 4


class BvpFailure(RuntimeError):
    """Raised when the collocation Newton iteration fails to converge."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


@dataclass
class RadialProfile:
    """Radial solution samples w, w', w'' at collocation nodes.

    trace holds one (t, iterations, residual, rule) entry per accepted
    continuation step; see bvp_solve for the stopping rules.
    """

    r: np.ndarray
    w: np.ndarray
    dw: np.ndarray
    d2w: np.ndarray
    trace: list = dc_field(default_factory=list)

    def interp(self, r_eval):
        """Barycentric evaluation of the collocation polynomial."""
        return _barycentric(self.r, self.w, np.asarray(r_eval, dtype=float))


def radial_eigenvalues(w, dw, d2w, r, t, k, m, rhs_scale=1.0):
    """Radial and tangential eigenvalues of g^{-1} W_t for radial w, flat g.

    lambda_rad = (1-t) lam + (m-1)(w'' + w'/r),
    lambda_tan = (1-t) lam + w'' + (2m-3) w'/r + (m-2) w'^2,
    where lam is the t = 0 anchor.  At r = 0 the removable w'/r is replaced
    by its limit w''(0); this requires the regularity condition w'(0) = 0.
    """
    w, dw, d2w, r = np.broadcast_arrays(
        np.asarray(w, float), np.asarray(dw, float),
        np.asarray(d2w, float), np.asarray(r, float),
    )
    if np.any(r < 0):
        raise ValueError("r must be nonnegative")
    at_origin = r == 0.0
    if np.any(at_origin) and np.any(np.abs(dw[at_origin]) > 1e-12):
        raise ValueError("r = 0 requires the regularity condition w'(0) = 0")
    return _eigen_pair(dw, d2w, r, t, k, m, rhs_scale)


def _eigen_pair(dw, d2w, r, t, k, m, rhs_scale):
    """radial_eigenvalues without its input checks."""
    anchor = (rhs_scale / comb(m, k)) ** (1.0 / k)
    at_origin = r == 0.0
    inv_r = np.where(at_origin, 0.0, 1.0 / np.where(at_origin, 1.0, r))
    dw_over_r = np.where(at_origin, d2w, dw * inv_r)
    base = (1.0 - t) * anchor
    lam_rad = base + (m - 1) * (d2w + dw_over_r)
    lam_tan = base + d2w + (2 * m - 3) * dw_over_r + (m - 2) * dw**2
    return lam_rad, lam_tan


def sigma_pair(a, b, k, m):
    """sigma_k of the multiset {a x1, b x(m-1)}.

    Closed form: C(m-1, k) b^k + C(m-1, k-1) a b^{k-1}.
    """
    out = comb(m - 1, k) * b**k if k <= m - 1 else np.zeros_like(b)
    return out + comb(m - 1, k - 1) * a * b ** (k - 1)


def _sigma_pair_margin(a, b, k, m):
    """min over j <= k of sigma_j({a, b x (m-1)})."""
    lams = np.stack([a] + [b] * (m - 1), axis=-1)
    return sigma_all(lams)[..., 1 : k + 1].min(axis=-1)


def einstein_boundary_constant(m, k):
    """Limit of w* + ln(r) at the boundary of the unit ball.

    Equals (1/2) ln(m-1) + (1/2k) ln C(m,k); the second term vanishes only
    for k = m.
    """
    return 0.5 * log(m - 1) + log(comb(m, k)) / (2.0 * k)


def einstein_exact(m, k, x):
    """Exact solution of the complete sigma_k problem on the unit ball.

    w*(x) = -ln(1-|x|^2) + ln 2 + (1/2) ln(m-1) + (1/2k) ln C(m,k); the
    metric e^{2 w*} delta is the suitably scaled hyperbolic metric.
    """
    x = np.asarray(x, dtype=float)
    s2 = np.sum(x * x, axis=-1) if x.ndim else x * x
    return einstein_exact_radial(m, k, np.sqrt(s2))


def einstein_exact_radial(m, k, s, derivatives=False):
    """einstein_exact as a function of s = |x| < 1, optionally with w', w''."""
    s = np.asarray(s, dtype=float)
    if np.any(s >= 1.0):
        raise ValueError("einstein_exact is defined on the open unit ball")
    c = log(2.0) + 0.5 * log(m - 1) + log(comb(m, k)) / (2.0 * k)
    w = -np.log1p(-(s * s)) + c
    if not derivatives:
        return w
    q = 1.0 - s * s
    dw = 2.0 * s / q
    d2w = 2.0 / q + 4.0 * s * s / q**2
    return w, dw, d2w


def _cheb_nodes_and_diff(n):
    """Chebyshev-Gauss-Lobatto points on [-1, 1] and differentiation matrix."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    X = np.tile(x, (n + 1, 1)).T
    dX = X - X.T + np.eye(n + 1)
    D = np.outer(c, 1.0 / c) / dX
    D -= np.diag(D.sum(axis=1))
    return x, D


def _barycentric(xn, yn, xe):
    n = xn.size - 1
    wgt = np.ones(n + 1)
    wgt[0] = wgt[-1] = 0.5
    wgt *= (-1.0) ** np.arange(n + 1)
    d = xe[..., None] - xn
    hit = np.argmin(np.abs(d), axis=-1)
    nearest = np.take_along_axis(d, hit[..., None], axis=-1)[..., 0]
    at_node = np.abs(nearest) < 1e-14
    # rows that hit a node are masked out of both divisions; d is reused
    # for the weights so that no second (points, nodes) array is held
    d[at_node] = 1.0
    t = np.divide(wgt, d, out=d)
    den = np.where(at_node, 1.0, t.sum(axis=-1))
    return np.where(at_node, yn[hit], (t @ yn) / den)


def bvp_solve(r0, r1, m, k, j1, j0=None, rhs_scale=1.0, n=96, tol=1e-10):
    """Radial sigma_k Dirichlet solve by Chebyshev collocation.

    Solves sigma_k({lam_rad, lam_tan x (m-1)}) = rhs_scale e^{2kw} on
    [r0, r1] with w(r1) = j1 and, on annuli, w(r0) = j0; on balls (r0 = 0)
    the regularity condition w'(0) = 0 replaces the inner datum.  The
    nonlinear collocated system is solved by damped Newton with continuation
    first in the homotopy parameter t and then in the boundary data.  Each
    continuation step after the first of its phase starts Newton from the
    secant predictor through the last two accepted points (s0, w0) and
    (s1, w1), w1 + (s_try - s1) / (s1 - s0) (w1 - w0), or from w1 when that
    guess leaves the Garding cone, so Newton always starts admissible.

    tol is a target for the max-norm of the row-scaled residual, not a
    guarantee.  Forming D2 @ w alone leaves a rounding floor of about
    eps ||D2||_inf ~ eps n^4 (4/3) / (r1 - r0)^2, which grows like n^4: on
    an interval of width 1/2 it passes 1e-10 near n = 17 and reaches 1e-7
    at n = 96.  Each Newton solve stops by the first of these rules, named
    in the last field of its trace entry (t, iterations, residual, rule),
    where t runs over (0, 1] for the homotopy and 1 + s for the data ramp:

    - ``residual``: the residual is at most tol;
    - ``increment``: the Newton increment h has ||h||_inf <= 1e-9 (1 +
      ||w||_inf), w + h is admissible, and its residual is at most the
      floor eps ||J||_inf (1 + ||w||_inf); w + h is accepted;
    - ``damping-floor``: no damped step lowers the residual and it is
      already at most max(100 tol, 1e-5); w is accepted.

    A Newton solve that stops by none of them within _MAX_NEWTON iterations,
    or whose damping underflows above that bound, fails.  While the
    continuation step is above _STEP_FLOOR, a solve whose line search must
    damp below _MIN_DAMPING fails at once instead of crawling (Deuflhard,
    Newton Methods for Nonlinear Problems, 2004); at or below the floor it
    runs as above.  A failure halves the step and retries, predicting again
    from the same two points, and raises BvpFailure, carrying the trace of
    the accepted steps, once the step falls below 1e-6.  An accepted step
    of at most _FAST_ITERS Newton iterations doubles the step, and after
    every accepted step the step is cut to the rest of its phase, so a
    halved retry never repeats the end point.
    """
    for name, value in (("m", m), ("n", n)):
        if not isinstance(value, Integral) or value < 2:
            raise ValueError(f"{name} must be an integer >= 2, got {value!r}")
    if not isinstance(k, Integral) or not 1 <= k <= m:
        raise ValueError(f"k must be an integer in 1..m = {m}, got {k!r}")
    for name, value in (("r0", r0), ("r1", r1), ("j1", j1), ("j0", j0)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if not (np.isfinite(rhs_scale) and rhs_scale > 0):
        raise ValueError(
            f"rhs_scale must be finite and > 0, got {rhs_scale!r}")
    if r0 < 0 or r1 <= r0:
        raise ValueError("need 0 <= r0 < r1")
    is_ball = r0 == 0.0
    if not is_ball and j0 is None:
        raise ValueError("annulus solves need the inner boundary datum j0")
    xi, Dxi = _cheb_nodes_and_diff(n)
    # map [-1, 1] onto [r0, r1] with index 0 at the outer boundary
    r = r0 + (r1 - r0) * (1.0 + xi) / 2.0
    D = Dxi * (2.0 / (r1 - r0))
    D2 = D @ D
    w = np.zeros(n + 1)
    trace = []

    def newton(t, b1, b0, w, reject_early):
        s_min = _MIN_DAMPING if reject_early else 1e-8
        for it in range(_MAX_NEWTON):
            F, J = _collocation_system(
                w, r, D, D2, t, k, m, rhs_scale, b1, b0, is_ball
            )
            res = np.max(np.abs(F))
            if res <= tol:
                return w, it, res, "residual"
            h = np.linalg.solve(J, -F)
            w_norm = np.max(np.abs(w))
            # at the rounding floor of J @ w the residual is noise and the
            # Newton increment is the honest convergence measure; bounding
            # the new residual by that floor keeps a small increment from
            # certifying a large residual
            if np.max(np.abs(h)) <= 1e-9 * (1.0 + w_norm):
                floor = _EPS * np.linalg.norm(J, np.inf) * (1.0 + w_norm)
                ok, res_new = _admissible_residual(
                    w + h, r, D, D2, t, k, m, rhs_scale, b1, b0, is_ball
                )
                if ok and res_new <= floor:
                    return w + h, it + 1, res_new, "increment"
            s = 1.0
            while s >= s_min:
                w_new = w + s * h
                ok, res_new = _admissible_residual(
                    w_new, r, D, D2, t, k, m, rhs_scale, b1, b0, is_ball
                )
                if ok and (res_new < res or res_new <= tol):
                    break
                s *= 0.5
            else:
                if reject_early:
                    raise BvpFailure(f"damping below {s_min} at t={t:.4f}",
                                     trace)
                # backtracking found no descent direction: the iterate sits
                # at the floor set by conditioning of the dense collocation
                # system (or, for steep boundary layers, by the resolution).
                # Accept it if the residual is already small, under its own
                # rule name so that an acceptance above tol stays visible.
                if res <= max(100.0 * tol, 1e-5):
                    return w, it, res, "damping-floor"
                raise BvpFailure(
                    f"damping underflow at t={t:.4f}, residual {res:.2e}",
                    trace,
                )
            w = w_new
        raise BvpFailure(f"Newton stagnated at t={t:.4f}", trace)

    # continuation in t with the anchor boundary data 0, then a ramp of
    # the boundary data at t = 1; (t, b1, b0) at s in (0, 1]
    phases = ((0.0, lambda s: (s, 0.0, 0.0)),
              (1.0, lambda s: (1.0, s * j1, s * (j0 or 0.0))))
    for offset, data in phases:
        s, step = 0.0, 0.25
        prev = None  # the accepted point before (s, w), once there is one
        while s < 1.0:
            s_try = min(1.0, s + step)
            t, b1, b0 = data(s_try)
            start = w
            if prev is not None:
                guess = w + (s_try - s) / (s - prev[0]) * (w - prev[1])
                if _admissible_residual(guess, r, D, D2, t, k, m, rhs_scale,
                                        b1, b0, is_ball)[0]:
                    start = guess
            try:
                w_new, its, res, rule = newton(t, b1, b0, start,
                                               step > _STEP_FLOOR)
            except BvpFailure:
                step *= 0.5
                if step < 1e-6:
                    raise
                continue
            prev, w, s = (s, w), w_new, s_try
            trace.append((offset + s, its, res, rule))
            if its <= _FAST_ITERS:
                step *= 2.0
            step = min(step, 1.0 - s)
    dw, d2w = D @ w, D2 @ w
    order = np.argsort(r)
    return RadialProfile(
        r[order], w[order], dw[order], d2w[order], trace
    )


def _collocation_system(w, r, D, D2, t, k, m, rhs_scale, b1, b0, is_ball):
    dw, d2w = D @ w, D2 @ w
    a, b = _eigen_pair(dw, d2w, r, t, k, m, rhs_scale)
    e2kw = np.exp(2.0 * k * w)
    F = sigma_pair(a, b, k, m) - rhs_scale * e2kw
    # row scaling: keeps the residual tolerance meaningful when the
    # right-hand side e^{2kw} spans many orders of magnitude
    scale = 1.0 + rhs_scale * e2kw
    # dF = sa * da + sb * db - 2k rhs e^{2kw} dw_coeff
    sa = comb(m - 1, k - 1) * b ** (k - 1)
    sb = (
        comb(m - 1, k) * k * b ** (k - 1) if k <= m - 1 else np.zeros_like(b)
    )
    if k >= 2:
        sb = sb + comb(m - 1, k - 1) * (k - 1) * a * b ** (k - 2)
    at_origin = r == 0.0
    inv_r = np.where(at_origin, 0.0, 1.0 / np.where(at_origin, 1.0, r))
    over_r_op = inv_r[:, None] * D
    over_r_op[at_origin] = D2[at_origin]
    da = (m - 1) * (D2 + over_r_op)
    db = (
        D2
        + (2 * m - 3) * over_r_op
        + 2 * (m - 2) * dw[:, None] * D
    )
    J = sa[:, None] * da + sb[:, None] * db
    J -= np.diag(2.0 * k * rhs_scale * e2kw)
    F = F / scale
    J = J / scale[:, None]
    # boundary rows: r is descending from r1 at index 0 to r0 at index -1
    F[0] = w[0] - b1
    J[0] = 0.0
    J[0, 0] = 1.0
    if is_ball:
        F[-1] = dw[-1]
        J[-1] = D[-1]
    else:
        F[-1] = w[-1] - b0
        J[-1] = 0.0
        J[-1, -1] = 1.0
    return F, J


def _admissible_residual(w, r, D, D2, t, k, m, rhs_scale, b1, b0, is_ball):
    dw, d2w = D @ w, D2 @ w
    a, b = _eigen_pair(dw, d2w, r, t, k, m, rhs_scale)
    # a trial point that overflows is rejected like one outside the cone,
    # so that the line search halves its step
    if not (np.isfinite(w).all() and np.isfinite(a).all()
            and np.isfinite(b).all()):
        return False, np.inf
    if np.any(_sigma_pair_margin(a, b, k, m) <= 0.0):
        return False, np.inf
    e2kw = np.exp(2.0 * k * w)
    F = (sigma_pair(a, b, k, m) - rhs_scale * e2kw) / (1.0 + rhs_scale * e2kw)
    F[0] = w[0] - b1
    F[-1] = dw[-1] if is_ball else w[-1] - b0
    return True, np.max(np.abs(F))
