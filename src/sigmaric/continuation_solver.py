"""Damped Newton continuation for the sigma_k-Ricci problem.

Dirichlet solves run a homotopy from the constant anchor equation (t = 0)
to the target equation (t = 1), with adaptive t-stepping and a second
homotopy ramping boundary data (and any manufactured right-hand factor)
once t reaches 1.  Complete metrics are produced by exhaustion: Dirichlet
solves with boundary constants j = 2, 4, ... on one path follower (or
warm-started from another order's rungs), stopped when the solution
stabilizes on a compact core, then an asymptotics fit of u + ln(distance).

Two discretizations share the Newton core and one Newton system, _Disc
(the residual rows, cone margin and Jacobian weights around sigma_k):
graded radial grids (the axisymmetric reduction, second-order mapped
stencils, sparse LU on Jacobians filled into the pattern of the
parameter-space second-difference stencil) and uniform boxes (centered
differences on slices of the node array at the PDE rows, sigma_j and the
Newton transform from one Faddeev-LeVerrier pass).  Box Jacobians are
never assembled: GMRES, preconditioned by the fast diagonalization
method, sees only their products and solves each Newton step only to an
Eisenstat-Walker forcing term (inexact Newton-Krylov, Knoll & Keyes
2004).  Boxes build W_t and the Jacobian coefficients with the batched
kernel of conformal_ops, which the oracle tests check, component-major
(matrix indices first, interior axes last) and straight off the
derivative slices; radial grids reduce W_t to its two distinct
eigenvalues.  Both take their anchor
from conformal_ops and sigma_j from symfun.  The independent Chebyshev
collocation oracle lives in radial_oracle and shares nothing with this
module.

Each iterate is evaluated once: the residual returns what it built
besides F, the line search returns that with the point it accepts, and
the Jacobian takes it.  Nothing is kept on a discretization, and Newton
never changes an iterate in place.
"""

from dataclasses import dataclass, field as dc_field
from math import comb, log

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import splu

from .conformal_ops import anchor, homotopy_tensor, linear_coefficients
from .domains import (
    BackgroundMetric,
    BoxGrid,
    FastDiag,
    RadialGrid,
    ScalarField,
    boundary_distance,
    box_derivative_operators,
    nodal_values,
    uniform_d1,
    uniform_d2,
)
from .symfun import sigma_all_batch, sigma_newton

__all__ = [
    "SolveConfig",
    "HomotopyState",
    "ContinuationFailure",
    "InvariantViolation",
    "solve_dirichlet",
    "solve_complete",
    "complete_grading",
]


class ContinuationFailure(RuntimeError):
    """Continuation step underflow or unrecoverable Newton failure."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace or []


class InvariantViolation(RuntimeError):
    """A structural property (e.g. exhaustion monotonicity) failed."""


# How the solutions are computed, not part of the problem.
T_STEP_INIT = 0.25  # first and largest continuation step
ETA_MAX = 0.1  # first and largest forcing term of a box Krylov solve
ETA_GAMMA = 0.9  # eta_k = ETA_GAMMA (|F_k| / |F_{k-1}|)^2
ETA_MIN = 1e-10  # least forcing term
MAX_NEWTON = 40  # Newton iterations per continuation step
CONE_MARGIN_MIN = 1e-12  # least min_j sigma_j an accepted iterate keeps
CORE_CUT_FRAC = 0.05  # the core: distance >= CORE_CUT_FRAC * diameter
CORE_TOL = 1e-6  # core change at which the exhaustion rungs stop
J_STEP = 2.0  # boundary constant of the first rung and step between rungs
MAX_RUNGS = 40  # exhaustion rungs after the first


@dataclass
class SolveConfig:
    """One problem: domain (grid), background metric, order k, boundary
    data, the right-hand side rhs_scale * rhs_factor * e^{2ku}, and the
    residual tolerance.  solve_dirichlet takes the boundary data;
    solve_complete ignores it (the data are infinite)."""

    grid: object
    background: BackgroundMetric
    k: int
    boundary_data: object = 0.0
    tol_residual: float = 1e-10
    rhs_scale: float = 1.0
    rhs_factor: object = None

    def __post_init__(self):
        for key in ("rhs_scale", "tol_residual"):
            if not 0 < getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be finite and positive")
        if not 1 <= self.k <= self.grid.m:
            raise ValueError("need 1 <= k <= m")


@dataclass
class HomotopyState:
    """Converged solver state with its trace; complete solves add rungs."""

    u: ScalarField
    cone_margin: float
    residual_norm: float
    trace: list = dc_field(default_factory=list)
    background_scale: float = 1.0
    asymptotics: dict = None
    rungs: list = None


def _boundary_values(grid, data):
    """Full-length array carrying the boundary data at boundary nodes:
    a nodal field (domains.nodal_values) or one value per boundary node."""
    mask = grid.boundary
    if np.shape(data) == (np.count_nonzero(mask),):
        data, on_boundary = np.zeros(grid.n), data
        data[mask] = on_boundary
    return np.where(mask, nodal_values(grid, data, "boundary data"), 0.0)


def _rhs_factor_values(grid, factor):
    vals = nodal_values(grid, factor, "rhs factor", default=1.0)
    if not np.all(vals > 0):
        raise ValueError("rhs factor must be positive")
    return vals


# ---------------------------------------------------------------------------
# discretizations


class _Disc:
    """The Newton system around sigma_k, shared by both discretizations.

    PDE rows hold (sigma_k(W_t) - rhs) / (1 + rhs), rhs = rhs_scale f
    e^{2ku}, and boundary rows u - bc; the cone margin is min sigma_j
    (1 <= j <= k) over PDE rows.  The subclass's _sigma(u, t) returns
    sigma_k at every row, that margin and what it built; residual returns
    the build, and jacobian takes it back: the subclass's _operator weights
    its rows by w = 1/(1 + rhs) at PDE rows and adds the zero-order term
    c0 = bmask - 2k rhs w.  That is the derivative of w(u0) (sigma_k - rhs),
    the weight frozen at the iterate u0, exact only where F = 0; adding the
    dropped -2k rhs w F measured 520 -> 549 Newton iterations on the cold
    n = 384 ball family.  A subclass also sets bg_scale (c >= 1 with
    c g >= rho), h_min and diameter.
    """

    def __init__(self, config):
        self.grid = config.grid
        self.m = config.grid.m
        self.k = config.k
        self.rhs_scale = config.rhs_scale
        self.anchor = anchor(self.m, self.k, config.rhs_scale)
        self.bmask = config.grid.boundary
        self.pde = ~self.bmask

    def _rhs(self, u, fvals):
        return self.rhs_scale * fvals * np.exp(2.0 * self.k * u)

    def residual(self, u, t, bc, fvals):
        sigma_k, margin, built = self._sigma(u, t)
        rhs = self._rhs(u, fvals)
        F = (sigma_k - rhs) / (1.0 + rhs)
        F[self.bmask] = u[self.bmask] - bc[self.bmask]
        return F, margin, built

    def jacobian(self, u, fvals, built):
        rhs = self._rhs(u, fvals)
        w = self.pde / (1.0 + rhs)
        return self._operator(built, w, self.bmask - 2.0 * self.k * rhs * w)


class _RadialDisc(_Disc):
    """Axisymmetric reduction on a (possibly graded) radial grid.

    The two distinct eigenvalues of g^{-1} W_t for a radial conformal
    factor are

        a = (1-t) anchor + (t rho_r + (m-1)(u'' + c_f u')) / scale,
        b = (1-t) anchor + (t rho_t + u'' + (2m-3) c_f u'
                            + (m-2) u'^2) / scale,

    with c_f = f'/f (= 1/r on flat backgrounds) and rho_r, rho_t the
    radial/tangential eigenvalues of g^{-1} rho, whose largest is the
    prescale; sigma_k is evaluated on the multiset {a, b x (m-1)}.  The
    build is (a, b, u').  On a ball the row at r = 0 is u'(0) = 0.
    D1 = diag(1/r') Dxi1 and D2 = diag(1/r'^2) Dxi2 - diag(r''/r'^3) Dxi1
    are pushed forward from the stencils Dxi1, Dxi2 in the uniform
    parameter xi, so every term the Jacobian combines lies in the pattern
    of Dxi2, where _fill writes it.
    """

    def __init__(self, config):
        super().__init__(config)
        grid = config.grid
        bg = config.background
        n = grid.n
        h = grid.xi_step
        Dxi1 = uniform_d1(n, h)
        Dxi2 = uniform_d2(n, h)
        inv_dr = 1.0 / grid.dr
        self.D1 = (sp.diags(inv_dr) @ Dxi1).tocsr()
        self.D2 = (sp.diags(inv_dr**2) @ Dxi2
                   - sp.diags(grid.d2r * inv_dr**3) @ Dxi1).tocsr()
        r = grid.nodes
        if bg.kind == "flat":
            with np.errstate(divide="ignore"):
                self.cf = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
            self.rho_r = np.zeros(n)
            self.rho_t = np.zeros(n)
        elif bg.kind == "warped":
            f = np.sqrt(bg.g[:, 1, 1])
            self.cf = np.asarray((self.D1 @ np.log(f)))
            self.rho_r = bg.rho[:, 0, 0]
            self.rho_t = bg.rho[:, 1, 1] / bg.g[:, 1, 1]
        else:
            raise TypeError(
                "radial solves support flat and warped backgrounds; "
                "conformally flat ones reduce to flat solves of u + phi"
            )
        self.bg_scale = max(1.0, float(self.rho_r.max()),
                            float(self.rho_t.max()))
        self.h_min = float(np.diff(r).min())
        self.diameter = 2.0 * grid.r1
        self.ball_row = 0 if grid.is_ball else None
        if self.ball_row is not None:
            self.pde[self.ball_row] = False
        # D2, D1 and the identity on the pattern of Dxi2, which holds all
        self.Dxi2 = Dxi2
        self.rows = np.repeat(np.arange(n), np.diff(Dxi2.indptr))
        self.on_pattern = [np.asarray(A[self.rows, Dxi2.indices]).ravel()
                           for A in (self.D2, self.D1, sp.identity(n).tocsr())]

    def _sigma(self, u, t):
        du = self.D1 @ u
        d2u = self.D2 @ u
        base = (1.0 - t) * self.anchor
        c = self.bg_scale
        a = base + (t * self.rho_r + (self.m - 1) * (d2u + self.cf * du)) / c
        b = base + (
            t * self.rho_t
            + d2u
            + (2 * self.m - 3) * self.cf * du
            + (self.m - 2) * du**2
        ) / c
        lam = np.stack([a] + [b] * (self.m - 1), axis=-1)
        esp = sigma_all_batch(lam)
        return esp[:, self.k], esp[self.pde, 1 : self.k + 1].min(), (a, b, du)

    def residual(self, u, t, bc, fvals):
        F, margin, built = super().residual(u, t, bc, fvals)
        if self.ball_row is not None:
            F[self.ball_row] = built[2][self.ball_row]
        return F, margin, built

    def _operator(self, built, w, c0):
        a, b, du = built
        m, k = self.m, self.k
        # d sigma / da and d sigma / db for the multiset {a, b x (m-1)}
        sa = comb(m - 1, k - 1) * b ** (k - 1)
        sb = comb(m - 1, k) * k * b ** (k - 1) if k <= m - 1 else 0.0
        if k >= 2:
            sb = sb + comb(m - 1, k - 1) * (k - 1) * a * b ** (k - 2)
        c = self.bg_scale
        coef2 = (sa * (m - 1) + sb) / c
        coef1 = (
            sa * (m - 1) * self.cf
            + sb * ((2 * m - 3) * self.cf + 2 * (m - 2) * du)
        ) / c
        # w vanishes at non-PDE rows, where the boundary closure
        # (identity, or D1 at the ball row) is added instead
        return self._fill(coef2 * w, coef1 * w, c0)

    def _fill(self, c2, c1, c0):
        """diag(c2) D2 + diag(c1) D1 + diag(c0), with D1 at the ball row
        (where c2 and c1 must vanish), as a CSC matrix with no stored
        zeros, filled on the pattern of Dxi2."""
        if self.ball_row is not None:
            c1 = c1.copy()
            c1[self.ball_row] = 1.0
        J = self.Dxi2.copy()
        J.data = sum(c[self.rows] * vals
                     for c, vals in zip((c2, c1, c0), self.on_pattern))
        J.eliminate_zeros()
        return J.tocsc()


class _BoxDisc(_Disc):
    """Centered differences on a uniform box with a flat background metric.

    g = delta nodewise (rho may be nonzero; the prescale is its top
    eigenvalue); callers turn conformally flat backgrounds into flat solves
    of v = u + phi exactly.  All is formed at the PDE rows only, the
    interior nodes (boundary rows are u - bc), component-major: matrix
    indices first, interior axes last.  The derivatives come as slices of
    the node array (box_derivative_operators, built once), which the
    conformal_ops kernel reads as they are for W_t and the Jacobian's
    (c2, c1); sigma_j(W_t) and the Newton transform T_{k-1}(W_t) come from
    one symfun.sigma_newton pass.  rho is kept, once, only when it is not
    zero.  The build is (T_{k-1}, grad u).  The Jacobian is matrix-free:
    the same derivatives of v, each times its coefficient.
    """

    def __init__(self, config):
        grid = config.grid
        bg = config.background
        # one component at a time: no temporary the size of g
        if not all(np.allclose(bg.g[:, a, b], a == b)
                   for a in range(grid.m) for b in range(grid.m)):
            raise TypeError(
                "box solves need g = delta; reduce conformally flat "
                "backgrounds to flat solves of u + phi first"
            )
        super().__init__(config)
        self.fdm = FastDiag(grid)
        self.rho, self.bg_scale = None, 1.0
        if bg.rho.any():
            self.rho = np.moveaxis(bg.rho[self.pde], 0, -1).reshape(
                (grid.m, grid.m) + self.fdm.lam.shape)
            self.bg_scale = max(1.0, float(np.linalg.eigvalsh(bg.rho).max()))
        self.h_min = float(grid.spacing.min())
        self.diameter = float(np.linalg.norm(grid.hi - grid.lo))
        self.derivatives = box_derivative_operators(grid)

    def _sigma(self, u, t):
        d = self.derivatives(u)
        grad = [d[a,] for a in range(self.m)]
        W = homotopy_tensor(grad, d, self.rho, t, self.anchor, self.bg_scale)
        esp, T = sigma_newton(W, self.k)
        sigma_k = np.zeros(self.fdm.shape)  # F is u - bc there
        sigma_k[self.fdm.interior] = esp[self.k]
        return sigma_k.ravel(), esp[1:].min(), (T, grad)

    def _operator(self, built, w, c0):
        m, inner = self.m, self.fdm.interior
        w = w.reshape(self.fdm.shape)[inner]
        c2, c1 = linear_coefficients(*built, self.bg_scale)
        coefs = {}
        for a in range(m):
            coefs[a,] = c1[a] * w
            for b in range(a, m):
                coefs[a, b] = (1.0 if a == b else 2.0) * c2[a, b] * w
        # leading scale d = w tr(c2)/m is positive on PDE rows inside the
        # cone; the preconditioner divides those rows by it
        scale = w * np.trace(c2) / m
        shift = float(np.mean(c0.reshape(self.fdm.shape)[inner] / scale))
        return _BoxJacobian(c0, coefs, self.derivatives, scale, shift,
                            self.fdm)


@dataclass
class _BoxJacobian:
    """Matrix-free box Jacobian with what its preconditioner needs.

    J v = c0 v + sum_key coefs[key] d[key], d = derivatives(v) the first
    and second differences of v at the PDE rows (the interior box), each
    coefficient shaped like the interior and the sum added into those rows
    once.  scale is the leading scale d = w tr(c2)/m there, shaped like
    the interior; shift the mean c0 / d.
    """

    c0: np.ndarray
    coefs: dict
    derivatives: object
    scale: np.ndarray
    shift: float
    fdm: FastDiag

    def matvec(self, v):
        d = self.derivatives(v)
        pde = np.zeros(self.scale.shape)
        for key, c in self.coefs.items():
            pde += np.multiply(c, d[key], out=d[key])
        out = self.c0 * v
        out.reshape(self.fdm.shape)[self.fdm.interior] += pde
        return out

    def precondition(self, r):
        """Boundary rows are the identity; PDE rows solve
        (sum_a A_a + shift) x = r / d by fast diagonalization."""
        x = r.copy()
        inner = x.reshape(self.fdm.shape)[self.fdm.interior]
        inner[...] = self.fdm.solve(inner / self.scale, self.shift)
        return x


class _PrecondSolver:
    """Linear solver for the Newton steps.

    Radial Jacobians are banded and factor exactly by sparse LU, ignoring
    the forcing term eta.  Box Jacobians are operators: GMRES, preconditioned
    by fast diagonalization, runs to |J x - b|_2 <= eta |b|_2 and retries
    once, warm, unless the true residual meets that or the rounding floor.
    """

    def solve(self, J, b, eta=ETA_MIN):
        if sp.issparse(J):
            return splu(J).solve(b)
        shape = (b.size, b.size)
        A = spla.LinearOperator(shape, matvec=J.matvec, dtype=float)
        M = spla.LinearOperator(shape, matvec=J.precondition, dtype=float)
        floor = 1e-8 * max(1.0, np.max(np.abs(b)))
        x = None
        for _ in range(2):
            x, _ = spla.gmres(A, b, x0=x, M=M, rtol=eta, atol=0.0,
                              restart=100, maxiter=10)
            # judge by the true residual; rounding can keep the internal
            # criterion from being met even after full convergence
            r = J.matvec(x) - b
            if (np.linalg.norm(r) <= eta * np.linalg.norm(b)
                    or np.max(np.abs(r)) <= floor):
                break
        return x


def _make_disc(config):
    if isinstance(config.grid, RadialGrid):
        return _RadialDisc(config)
    if isinstance(config.grid, BoxGrid):
        return _BoxDisc(config)
    raise TypeError(f"unsupported grid {type(config.grid)!r}")


# ---------------------------------------------------------------------------
# Newton core


def _line_search(disc, u, h, res, t, bc, fvals, config, s=1.0):
    """Halve the step s from 1 (or the given start) until u + s h stays in
    the cone and lowers the residual (or meets tol); returns (u, F, res,
    margin, built) at the accepted point, or None once s underflows 1e-8."""
    while s >= 1e-8:
        u_new = u + s * h
        F_new, margin_new, built = disc.residual(u_new, t, bc, fvals)
        res_new = np.max(np.abs(F_new))
        if margin_new > CONE_MARGIN_MIN and (
            res_new < res or res_new <= config.tol_residual
        ):
            return u_new, F_new, res_new, margin_new, built
        s *= 0.5
    return None


def _damped_newton(disc, u, t, bc, fvals, config, trace):
    """Damped Newton at fixed (t, bc, fvals); returns (u, iterations, res,
    F, margin, rule), F, res = max|F| and margin being the residual
    evaluation at the returned u and rule the stop rule: ``residual``
    (res <= tol), ``increment`` (a full step below 1e-9 (1 + |u|) that
    stays in the cone) or ``damping-floor`` (no damped step lowers a
    residual already at most max(100 tol, 1e-6)).  Each iterate is
    evaluated once: the line search's evaluation of the point it accepts,
    with what it built, serves the next iteration, and the build is
    dropped before the linear solve, which gets the forcing term ETA_MAX,
    then Eisenstat & Walker's (1996) choice 2 in the 2-norm, safeguarded,
    capped at ETA_MAX and floored at max(0.5 tol / res, ETA_MIN)."""
    tol, eta = config.tol_residual, ETA_MAX
    F, margin, built = disc.residual(u, t, bc, fvals)
    for it in range(MAX_NEWTON):
        res = np.max(np.abs(F))
        if res <= tol and margin > CONE_MARGIN_MIN:
            return u, it, res, F, margin, "residual"
        norm = np.linalg.norm(F)
        if it:
            eta_prev, eta = eta, ETA_GAMMA * (norm / norm_prev) ** 2
            if ETA_GAMMA * eta_prev**2 > 0.1:  # Kelley's safeguard
                eta = max(eta, ETA_GAMMA * eta_prev**2)
        eta = max(min(eta, ETA_MAX), 0.5 * tol / res, ETA_MIN)
        norm_prev = norm
        J, built = disc.jacobian(u, fvals, built), None
        h = _PrecondSolver().solve(J, -F, eta)
        del J  # its coefficients need not outlive the line search
        s = 1.0
        # on strongly graded grids roundoff in the 1/h^2 stencils floors
        # the attainable residual well above tol; the Newton increment is
        # the honest convergence measure there
        if np.max(np.abs(h)) <= 1e-9 * (1.0 + np.max(np.abs(u))):
            u_new = u + h
            F_new, margin_new, _ = disc.residual(u_new, t, bc, fvals)
            if margin_new > CONE_MARGIN_MIN:
                return (u_new, it + 1, np.max(np.abs(F_new)), F_new,
                        margin_new, "increment")
            s = 0.5  # the full step, just evaluated, leaves the cone
        step = _line_search(disc, u, h, res, t, bc, fvals, config, s)
        if step is None:
            # stagnation at the rounding floor of the linearized solve
            if res <= max(100.0 * tol, 1e-6) and margin > 0:
                return u, it, res, F, margin, "damping-floor"
            raise ContinuationFailure(
                f"damping underflow at t={t:.4f}, residual {res:.2e}",
                trace,
            )
        u, F, _, margin, built = step
        del step  # it holds the build, which the linear solve must not
    raise ContinuationFailure(
        f"Newton did not converge at t={t:.4f}", trace
    )


def _follow(disc, u, config, trace, label, data, path=None, guess=None):
    """Follow s: 0 -> 1 by damped Newton on data(s) = (t, bc, fvals).

    Newton for s_try starts from the secant predictor through the last
    two accepted points (s0, u0) and (s1, u1),
    u1 + (s_try - s1) / (s1 - s0) (u1 - u0); the first step of the phase,
    with one point, starts from u1.  The start need not lie in the cone:
    _damped_newton only returns cone-safe iterates.  A failed step is
    retried at half the size, predicted again from the same points; two
    successes double it up to T_STEP_INIT.  Each accepted step appends
    (label, s, its, res, rule).  path, from the phase before (same length),
    holds its last secant point, at s - 1 here (or None), and its step,
    which may then grow to the whole phase; guess predicts a try at s = 1.
    Returns u with F and the cone margin at (u, data(1)), and the path on.
    """
    s, streak, cap = 0.0, 0, T_STEP_INIT if path is None else 1.0
    prev, step = path or (None, T_STEP_INIT)  # prev: accepted before (s, u)
    step = 1.0 if guess is not None else step
    while s < 1.0:
        s_try = min(1.0, s + step)
        t, bc, fvals = data(s_try)
        start = u
        if guess is not None:
            start, guess = guess, None
        elif prev is not None:
            start = u + (s_try - s) / (s - prev[0]) * (u - prev[1])
        try:
            u_new, its, res, F, margin, rule = _damped_newton(
                disc, start, t, bc, fvals, config, trace
            )
        except ContinuationFailure:
            step *= 0.5
            streak = 0
            if step < 1e-6:
                raise
            continue
        prev, u, s = (s, u), u_new, s_try
        trace.append((label, s, its, res, rule))
        streak += 1
        if streak >= 2:
            step = min(2.0 * step, cap)
    return u, F, margin, ((prev[0] - 1.0, prev[1]), step)


def _continuation(disc, config, bc_target, f_target):
    """t: 0 -> 1 from u = 0 at zero data, then ramp boundary data and rhs
    factor.  The last phase ends at data(1) = (1, bc_target, f_target), so
    its final residual evaluation is the one returned, with its path."""
    trace = []
    n = disc.grid.n
    bc0, ones = np.zeros(n), np.ones(n)
    u, F, margin, path = _follow(disc, np.zeros(n), config, trace, "t",
                                 lambda s: (s, bc0, ones))
    if np.any(bc_target != 0.0) or np.any(f_target != 1.0):
        u, F, margin, path = _follow(
            disc, u, config, trace, "ramp",
            lambda s: (1.0, s * bc_target, f_target**s))
    return u, np.max(np.abs(F)), margin, trace, path


def solve_dirichlet(config):
    """Solve the sigma_k Dirichlet problem by Newton continuation.

    The background is pre-scaled so that (scale)g >= rho; the scale factor
    is recorded on the returned state.  Nonzero boundary data and any
    manufactured right-hand factor are reached by a second homotopy after
    t = 1.
    """
    disc = _make_disc(config)
    bc = _boundary_values(config.grid, config.boundary_data)
    fvals = _rhs_factor_values(config.grid, config.rhs_factor)
    u, res, margin, trace, _ = _continuation(disc, config, bc, fvals)
    return HomotopyState(
        u=ScalarField(config.grid, u),
        cone_margin=float(margin),
        residual_norm=float(res),
        trace=trace,
        background_scale=disc.bg_scale,
    )


def complete_grading(n):
    """Per-step grading ratio giving the total clustering factor e^10.

    Keeping the total fixed while n doubles halves every spacing, so
    convergence studies on complete solves see clean second-order decay.
    """
    return float(np.exp(10.0 / (n - 1)))


def solve_complete(config, warm=()):
    """Complete (infinite boundary data) solve by exhaustion; the
    config's boundary_data is not used.

    Dirichlet solves with boundary constants j = 2, 4, ... are warm-started
    from one another and stopped once the solution changes by at most
    CORE_TOL on the compact core or j reaches the resolution cap
    max(J_STEP, -ln(5 h_min)).  The rung sequence converges geometrically
    (ratio e^{-J_STEP} nodewise), so the limit is estimated by Aitken
    extrapolation of the last three rungs; that removes the finite-j tail
    and leaves the discretization error.  The returned state carries an
    asymptotics report: the fitted constant of u + ln(distance) over a
    near-boundary window, the window, and the fit residual; and its rungs.
    Rung ramps ride one follower, its secant and step carried from ramp to
    ramp.  warm, the rungs [(j, u_j)] of another order on the same grid,
    predicts each rung's first try, at (t = 1, bc = j); if that fails, rung
    j = 2 falls back to the t-continuation, a later one to the halving.
    """
    grid = config.grid
    disc = _make_disc(config)
    fvals = _rhs_factor_values(grid, config.rhs_factor)
    d = boundary_distance(grid).values
    core = d >= CORE_CUT_FRAC * disc.diameter
    j_cap = max(J_STEP, -log(5.0 * disc.h_min))

    guesses = dict(warm)
    j = J_STEP
    bc = _boundary_values(grid, j)
    u, trace, path = None, [], (None, 1.0)
    if j in guesses:
        try:
            u, its, res, F, margin, rule = _damped_newton(
                disc, guesses[j], 1.0, bc, fvals, config, trace)
            trace.append(("ramp", 1.0, its, res, rule))
        except ContinuationFailure:
            pass  # the cold path below
    if u is None:
        u, res, margin, trace, path = _continuation(disc, config, bc, fvals)
    rungs = [(j, u)]
    u_prev, delta_core = u, None
    for _ in range(MAX_RUNGS):
        j_next = j + J_STEP
        if j_next > j_cap + 1e-12:
            break
        bc_next = _boundary_values(grid, j_next)
        # u_prev solves t = 1 at data bc: ramp the data to bc_next, with
        # the rhs factor held at its target (every ramp spans J_STEP in j)
        u, F, margin, path = _follow(
            disc, u_prev, config, trace, "ramp",
            lambda s: (1.0, (1.0 - s) * bc + s * bc_next, fvals),
            path, guesses.get(j_next))
        res = np.max(np.abs(F))
        drop = float((u_prev - u).max())
        if drop > 1e-8:
            raise InvariantViolation(
                f"exhaustion rung j={j_next} decreased by {drop:.2e}"
            )
        delta_core = float(np.abs(u - u_prev)[core].max())
        trace.append(("rung", j_next, 0, delta_core))
        j, bc, u_prev = j_next, bc_next, u
        rungs.append((j, u))
        if delta_core <= CORE_TOL:
            break

    extrapolated = len(rungs) >= 3
    if extrapolated:
        u2, u1, u0 = rungs[-3][1], rungs[-2][1], rungs[-1][1]
        d1, d2 = u1 - u2, u0 - u1
        safe = np.abs(d1) > 1e-14
        q = np.where(safe, d2 / np.where(safe, d1, 1.0), 0.0)
        q = np.clip(q, 0.0, 0.95)
        u = u0 + d2 * q / (1.0 - q)

    report = _asymptotics_fit(grid, u, d, j, disc.h_min, disc.diameter,
                              config.k)
    report["tail_extrapolated"] = extrapolated
    report["j_final"] = j
    report["j_cap"] = j_cap
    report["core_delta"] = delta_core
    return HomotopyState(
        u=ScalarField(grid, u),
        cone_margin=float(margin),
        residual_norm=float(res),
        trace=trace,
        background_scale=disc.bg_scale,
        asymptotics=report,
        rungs=rungs,
    )


def _asymptotics_fit(grid, u, d, j_final, h_min, diameter, k):
    """Fit the constant of u + ln(distance) near the boundary.

    The window [1e3, 1e4] e^{-j_final} sits far enough outside the
    boundary layer of the last Dirichlet rung that the finite-j bias
    ln(1 + e^{-j}/d) is below the fit tolerance, yet close enough to the
    boundary that the genuine asymptotic constant dominates.
    """
    lo = 1e3 * np.exp(-j_final)
    hi = 1e4 * np.exp(-j_final)
    hi = min(hi, 0.2 * diameter)
    lo = min(lo, 0.5 * hi)
    sel = (d >= lo) & (d <= hi) & (d > 0)
    if sel.sum() < 3:
        sel = (d > 0) & (d <= max(hi, 20 * h_min))
    vals = u[sel] + np.log(d[sel])
    # affine fit in the distance: the intercept removes the O(d) geometric
    # correction to the boundary expansion
    A = np.stack([np.ones(sel.sum()), d[sel]], axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    const = float(coef[0])
    fit_res = float(np.abs(A @ coef - vals).max())
    m = grid.m
    half_log = 0.5 * log(m - 1)
    pure = half_log + log(comb(m, k)) / (2.0 * k)
    return {
        "constant": const,
        "window": (float(lo), float(hi)),
        "fit_residual": fit_res,
        "n_window_nodes": int(sel.sum()),
        "half_log_reference": half_log,
        "einstein_reference": pure,
        "matches_half_log": bool(abs(const - half_log) <= 1e-2),
    }
