"""Damped Newton continuation for the sigma_k-Ricci problem.

Dirichlet solves run a homotopy from the constant anchor equation (t = 0)
to the target equation (t = 1), with adaptive t-stepping and a second
homotopy ramping boundary data (and any manufactured right-hand factor)
once t reaches 1.  They follow that path only on the coarsest of a
cascade of nested grids (every other node, while the counts are odd);
each finer grid runs one damped Newton at the target from the solution
below, prolonged by cubic midpoint interpolation (mesh independence:
Allgower, Boehmer, Potra & Rheinboldt 1986).  If any level fails, the
path is followed once on the finest grid instead.  Complete metrics are
produced by exhaustion: Dirichlet solves with boundary constants
j = 2, 4, ..., each ramped from the rung below and started from another
order's rung or from the rung its boundary layer predicts, stopped when
the solution stabilizes on a compact core; the same boundary-layer line,
read at j = infinity, gives the complete solution, and an asymptotics fit
of u + ln(distance) its constant.  On a flat radial grid with rhs factor
1 the first rung starts, in place of the t-homotopy, from the complete
solution of a ball holding the domain, which solves the equation exactly
(Loewner & Nirenberg 1974 for k = 1), and the same closed form at j = 0
is the rung below it; the t-homotopy stays as the fallback and for
curved backgrounds.  On radial grids Newton accepts an iterate that its
full step does not improve once its residual is at the rounding floor of
the assembled Jacobian.

Two discretizations share the Newton core and one Newton system, _Disc
(the residual rows, cone margin and Jacobian weights around sigma_k):
graded radial grids (the axisymmetric reduction, second-order mapped
stencils, sparse LU on Jacobians filled straight into a CSC layout from
the pattern of the parameter-space second-difference stencil, all built
once per grid) and uniform boxes (centered
differences on slices of the node array at the PDE rows, sigma_j and the
Newton transform from one Faddeev-LeVerrier pass).  Box Jacobians are
never assembled: GMRES, preconditioned by the fast diagonalization
method, sees only their products and solves each Newton step only to an
Eisenstat-Walker forcing term, as its own convergence flag reports
(inexact Newton-Krylov, Knoll & Keyes 2004).  Boxes build W_t and the
Jacobian coefficients with the batched kernel of conformal_ops, which the
oracle tests check, component-major (matrix indices first, interior axes
last) and straight off the derivative slices; radial grids reduce W_t to
its two distinct eigenvalues.  Both take their anchor from conformal_ops
and sigma_j from symfun.  The independent Chebyshev collocation oracle
lives in radial_oracle and shares nothing with this module.

Each iterate is evaluated once: the residual returns what it built
besides F, the line search keeps that with the point it accepts, and
the Jacobian takes it.  Nothing is kept on a discretization, and Newton
never changes an iterate in place.
"""

from dataclasses import dataclass, field as dc_field, replace
from math import comb, exp, log, sqrt

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
    make_box_grid,
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
NEST_FLOOR = 5  # fewest nodes per axis on a coarser nested Dirichlet grid
_EPS = np.finfo(float).eps


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
    the weight frozen at the iterate u0, exact only where F = 0.  Adding
    the dropped -2k rhs w F to c0 costs Newton iterations with warm and
    barrier starts: 47 -> 49 on the n = 384 ball family and 140 -> 156 on
    the annulus pe-invariant (its family and the threshold ball's), 16 on
    the 2048-node ball either way, u agreeing to 3e-11.  A
    subclass also sets bg_scale (c >= 1 with c g >= rho), h_min and
    diameter.
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


class _RadialOperators:
    """What a radial Newton solve needs of its grid alone: built once per
    RadialGrid instance (_radial_operators) and shared, read-only, by every
    _RadialDisc on it, whatever its order or background.

    D1 = diag(1/r') Dxi1 and D2 = diag(1/r'^2) Dxi2 - diag(r''/r'^3) Dxi1
    are pushed forward from the stencils Dxi1, Dxi2 in the uniform
    parameter xi, and inv_r is 1/r (0 at r = 0).  Every term a Jacobian
    combines lies in the pattern of Dxi2.  The CSC layout (indptr, indices)
    keeps its entries at PDE rows, the diagonal at boundary rows and D1's
    entries at the ball row r = 0; the rest of the pattern is structurally
    zero there.  on_layout holds D2, D1 and the identity at the layout's
    entries, in CSC order.
    """

    def __init__(self, grid):
        n = grid.n
        h = grid.xi_step
        Dxi1 = uniform_d1(n, h)
        Dxi2 = uniform_d2(n, h)
        inv_dr = 1.0 / grid.dr
        self.D1 = (sp.diags(inv_dr) @ Dxi1).tocsr()
        self.D2 = (sp.diags(inv_dr**2) @ Dxi2
                   - sp.diags(grid.d2r * inv_dr**3) @ Dxi1).tocsr()
        r = grid.nodes
        with np.errstate(divide="ignore"):
            self.inv_r = np.where(r > 0, 1.0 / np.where(r > 0, r, 1.0), 0.0)
        rows = np.repeat(np.arange(n), np.diff(Dxi2.indptr))
        cols = Dxi2.indices
        on_pattern = [np.asarray(A[rows, cols]).ravel()
                      for A in (self.D2, self.D1, sp.identity(n).tocsr())]
        pde = ~grid.boundary
        keep = rows == cols
        if grid.is_ball:  # the row at r = 0 is u'(0) = 0
            pde[0] = False
            keep |= (rows == 0) & (on_pattern[1] != 0.0)
        keep |= pde[rows]
        order = np.lexsort((rows, cols))  # CSC order: by column, then row
        order = order[keep[order]]
        self.indices = rows[order].astype(Dxi2.indices.dtype)
        self.indptr = np.zeros(n + 1, Dxi2.indptr.dtype)
        np.cumsum(np.bincount(cols[order], minlength=n), out=self.indptr[1:])
        self.on_layout = tuple(vals[order] for vals in on_pattern)
        shared = [self.inv_r, self.indices, self.indptr, *self.on_layout]
        for A in (self.D1, self.D2):
            shared += [A.data, A.indices, A.indptr]
        for array in shared:
            array.flags.writeable = False


def _radial_operators(grid):
    """grid's _RadialOperators, built at its first radial solve and kept in
    the grid's own __dict__, so that they live exactly as long as it does
    (a grid is not changed after its first solve)."""
    ops = vars(grid).get("_radial_operators")
    if ops is None:
        ops = grid._radial_operators = _RadialOperators(grid)
    return ops


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
    build is (a, b, u').  On a ball the row at r = 0 is u'(0) = 0.  The
    mapped stencils D1, D2 and the layout _fill writes the Jacobian into
    are the grid's _RadialOperators, shared by every disc on the grid.
    """

    def __init__(self, config):
        super().__init__(config)
        grid = config.grid
        bg = config.background
        n = grid.n
        self.ops = _radial_operators(grid)
        self.D1, self.D2 = self.ops.D1, self.ops.D2
        r = grid.nodes
        if bg.kind == "flat":
            self.cf = self.ops.inv_r
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
        """diag(c2) D2 + diag(c1) D1 + diag(c0), with D1 at the ball row,
        as a CSC matrix with no stored zeros, filled straight into the
        grid's layout; c2 and c1 must vanish at non-PDE rows, where the
        layout keeps only the boundary closure."""
        if self.ball_row is not None:
            c1 = c1.copy()
            c1[self.ball_row] = 1.0
        rows, indptr = self.ops.indices, self.ops.indptr
        data = sum(c[rows] * vals for c, vals in zip((c2, c1, c0),
                                                      self.ops.on_layout))
        # a coefficient that cancelled to 0 is dropped, from J's own copy
        # of the read-only layout
        cancelled = not data.all()
        J = sp.csc_matrix((data, rows, indptr), shape=self.D2.shape,
                          copy=cancelled)
        if cancelled:
            J.eliminate_zeros()
        return J


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
    the forcing term eta.  They are tridiagonal on an annulus and (1, 2)
    banded on a ball, so node order already gives no fill: SuperLU keeps
    it (permc_spec="NATURAL") and builds no supernodes (relax=1,
    panel_size=1), which a band has none of; the COLAMD ordering and
    supernode relaxation of its defaults took most of each factorization.
    Partial pivoting stays (diag_pivot_thresh 1.0): the first Jacobian of
    a 2048-node ball swaps 1483 of its rows.  Box Jacobians are
    operators: GMRES, preconditioned by fast diagonalization, runs to
    |J x - b|_2 <= eta |b|_2, judged by its own convergence flag, and runs
    once more, warm, only if that flag says it did not get there.
    """

    def solve(self, J, b, eta=ETA_MIN):
        if sp.issparse(J):
            return splu(J, permc_spec="NATURAL", relax=1,
                        panel_size=1).solve(b)
        shape = (b.size, b.size)
        A = spla.LinearOperator(shape, matvec=J.matvec, dtype=float)
        M = spla.LinearOperator(shape, matvec=J.precondition, dtype=float)
        options = dict(M=M, rtol=eta, atol=0.0, restart=100, maxiter=10)
        x, info = spla.gmres(A, b, **options)
        if info:
            x, _ = spla.gmres(A, b, x0=x, **options)
        return x


def _make_disc(config):
    if isinstance(config.grid, RadialGrid):
        return _RadialDisc(config)
    if isinstance(config.grid, BoxGrid):
        return _BoxDisc(config)
    raise TypeError(f"unsupported grid {type(config.grid)!r}")


# ---------------------------------------------------------------------------
# Newton core


def _damped_newton(disc, u, t, bc, fvals, config, trace):
    """Damped Newton at fixed (t, bc, fvals); returns (u, iterations, res,
    F, margin, rule), F, res = max|F| and margin being the residual
    evaluation at the returned u, iterations the Jacobians assembled and
    solved, and rule the stop rule: ``residual`` (res <= tol),
    ``increment`` (a full step below 1e-9 (1 + |u|) that stays in the
    cone) or ``damping-floor`` (the full step fails to lower a residual
    already at the rounding floor eps |J|_inf (1 + |u|_inf) of an assembled
    J, which strong grading on radial grids lifts far above tol; box
    Jacobians are never assembled and have no such stop).  The line search
    halves s from 1 until u + s h stays in the cone and lowers the residual
    (or meets tol), down to s = 1e-8.  Each iterate is evaluated once: the
    line search's evaluation of the point it accepts, with what it built,
    serves the next iteration, and the build is dropped before the linear
    solve, which gets the forcing term ETA_MAX, then Eisenstat & Walker's
    (1996) choice 2 in the 2-norm, safeguarded, capped at ETA_MAX and
    floored at max(0.5 tol / res, ETA_MIN)."""
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
        # a box J's coefficients need not outlive the line search; an
        # assembled J is kept for the rounding floor should the full step
        # fail
        J = J if sp.issparse(J) else None
        # on strongly graded grids roundoff in the 1/h^2 stencils floors
        # the attainable residual well above tol; the Newton increment is
        # the honest convergence measure there
        small = np.max(np.abs(h)) <= 1e-9 * (1.0 + np.max(np.abs(u)))
        s = 1.0
        while s >= 1e-8:
            u_new = u + s * h
            F_new, margin_new, built = disc.residual(u_new, t, bc, fvals)
            res_new = np.max(np.abs(F_new))
            if margin_new > CONE_MARGIN_MIN:
                if small and s == 1.0:
                    return (u_new, it + 1, res_new, F_new, margin_new,
                            "increment")
                if res_new < res or res_new <= tol:
                    break
            # stagnation at the rounding floor of the linearized solve:
            # forming J @ u alone rounds to about eps |J| |u|
            if (s == 1.0 and J is not None and margin > 0
                    and res <= _EPS * spla.norm(J, np.inf)
                    * (1.0 + np.max(np.abs(u)))):
                return u, it + 1, res, F, margin, "damping-floor"
            s *= 0.5
        else:
            raise ContinuationFailure(
                f"damping underflow at t={t:.4f}, residual {res:.2e}",
                trace,
            )
        u, F, margin = u_new, F_new, margin_new
    raise ContinuationFailure(
        f"Newton did not converge at t={t:.4f}", trace
    )


def _follow(disc, u, config, trace, label, data, step=T_STEP_INIT,
            guess=None):
    """Follow s: 0 -> 1 by damped Newton on data(s) = (t, bc, fvals).

    step is the first and largest step.  Newton for s_try starts from
    guess, if given, at the first try; else from the secant predictor
    through the last two accepted points (s0, u0) and (s1, u1) of this
    phase, u1 + (s_try - s1) / (s1 - s0) (u1 - u0), or from u1 while the
    phase has one point.  The start need not lie in the cone:
    _damped_newton only returns cone-safe iterates.  A failed step is
    retried at half the size, predicted again from the same points; two
    successes double it up to the first step.  Each accepted step appends
    (label, s, its, res, rule).  Returns u with F and the cone margin at
    (u, data(1)).
    """
    s, streak, prev, cap = 0.0, 0, None, step  # prev: (s, u) accepted
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
    return u, F, margin


def _continuation(disc, config, bc_target, f_target):
    """t: 0 -> 1 from u = 0 at zero data, then ramp boundary data and rhs
    factor.  The last phase ends at data(1) = (1, bc_target, f_target), so
    its final residual evaluation is the one returned, with the end of the
    t-phase, the solution at (1, 0, 1): (u, res, margin, trace, u_t)."""
    trace = []
    n = disc.grid.n
    bc0, ones = np.zeros(n), np.ones(n)
    u, F, margin = _follow(disc, np.zeros(n), config, trace, "t",
                           lambda s: (s, bc0, ones))
    u_t = u
    if np.any(bc_target != 0.0) or np.any(f_target != 1.0):
        u, F, margin = _follow(
            disc, u, config, trace, "ramp",
            lambda s: (1.0, s * bc_target, f_target**s))
    return u, np.max(np.abs(F)), margin, trace, u_t


# ---------------------------------------------------------------------------
# nested grids


def _shape(grid):
    """Node counts per axis, in the order of the nodal arrays."""
    return tuple(grid.counts) if isinstance(grid, BoxGrid) else (grid.n,)


def _nested_strides(grid):
    """Node strides of the nested grids, 1 (grid itself) first: the stride
    doubles while every axis count stays odd and its half stays at least
    NEST_FLOOR."""
    spans, strides = np.array(_shape(grid)) - 1, [1]
    while (np.all(spans // strides[-1] % 2 == 0)
           and np.all(spans // (2 * strides[-1]) + 1 >= NEST_FLOOR)):
        strides.append(2 * strides[-1])
    return strides


def _nested_level(config, stride):
    """config's problem on every stride-th node of each axis, and those
    nodes' indices in config.grid.  A coarse radial grid keeps the map
    (nodes, dr and d2r at its nodes), so graded grids stay nested; the
    background is the fine one at the coarse nodes, and so are the
    boundary data and rhs factor the caller takes there."""
    grid, shape = config.grid, _shape(config.grid)
    every = (slice(None, None, stride),) * len(shape)
    take = np.arange(grid.n).reshape(shape)[every].ravel()
    if isinstance(grid, BoxGrid):
        coarse = make_box_grid(grid.lo, grid.hi,
                               [(c - 1) // stride + 1 for c in shape])
    else:
        coarse = replace(grid, nodes=grid.nodes[take], dr=grid.dr[take],
                         d2r=grid.d2r[take], grading=grid.grading**stride)
    bg = config.background
    background = BackgroundMetric(coarse, bg.kind, bg.g[take], bg.rho[take])
    return replace(config, grid=coarse, background=background), take


def _prolong(coarse, u):
    """u on the nested grid with twice coarse's steps: each axis in turn
    keeps the coarse values and fills the midpoints by the cubic through
    the four nearest coarse nodes in the uniform parameter, (-1, 9, 9, -1)
    / 16 inside and (5, 15, -5, 1) / 16 next to an end."""
    v = u.reshape(_shape(coarse))
    for axis in range(v.ndim):
        v = np.moveaxis(v, axis, 0)
        out = np.empty((2 * v.shape[0] - 1,) + v.shape[1:])
        out[::2] = v
        out[3:-3:2] = (9.0 * (v[1:-2] + v[2:-1]) - v[:-3] - v[3:]) / 16.0
        out[1] = (5.0 * v[0] + 15.0 * v[1] - 5.0 * v[2] + v[3]) / 16.0
        out[-2] = (5.0 * v[-1] + 15.0 * v[-2] - 5.0 * v[-3] + v[-4]) / 16.0
        v = np.moveaxis(out, 0, axis)
    return v.ravel()


def _nested_solve(config, disc, bc, fvals, strides):
    """Continuation on the grid of the last stride, then one damped Newton
    per finer grid, from the solution below prolonged with its boundary
    rows set to the data; returns (u, res, margin, trace)."""
    below = None
    for stride in reversed(strides):
        level, level_disc, take = config, disc, slice(None)
        if stride > 1:  # each level is built when it is solved
            level, take = _nested_level(config, stride)
            level_disc = _make_disc(level)
            level_disc.bg_scale = disc.bg_scale
        level_bc, level_f = bc[take], fvals[take]
        if below is None:
            u, res, margin, trace, *_ = _continuation(
                level_disc, level, level_bc, level_f)
        else:
            u = _prolong(below, u)
            u[level_disc.bmask] = level_bc[level_disc.bmask]
            u, its, res, _, margin, rule = _damped_newton(
                level_disc, u, 1.0, level_bc, level_f, level, trace)
            trace.append(("ramp", 1.0, its, res, rule))
        below = level.grid
    return u, res, margin, trace


def solve_dirichlet(config):
    """Solve the sigma_k Dirichlet problem by Newton continuation on the
    coarsest of a cascade of nested grids, then one damped Newton per finer
    grid.

    Every other node is taken while every axis count is odd and the coarse
    count stays at least NEST_FLOOR; a grid with an even count is its own
    coarsest level.  The coarsest level follows t: 0 -> 1, then a second
    homotopy ramps nonzero boundary data and any manufactured right-hand
    factor.  Each finer level starts from the level below, prolonged by
    cubic midpoint interpolation (_prolong) with its boundary rows set to
    the data, and runs Newton at (t = 1, target data), which appends one
    entry ("ramp", 1.0, its, res, rule) to the trace.  If any level of the
    cascade fails, the continuation runs once on the finest grid, from
    u = 0, and its trace follows the entries the cascade recorded.  The
    last entry carries the returned residual.  The background is
    pre-scaled so that (scale)g >= rho, with the finest grid's scale on
    every level; the scale is recorded on the returned state.
    """
    disc = _make_disc(config)
    bc = _boundary_values(config.grid, config.boundary_data)
    fvals = _rhs_factor_values(config.grid, config.rhs_factor)
    strides = _nested_strides(config.grid)
    try:
        u, res, margin, trace = _nested_solve(config, disc, bc, fvals,
                                              strides)
    except ContinuationFailure as failure:
        if len(strides) == 1:  # that was the continuation on this grid
            raise
        u, res, margin, trace, *_ = _continuation(disc, config, bc, fvals)
        trace = failure.trace + trace
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


def _predict_rung(u, below, c=np.exp(-J_STEP)):
    """-ln(a + c (a - b)), a = e^{-u} and b = e^{-below}, from rungs u (j)
    and below (j - J_STEP), or None where the argument is not positive at
    some node.

    Near the boundary a rung is about -ln(d + C e^{-j}), so e^{-u_j} is
    affine in e^{-j} up to O(e^{-2j}).  The line through the two rungs is
    read at e^{-j - J_STEP} with the default c = e^{-J_STEP}, the next
    rung, and at e^{-j} = 0 with c = 1 / (e^{J_STEP} - 1), the complete
    solution."""
    a, b = np.exp(-u), np.exp(-below)
    arg = a + c * (a - b)
    return -np.log(arg) if np.all(arg > 0) else None


def _einstein_constant(m, k, rhs_scale):
    """1/2 ln(m - 1) + (ln C(m, k) - ln rhs_scale) / (2k): the constant of
    u + ln(distance) at the boundary of a flat complete solution, read off
    the hyperbolic metric scaled to sigma_k = rhs_scale e^{2ku}."""
    return 0.5 * log(m - 1) + (log(comb(m, k)) - log(rhs_scale)) / (2.0 * k)


def _ball_barrier(grid, c, j):
    """c - ln((R^2 - r^2) / R) at the nodes: the complete solution of the
    flat ball of radius R about the centre, with R > r1 chosen so that it
    reads j at r1, R = (a + sqrt(a^2 + 4 r1^2)) / 2 with a = e^{c - j}."""
    a = exp(c - j)
    R = 0.5 * (a + sqrt(a * a + 4.0 * grid.r1**2))
    return c - np.log((R * R - grid.nodes**2) / R)


def _barrier_start(disc, config, j, fvals, trace):
    """The rung at data j from the ball barrier, on a flat radial grid
    with rhs factor 1; returns (u, res, margin, below).

    The barrier w (_ball_barrier at j, with c = ln 2 + _einstein_constant)
    solves the equation exactly for its own boundary values, so it lies in
    the cone.  It is polished by damped Newton at those values, recorded
    as ("ramp", 0.0, its, res, rule), its data on the sphere r1 set to
    exactly j; on an annulus the inner data are then ramped to j.  below
    is the closed-form barrier at j = 0, the rung _predict_rung takes below
    j.  Raises ContinuationFailure if the polish or the ramp fails."""
    grid = disc.grid
    c = log(2.0) + _einstein_constant(grid.m, config.k, config.rhs_scale)
    w = _ball_barrier(grid, c, j)
    w[-1] = j  # the node at r1
    bc_w, bc = _boundary_values(grid, w), _boundary_values(grid, j)
    u, its, res, F, margin, rule = _damped_newton(disc, w, 1.0, bc_w, fvals,
                                                  config, trace)
    trace.append(("ramp", 0.0, its, res, rule))
    if not np.array_equal(bc_w, bc):
        u, F, margin = _follow(
            disc, u, config, trace, "ramp",
            lambda s: (1.0, (1.0 - s) * bc_w + s * bc, fvals))
    return u, np.max(np.abs(F)), margin, _ball_barrier(grid, c, 0.0)


def solve_complete(config, warm=()):
    """Complete (infinite boundary data) solve by exhaustion; the
    config's boundary_data is not used.

    Dirichlet solves with boundary constants j = 2, 4, ... are warm-started
    from one another and stopped once the solution changes by at most
    CORE_TOL on the compact core or j reaches the resolution cap
    max(J_STEP, -ln(5 h_min)).  Off the boundary, u is the line of
    _predict_rung through the last two rungs read at e^{-j} = 0,
    e^{-u} = a + (a - b) / (e^{J_STEP} - 1) with a = e^{-u_j} and
    b = e^{-u_{j - J_STEP}}; boundary nodes keep the last rung's data,
    j_final.  With one rung, or an argument not positive at some node off
    the boundary, u is the last rung and tail_extrapolated is False.  The
    returned state carries an asymptotics report: the fitted constant of
    u + ln(distance) over a near-boundary window, the window, the fit
    residual and the reference _einstein_constant; and its rungs.

    The rung j = 2 is, in this order: warm's rung j = 2 polished by Newton
    at (t = 1, bc = j), when warm, the rungs [(j, u_j)] of another order on
    the same grid, holds it and that Newton converges; else, on a flat
    radial background with rhs factor 1, the ball barrier (_barrier_start:
    the complete solution of a larger ball, polished at its own boundary
    values, then on an annulus ramped to j); else, or if that fails, the
    t-continuation from u = 0 with a ramp of the data to j, whose trace
    follows what a failed barrier start recorded.
    Each later rung ramps the data from the rung below in a phase of its
    own, whose first try is the whole ramp, at (t = 1, bc = j), from a
    guess: warm's rung j when warm holds one; else the rung the boundary
    layer predicts from the two rungs before it (_predict_rung: near the
    boundary a rung is about -ln(d + c e^{-j})).  The rung j = 0 is the
    closed-form barrier at j = 0 after a barrier start, the end of the
    t-phase after a t-continuation with rhs factor 1, and none otherwise.
    With no guess (no rung below, or a prediction that is not a positive
    e^{-u} at some node) the try starts from the rung below; a failed try
    falls back to the halving.
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
    u, trace, below = None, [], None
    if j in guesses:
        try:
            u, its, res, F, margin, rule = _damped_newton(
                disc, guesses[j], 1.0, bc, fvals, config, trace)
            trace.append(("ramp", 1.0, its, res, rule))
        except ContinuationFailure:
            pass  # the cold path below
    unit_factor = np.all(fvals == 1.0)
    if (u is None and unit_factor and isinstance(grid, RadialGrid)
            and config.background.kind == "flat"):
        try:
            u, res, margin, below = _barrier_start(disc, config, j, fvals,
                                                   trace)
        except ContinuationFailure:
            pass  # the cold path below, after what the barrier recorded
    if u is None:
        u, res, margin, cold, u_t = _continuation(disc, config, bc, fvals)
        trace = trace + cold
        if unit_factor:
            below = u_t  # the rung j = 0
    rungs = [(j, u)]
    u_prev, delta_core = u, None
    for _ in range(MAX_RUNGS):
        j_next = j + J_STEP
        if j_next > j_cap + 1e-12:
            break
        bc_next = _boundary_values(grid, j_next)
        guess = guesses.get(j_next)
        if guess is None and below is not None:
            guess = _predict_rung(u_prev, below)
        # u_prev solves t = 1 at data bc: ramp the data to bc_next, with
        # the rhs factor held at its target (every ramp spans J_STEP in j)
        u, F, margin = _follow(
            disc, u_prev, config, trace, "ramp",
            lambda s: (1.0, (1.0 - s) * bc + s * bc_next, fvals),
            1.0, guess)
        res = np.max(np.abs(F))
        drop = float((u_prev - u).max())
        if drop > 1e-8:
            raise InvariantViolation(
                f"exhaustion rung j={j_next} decreased by {drop:.2e}"
            )
        delta_core = float(np.abs(u - u_prev)[core].max())
        trace.append(("rung", j_next, 0, delta_core))
        j, bc, u_prev, below = j_next, bc_next, u, u_prev
        rungs.append((j, u))
        if delta_core <= CORE_TOL:
            break

    limit = None
    if len(rungs) >= 2:
        inner = ~grid.boundary
        limit = _predict_rung(u[inner], rungs[-2][1][inner],
                              1.0 / np.expm1(J_STEP))
    if limit is not None:
        u = u.copy()
        u[inner] = limit

    report = _asymptotics_fit(grid, u, d, j, disc, config.k, config.rhs_scale)
    report["tail_extrapolated"] = limit is not None
    report["j_final"] = j
    report["j_cap"] = j_cap
    report["core_delta"] = delta_core
    report["limit_delta"] = _limit_delta(rungs, core)
    return HomotopyState(
        u=ScalarField(grid, u),
        cone_margin=float(margin),
        residual_norm=float(res),
        trace=trace,
        background_scale=disc.bg_scale,
        asymptotics=report,
        rungs=rungs,
    )


def _limit_delta(rungs, core):
    """max |change| on the core between the j = infinity lines of the
    last two rung pairs, or None with fewer than three rungs or a line
    that is not defined there."""
    if len(rungs) < 3:
        return None
    a, b, c = (u[core] for _, u in rungs[-3:])
    at_limit = 1.0 / np.expm1(J_STEP)
    last, before = _predict_rung(c, b, at_limit), _predict_rung(b, a, at_limit)
    if last is None or before is None:
        return None
    return float(np.abs(last - before).max())


def _asymptotics_fit(grid, u, d, j_final, disc, k, rhs_scale):
    """Fit the constant of u + ln(distance) near the boundary.

    The window [1e3, 1e4] e^{-j_final} sits far enough outside the
    boundary layer of the last Dirichlet rung that the finite-j bias
    ln(1 + e^{-j}/d) is below the fit tolerance, yet close enough to the
    boundary that the genuine asymptotic constant dominates.  u + ln d is
    fitted by a quadratic in d, whose intercept is the constant: an affine
    fit leaves the O(d^2) term of the expansion in it, -8.0e-5 on the
    m = k = 3 ball at n = 1025 and 2049, against about 1e-6 here.

    An annulus is fitted one sphere at a time, since the O(d) term (the
    sphere's mean curvature) has opposite signs at r0 and r1: the report's
    keys describe the outer sphere, and "inner" holds the constant, fit
    residual and window nodes at r0.  One fit pooling both read a
    residual of 4.0e-2 on the m = 3, k = 2 annulus [0.5, 1] at n = 1025,
    against 1.1e-4 (outer) and 4.6e-4 (inner) apart.

    u is the conformal factor of the prescaled background c g (c =
    disc.bg_scale) and d is g's distance, so the einstein_reference is
    _einstein_constant - 1/2 ln c.
    """
    lo = 1e3 * np.exp(-j_final)
    hi = 1e4 * np.exp(-j_final)
    hi = min(hi, 0.2 * disc.diameter)
    lo = min(lo, 0.5 * hi)

    def fit(side):
        sel = side & (d >= lo) & (d <= hi) & (d > 0)
        if sel.sum() < 3:
            sel = side & (d > 0) & (d <= max(hi, 20 * disc.h_min))
        vals = u[sel] + np.log(d[sel])
        # the intercept is freed of the O(d) and O(d^2) terms
        A = np.stack([np.ones(sel.sum()), d[sel], d[sel] ** 2], axis=1)
        coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
        return {
            "constant": float(coef[0]),
            "fit_residual": float(np.abs(A @ coef - vals).max()),
            "n_window_nodes": int(sel.sum()),
        }

    annulus = isinstance(grid, RadialGrid) and not grid.is_ball
    outer = (grid.r1 - grid.nodes <= grid.nodes - grid.r0 if annulus
             else np.ones(d.size, dtype=bool))
    report = fit(outer)
    report["window"] = (float(lo), float(hi))
    report["einstein_reference"] = (_einstein_constant(grid.m, k, rhs_scale)
                                    - 0.5 * log(disc.bg_scale))
    if annulus:
        report["inner"] = fit(~outer)
    return report
