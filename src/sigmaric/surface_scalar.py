"""Prescribed positive scalar curvature on surfaces.

In two dimensions the conformal change of scalar curvature is linear:

    e^{2u} R(e^{2u} g) = R(g) - 2 Delta_g u.

Solving the Poisson problem -2 Delta_g u = 1 - R(g) with u = 0 on the
boundary therefore produces a metric e^{2u} g of scalar curvature
e^{-2u} > 0 everywhere.  For g = e^{2 psi} delta this is the flat
Dirichlet problem Delta u = (R - 1) e^{2 psi} / 2, solved directly.  On
2-D boxes the 5-point Laplacian is inverted by fast diagonalization
(domains.FastDiag).  On disks the polar stencil, with the usual axis
closure (the axis value is coupled to the angular mean of the first ring,
exact for smooth fields to second order), is the same at every angle, so
an FFT in theta leaves one tridiagonal system in r per Fourier mode
(Hockney 1965; Swarztrauber 1977).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import solve_banded

from .domains import (BoxGrid, FastDiag, ScalarField, nodal_values,
                      uniform_d2)

__all__ = [
    "PolarDiskGrid",
    "SurfaceProblem",
    "make_polar_disk",
    "laplacian_matrix",
    "solve_positive_scalar",
    "verify_positive_scalar",
]


@dataclass
class PolarDiskGrid:
    """Node-centered polar grid on a disk of given radius.

    One axis node plus n_r rings of n_t equally spaced angles; ring n_r
    carries the Dirichlet boundary.  points holds cartesian coordinates.
    """

    radius: float
    n_r: int
    n_t: int
    r: np.ndarray
    theta: np.ndarray
    points: np.ndarray
    boundary: np.ndarray

    @property
    def n(self):
        return self.points.shape[0]

    @property
    def m(self):
        return 2


def make_polar_disk(radius, n_r, n_t):
    if radius <= 0 or n_r < 2 or n_t < 4:
        raise ValueError("need radius > 0, n_r >= 2, n_t >= 4")
    r = radius * np.arange(n_r + 1) / n_r
    theta = 2.0 * np.pi * np.arange(n_t) / n_t
    rr = np.repeat(r[1:], n_t)
    tt = np.tile(theta, n_r)
    points = np.concatenate([
        np.zeros((1, 2)),
        np.stack([rr * np.cos(tt), rr * np.sin(tt)], axis=1),
    ])
    boundary = np.zeros(points.shape[0], dtype=bool)
    boundary[1 + (n_r - 1) * n_t:] = True
    return PolarDiskGrid(radius=float(radius), n_r=n_r, n_t=n_t, r=r,
                         theta=theta, points=points, boundary=boundary)


def _ring_coefficients(grid):
    """h and the polar stencil (inner, diagonal, outer, angular) of rings
    1..n_r-1; ring i reads inner u(i-1, j) + diagonal u(i, j) + outer
    u(i+1, j) + angular (u(i, j-1) + u(i, j+1)), ring 0 being the axis."""
    h = grid.radius / grid.n_r
    dth = 2.0 * np.pi / grid.n_t
    ri = grid.r[1:-1]
    inner = 1.0 / h**2 - 1.0 / (2.0 * h * ri)
    diagonal = -2.0 / h**2 - 2.0 / (ri * dth) ** 2
    outer = 1.0 / h**2 + 1.0 / (2.0 * h * ri)
    angular = 1.0 / (ri * dth) ** 2
    return h, inner, diagonal, outer, angular


def laplacian_matrix(grid):
    """Sparse Laplacian; boundary rows are identity.

    Polar grids use u_rr + u_r / r + u_tt / r^2 with periodic angle and
    the angular-mean axis closure Delta u(0) = 4 (mean ring 1 - u(0)) / h^2.
    Box grids use the 5-point stencil, the Kronecker sum of the 1-d
    second differences of the two axes (C order: axis 1 varies fastest).
    """
    if isinstance(grid, BoxGrid):
        if grid.m != 2:
            raise ValueError("surface solves need a 2-D grid")
        d2 = [uniform_d2(n, h) for n, h in zip(grid.counts, grid.spacing)]
        edge = grid.boundary.astype(float)
        lap = sp.diags(1.0 - edge) @ sp.kronsum(d2[1], d2[0]) + sp.diags(edge)
        lap.eliminate_zeros()
        return lap.tocsc()
    n_r, n_t = grid.n_r, grid.n_t
    h, inner, diagonal, outer, angular = _ring_coefficients(grid)
    ring = np.arange(1, grid.n).reshape(n_r, n_t)
    me = ring[:-1]
    inward = np.vstack([np.zeros((1, n_t), dtype=int), ring[:-2]])
    nbrs = [me, inward, ring[1:], np.roll(me, 1, 1), np.roll(me, -1, 1)]
    coefs = [diagonal, inner, outer, angular, angular]
    rows = [np.zeros(n_t + 1, dtype=int), np.tile(me.ravel(), 5), ring[-1]]
    cols = [[0], ring[0], *(c.ravel() for c in nbrs), ring[-1]]
    vals = [[-4.0 / h**2], np.full(n_t, 4.0 / (h**2 * n_t)),
            *(np.repeat(c, n_t) for c in coefs), np.ones(n_t)]
    return sp.csc_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(grid.n, grid.n))


@dataclass
class SurfaceProblem:
    """Poisson data for the positive-curvature solve.

    curvature is R(g) and psi the conformal exponent of g = e^{2 psi}
    delta, each a nodal field or a scalar (domains.nodal_values), stored
    as its node values when the problem is built; e^{-2 psi} and its
    inverse must be positive and finite at every node.  psi defaults to 0
    and curvature to the discretely computed R(g) = -2 e^{-2 psi} Delta
    psi; the flat Laplacian is weighted by e^{-2 psi}.
    """

    grid: object
    curvature: object = None
    psi: object = None

    def __post_init__(self):
        if self.grid.m != 2:
            raise ValueError("surface solves need a 2-D grid")
        self.psi = nodal_values(self.grid, self.psi, "psi", default=0.0)
        # the solve multiplies by e^{2 psi} and the check by e^{-2 psi}
        with np.errstate(over="ignore"):
            if not np.all(np.isfinite(np.exp(2.0 * np.abs(self.psi)))):
                raise ValueError("psi must keep e^{2 psi} and e^{-2 psi} "
                                 "positive and finite at every node")
        if self.curvature is not None:
            self.curvature = nodal_values(self.grid, self.curvature,
                                          "curvature")

    @cached_property
    def operator(self):
        """(Laplacian, R(g), e^{-2 psi}) at every node, built once."""
        grid = self.grid
        lap = laplacian_matrix(grid)
        weight = np.exp(-2.0 * self.psi)
        R = self.curvature
        if R is None:
            R = np.where(grid.boundary, 0.0, -2.0 * weight * (lap @ self.psi))
        return lap, R, weight


def _solve_polar(grid, f):
    """Delta u = f at the axis and the interior rings, u = 0 on the rim.

    Mode k of the rfft in theta reads inner u(i-1) + (diagonal +
    2 cos(2 pi k / n_t) angular) u(i) + outer u(i+1) = f_k(i).  Each mode
    is a block of n_r unknowns whose slot 0 holds the axis value in mode 0
    (ring 1 sees it as n_t u(0)) and an uncoupled zero in the others; the
    stacked blocks make one tridiagonal system.
    """
    n_r, n_t = grid.n_r, grid.n_t
    h, inner, diagonal, outer, angular = _ring_coefficients(grid)
    modes = n_t // 2 + 1
    lam = 2.0 * np.cos(2.0 * np.pi * np.arange(modes) / n_t)
    band = np.zeros((3, modes, n_r))  # upper, diagonal, lower
    band[0, :, 1:-1] = outer[:-1]
    band[1, :, 0] = 1.0
    band[1, :, 1:] = diagonal + np.outer(lam, angular)
    band[2, :, 1:-1] = inner[1:]
    band[:, 0, 0] = 4.0 / (h**2 * n_t), -4.0 / h**2, inner[0] * n_t
    ab = band.reshape(3, -1)
    ab[0] = np.roll(ab[0], 1)  # solve_banded keeps upper[m] in column m+1
    rhs = np.zeros((modes, n_r), dtype=complex)
    rhs[0, 0] = f[0]
    rhs[:, 1:] = np.fft.rfft(f[1:-n_t].reshape(n_r - 1, n_t), axis=1).T
    x = solve_banded((1, 1), ab, rhs.ravel(),
                     check_finite=False).reshape(modes, n_r)
    u = np.zeros(grid.n)
    u[0] = x[0, 0].real
    u[1:-n_t] = np.fft.irfft(x[:, 1:].T, n=n_t, axis=1).ravel()
    return u


def solve_positive_scalar(problem):
    """Solve -2 Delta_g u = 1 - R(g) with u = 0 on the boundary.

    At interior nodes this is Delta u = (R - 1) e^{2 psi} / 2, solved by
    fast diagonalization on boxes and by an FFT in theta with one banded
    solve in r on disks.  Returns the ScalarField u; the conformal metric
    e^{2u} g then has scalar curvature e^{-2u} > 0 (see
    verify_positive_scalar).
    """
    _, R, weight = problem.operator
    grid = problem.grid
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (R - 1.0) / (2.0 * weight)
        if isinstance(grid, BoxGrid):
            fdm = FastDiag(grid)
            u = np.zeros(grid.n)
            u.reshape(fdm.shape)[fdm.interior] = fdm.solve(
                f.reshape(fdm.shape)[fdm.interior], 0.0)
        else:
            u = _solve_polar(grid, f)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("linear solve failed")
    return ScalarField(grid, u)


def verify_positive_scalar(problem, u):
    """Residual and curvature report for a computed solution.

    residual is the sup norm of R(g) - 2 Delta_g u - 1 at interior nodes;
    new_curvature_min is the minimum of e^{-2u} (R(g) - 2 Delta_g u),
    the discrete scalar curvature of e^{2u} g, which the solve makes
    equal to e^{-2u} up to the residual.  Raises RuntimeError when either
    is not finite: e^{2 psi} near the float limit overflows the check.
    """
    lap, R, weight = problem.operator
    interior = ~problem.grid.boundary
    vals = nodal_values(problem.grid, u, "u")
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = R - 2.0 * weight * (lap @ vals)
        residual = float(np.max(np.abs(lhs[interior] - 1.0)))
        curv_min = float(np.min(np.exp(-2.0 * vals[interior])
                                * lhs[interior]))
    if not np.isfinite([residual, curv_min]).all():
        raise RuntimeError(f"verification failed: residual {residual}, "
                           f"curvature minimum {curv_min}")
    return {
        "residual": residual,
        "new_curvature_min": curv_min,
        "positive": curv_min > 0.0,
    }
