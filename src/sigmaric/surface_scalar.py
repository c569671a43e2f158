"""Prescribed positive scalar curvature on surfaces.

In two dimensions the conformal change of scalar curvature is linear:

    e^{2u} R(e^{2u} g) = R(g) - 2 Delta_g u.

Solving the Poisson problem -2 Delta_g u = 1 - R(g) with u = 0 on the
boundary therefore produces a metric e^{2u} g of scalar curvature
e^{-2u} > 0 everywhere.  The module supplies the two discretizations this
needs: the standard 5-point Laplacian on 2-D boxes and a polar-grid
Laplacian on disks with the usual axis regularization (the axis value is
coupled to the angular mean of the first ring, which is exact for smooth
fields to second order).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domains import BoxGrid, ScalarField, box_derivative_operators

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

    def node_index(self, i, j):
        """Flat index of ring i >= 1, angle j (axis node is index 0)."""
        return 1 + (i - 1) * self.n_t + (j % self.n_t)


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


def laplacian_matrix(grid):
    """Sparse Laplacian; boundary rows are identity.

    Polar grids use u_rr + u_r / r + u_tt / r^2 with periodic angle and
    the angular-mean axis closure Delta u(0) = 4 (mean ring 1 - u(0)) / h^2.
    Box grids use the 5-point stencil from the shared derivative operators.
    """
    if isinstance(grid, BoxGrid):
        if grid.m != 2:
            raise ValueError("surface solves need a 2-D grid")
        d1, d2 = box_derivative_operators(grid)
        lap = (d2[(0, 0)] + d2[(1, 1)]).tolil()
        lap[grid.boundary, :] = 0.0
        lap[grid.boundary, np.flatnonzero(grid.boundary)] = 1.0
        return lap.tocsc()
    n_r, n_t = grid.n_r, grid.n_t
    h = grid.radius / n_r
    dth = 2.0 * np.pi / n_t
    rows, cols, vals = [], [], []

    def add(rw, cl, v):
        rows.append(rw)
        cols.append(cl)
        vals.append(v)

    # axis node
    add(0, 0, -4.0 / h**2)
    for j in range(n_t):
        add(0, grid.node_index(1, j), 4.0 / (h**2 * n_t))
    for i in range(1, n_r):
        ri = grid.r[i]
        for j in range(n_t):
            me = grid.node_index(i, j)
            inner = 0 if i == 1 else grid.node_index(i - 1, j)
            outer = grid.node_index(i + 1, j)
            add(me, me, -2.0 / h**2 - 2.0 / (ri * dth) ** 2)
            add(me, inner, 1.0 / h**2 - 1.0 / (2.0 * h * ri))
            add(me, outer, 1.0 / h**2 + 1.0 / (2.0 * h * ri))
            add(me, grid.node_index(i, j - 1), 1.0 / (ri * dth) ** 2)
            add(me, grid.node_index(i, j + 1), 1.0 / (ri * dth) ** 2)
    for idx in np.flatnonzero(grid.boundary):
        add(idx, idx, 1.0)
    return sp.csc_matrix(
        (vals, (rows, cols)), shape=(grid.n, grid.n)
    )


@dataclass
class SurfaceProblem:
    """Poisson data for the positive-curvature solve.

    curvature is R(g) as a nodewise field or scalar.  psi, when given, is
    the conformal exponent of g = e^{2 psi} delta; curvature defaults to
    the discretely computed R(g) = -2 e^{-2 psi} Delta psi and the flat
    Laplacian is weighted accordingly.  kind is derived from psi.
    """

    grid: object
    curvature: object = None
    psi: object = None

    def __post_init__(self):
        if self.grid.m != 2:
            raise ValueError("surface solves need a 2-D grid")
        if self.psi is not None:
            vals = np.asarray(getattr(self.psi, "values", self.psi), float)
            if vals.size != self.grid.n:
                raise ValueError("psi must be a nodewise field on the grid")

    @property
    def kind(self):
        return "flat" if self.psi is None else "conformal"

    @cached_property
    def operator(self):
        """(Laplacian, R(g), e^{-2 psi}) at every node, built once."""
        grid = self.grid
        lap = laplacian_matrix(grid)
        psi = _field_values(grid, self.psi, 0.0)
        weight = np.exp(-2.0 * psi)
        if self.curvature is not None:
            R = _field_values(grid, self.curvature, 0.0)
        else:
            R = np.where(grid.boundary, 0.0, -2.0 * weight * (lap @ psi))
        return lap, R, weight


def _field_values(grid, data, default):
    if data is None:
        return np.full(grid.n, float(default))
    vals = np.asarray(getattr(data, "values", data), dtype=float)
    if vals.ndim == 0:
        return np.full(grid.n, float(vals))
    if vals.size != grid.n:
        raise ValueError("field length must match node count")
    return vals


def solve_positive_scalar(problem):
    """Solve -2 Delta_g u = 1 - R(g) with u = 0 on the boundary.

    Returns the ScalarField u; the conformal metric e^{2u} g then has
    scalar curvature e^{-2u} > 0 (see verify_positive_scalar).
    """
    lap, R, weight = problem.operator
    boundary = problem.grid.boundary
    A = sp.diags(np.where(boundary, 1.0, -2.0 * weight)) @ lap
    rhs = np.where(boundary, 0.0, 1.0 - R)
    try:
        lu = spla.splu(A.tocsc())
    except RuntimeError as exc:
        raise RuntimeError(f"linear solve failed: {exc}") from exc
    u = lu.solve(rhs)
    # one step of iterative refinement; the 1/r^2 angular coefficients near
    # the axis otherwise leave a conditioning floor in the residual
    u = u + lu.solve(rhs - A @ u)
    if not np.all(np.isfinite(u)):
        raise RuntimeError("linear solve failed")
    return ScalarField(problem.grid, u)


def verify_positive_scalar(problem, u):
    """Residual and curvature report for a computed solution.

    residual is the sup norm of R(g) - 2 Delta_g u - 1 at interior nodes;
    new_curvature_min is the minimum of e^{-2u} (R(g) - 2 Delta_g u),
    the discrete scalar curvature of e^{2u} g, which the solve makes
    equal to e^{-2u} up to the residual.
    """
    lap, R, weight = problem.operator
    interior = ~problem.grid.boundary
    vals = u.values if isinstance(u, ScalarField) else np.asarray(u, float)
    lhs = R - 2.0 * weight * (lap @ vals)
    residual = float(np.max(np.abs(lhs[interior] - 1.0)))
    new_curv = np.exp(-2.0 * vals[interior]) * lhs[interior]
    return {
        "residual": residual,
        "new_curvature_min": float(new_curv.min()),
        "positive": bool(new_curv.min() > 0.0),
    }
