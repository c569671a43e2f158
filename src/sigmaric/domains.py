"""Computational domains, finite differences and background curvature.

Two grid families are supported: radial grids on balls/annuli (stored as a
smooth mapping of a uniform parameter, so graded grids keep second-order
stencils second order) and uniform n-dimensional boxes, differentiated at
interior nodes only, on slices of the node array.  Backgrounds are flat
or radial warped products on annuli; conformally flat ones are reduced
by the callers to flat solves of u + phi, and everything else is out of
scope.  FastDiag, the fast Dirichlet Poisson solver on box interiors,
serves the box Newton preconditioner and the surface solve.  Every field
a problem takes on the nodes is read through nodal_values.
"""

from dataclasses import dataclass, field
from math import tanh

import numpy as np
import scipy.sparse as sp

__all__ = [
    "RadialGrid",
    "BoxGrid",
    "ScalarField",
    "nodal_values",
    "BackgroundMetric",
    "make_radial_grid",
    "make_box_grid",
    "uniform_d1",
    "uniform_d2",
    "box_derivative_operators",
    "FastDiag",
    "background_ricci",
    "boundary_distance",
]


@dataclass
class RadialGrid:
    """Radial grid on [r0, r1] given by a smooth map of a uniform parameter.

    nodes[i] = r(xi_i) with xi uniform in [0, 1]; dr and d2r are the map
    derivatives at the nodes, used to push uniform-parameter stencils to the
    radial coordinate.  grading is the per-step spacing ratio (>= 1 clusters
    toward r1; two-sided grids cluster toward both ends).
    """

    r0: float
    r1: float
    nodes: np.ndarray
    dr: np.ndarray
    d2r: np.ndarray
    grading: float
    m: int
    cluster: str = "outer"

    def __post_init__(self):
        if self.r0 < 0 or self.r1 <= self.r0:
            raise ValueError("need 0 <= r0 < r1")
        d = np.diff(self.nodes)
        if np.any(d <= 0):
            raise ValueError("nodes must be strictly increasing")
        if not (
            np.isclose(self.nodes[0], self.r0)
            and np.isclose(self.nodes[-1], self.r1)
        ):
            raise ValueError("nodes must span [r0, r1]")

    @property
    def n(self):
        return self.nodes.size

    @property
    def is_ball(self):
        return self.r0 == 0.0

    @property
    def xi_step(self):
        return 1.0 / (self.n - 1)

    @property
    def boundary(self):
        mask = np.zeros(self.n, dtype=bool)
        mask[-1] = True
        if not self.is_ball:
            mask[0] = True
        return mask


def make_radial_grid(r0, r1, n, grading=1.0, m=3, cluster="outer"):
    """Graded radial grid; grading is the per-step geometric spacing ratio.

    grading > 1 clusters nodes toward r1 (cluster="outer") or toward both
    ends (cluster="both", used for annuli where both boundaries blow up).
    Complete-metric boundary layers need total clustering factors of ~1e5,
    so at large n pass grading just above 1 (the total factor is
    grading**(n-1)).
    """
    if n < 4:
        raise ValueError(
            "need at least 4 nodes: the one-sided second-difference end "
            "rows span 4")
    if not grading >= 1.0:
        raise ValueError("grading must be >= 1")
    xi = np.linspace(0.0, 1.0, n)
    L = r1 - r0
    alpha = (n - 1) * np.log(grading)
    if alpha < 1e-12:
        nodes = r0 + L * xi
        dr = np.full(n, L)
        d2r = np.zeros(n)
    elif cluster == "outer":
        # r(xi) = r0 + L (1 - e^{-a xi})/(1 - e^{-a}): spacing shrinks by
        # the factor `grading` per step toward r1
        den = 1.0 - np.exp(-alpha)
        nodes = r0 + L * (1.0 - np.exp(-alpha * xi)) / den
        dr = L * alpha * np.exp(-alpha * xi) / den
        d2r = -alpha * dr
        nodes[-1] = r1
    elif cluster == "both":
        # symmetric tanh map, fine at both ends, coarse in the middle
        den = 2.0 * tanh(alpha / 2.0)
        s = np.tanh(alpha * (xi - 0.5))
        nodes = r0 + L * (0.5 + s / den)
        c = L * alpha / den
        dr = c * (1.0 - s**2)
        d2r = -2.0 * alpha * c * s * (1.0 - s**2)
        nodes[0], nodes[-1] = r0, r1
    else:
        raise ValueError(f"unknown cluster mode {cluster!r}")
    return RadialGrid(r0, r1, nodes, dr, d2r, grading, m, cluster)


@dataclass
class BoxGrid:
    """Uniform tensor grid on an m-dimensional box."""

    m: int
    lo: np.ndarray
    hi: np.ndarray
    counts: np.ndarray
    points: np.ndarray = field(repr=False)
    boundary: np.ndarray = field(repr=False)
    spacing: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.points.shape[0]


def make_box_grid(lo, hi, counts):
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    counts = np.atleast_1d(np.asarray(counts, dtype=int))
    m = lo.size
    if hi.size != m or counts.size != m:
        raise ValueError("lo, hi, counts must have equal length")
    if np.any(counts < 4):
        raise ValueError(
            "need at least 4 nodes per axis: the box Poisson solver and "
            "surface Laplacian cut their interior blocks from uniform_d2, "
            "whose end rows span 4")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("box corners lo and hi must be finite")
    if not np.all(lo < hi):
        raise ValueError("need lo < hi componentwise")
    mesh = np.meshgrid(*map(np.linspace, lo, hi, counts), indexing="ij")
    points = np.stack(mesh, axis=-1).reshape(-1, m)
    # C order; the interior nodes are the slice [1:-1] of every axis
    boundary = np.pad(np.zeros(counts - 2, bool), 1, constant_values=True)
    spacing = (hi - lo) / (counts - 1)
    return BoxGrid(m, lo, hi, counts, points, boundary.ravel(), spacing)


@dataclass
class ScalarField:
    """Values of a scalar function on a grid."""

    grid: object
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.size != self.grid.n:
            raise ValueError("field length must match node count")


def nodal_values(grid, data, name, default=None):
    """One finite value per node of grid, as a fresh float array.

    data is a scalar, which is broadcast, or an array or ScalarField of
    grid.n values; None stands for default.  Anything else, and any value
    that is not finite, raises a ValueError that names the input.
    """
    data = default if data is None else data
    try:
        vals = np.array(getattr(data, "values", data), dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name} is not numeric: {exc}") from exc
    if vals.ndim == 0:
        vals = np.full(grid.n, vals)
    elif vals.shape != (grid.n,):
        raise ValueError(f"{name} must be a scalar or {grid.n} nodal "
                         f"values, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} must be finite at every node")
    return vals


def uniform_d1(n, h):
    """Second-order first derivative on n uniform nodes of spacing h.

    Centered in the interior, 3-point one-sided at both ends.
    """
    e = np.ones(n)
    D = sp.diags([-e[1:] * 0.5, e[1:] * 0.5], [-1, 1], format="lil") / h
    D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return D.tocsr()


def uniform_d2(n, h):
    """Second-order second derivative on n uniform nodes of spacing h.

    Centered in the interior, 4-point one-sided at both ends (exact on
    cubics).
    """
    e = np.ones(n)
    D = sp.diags([e[1:], -2.0 * e, e[1:]], [-1, 0, 1], format="lil") / h**2
    D[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    D[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h**2
    return D.tocsr()


class FastDiag:
    """Fast diagonalization (Lynch, Rice & Thomas 1964) of the Dirichlet
    second-difference operator on the interior nodes of a box grid.

    The interior block of each axis's 1-d stencil is symmetric,
    A_a = Q_a diag(lam_a) Q_a^T, so sum_a A_a + shift is diagonal in the
    tensor basis Q_1 x ... x Q_m and its inverse costs one product with
    each Q_a on the way in and one on the way out.
    """

    def __init__(self, grid):
        self.shape = tuple(grid.counts)
        self.interior = (slice(1, -1),) * grid.m
        self.Q = []
        lam = 0.0
        for a in range(grid.m):
            A = uniform_d2(grid.counts[a], grid.spacing[a])[1:-1, 1:-1]
            lam_a, Q_a = np.linalg.eigh(A.toarray())
            self.Q.append(Q_a)
            lam = np.add.outer(lam, lam_a)
        self.lam = lam

    def _apply(self, x, transpose):
        # each pass contracts the leading axis and puts its result last
        for Q in self.Q:
            x = np.moveaxis(x, 0, -1) @ (Q if transpose else Q.T)
        return x

    def solve(self, r, shift):
        """(sum_a A_a + shift)^{-1} r for r shaped like the interior."""
        return self._apply(self._apply(r, True) / (self.lam + shift), False)


def box_derivative_operators(grid):
    """Centered second-order differences at the interior nodes of a box.

    Returns derivatives(v), which maps nodal values in C order to a dict
    of interior-shaped arrays, d[a,] = d_a v and d[a, b] = d_a d_b v for
    a <= b (mixed ones nested: d_a of d_b v), read off shifted slices of
    v.reshape(counts).  The slices are built once, here.
    """
    m, shape = grid.m, tuple(grid.counts)
    c1, c2 = 0.5 / grid.spacing, 1.0 / grid.spacing**2
    up, down, whole = slice(2, None), slice(None, -2), slice(None)

    def at(axes, rest=slice(1, -1)):
        """Index taking axes[a] along each listed axis a, rest elsewhere."""
        return tuple(axes.get(a, rest) for a in range(m))

    centre = at({})
    shifts = [(at({b: up}), at({b: down})) for b in range(m)]
    # d_b v on every node of the axes a < b, which d_a then shifts
    wide = [(at({b: up}, whole), at({b: down}, whole)) for b in range(m)]
    mixed = {(a, b): (at({a: up, b: whole}), at({a: down, b: whole}))
             for b in range(m) for a in range(b)}

    def derivatives(v):
        v = v.reshape(shape)
        twice = 2.0 * v[centre]
        d = {}
        for b, (hi, lo) in enumerate(shifts):
            d[b,] = c1[b] * (v[hi] - v[lo])
            d[b, b] = c2[b] * (v[hi] - twice + v[lo])
            if b:
                d_b = c1[b] * (v[wide[b][0]] - v[wide[b][1]])
                for a in range(b):
                    hi_a, lo_a = mixed[a, b]
                    d[a, b] = c1[a] * (d_b[hi_a] - d_b[lo_a])
        return d

    return derivatives


@dataclass
class BackgroundMetric:
    """Background metric g and rho = -Ric at every node of a grid."""

    grid: object
    kind: str
    g: np.ndarray
    rho: np.ndarray

    def __post_init__(self):
        n, m = self.grid.n, self.grid.m
        if self.g.shape != (n, m, m) or self.rho.shape != (n, m, m):
            raise ValueError("g and rho must be (n, m, m) arrays")
        if np.any(np.linalg.eigvalsh(self.g)[:, 0] <= 0):
            raise ValueError("metric must be positive definite at every node")


def background_ricci(grid, kind="flat", profile=None):
    """Build a BackgroundMetric with its rho = -Ric field.

    kind="flat": rho = 0.  kind="warped": dr^2 + f(r)^2 times the round
    sphere on an annulus, with profile = (f, f', f'') callables; uses the
    textbook closed-form radial/tangential Ricci eigenvalues.  Balls are
    refused: g degenerates at r = 0.
    """
    m, n = grid.m, grid.n
    if kind == "flat":
        eye = np.broadcast_to(np.eye(m), (n, m, m)).copy()
        return BackgroundMetric(grid, kind, eye, np.zeros((n, m, m)))
    if kind == "warped":
        if not isinstance(grid, RadialGrid) or grid.is_ball:
            raise TypeError(
                "warped backgrounds need an annulus grid (r0 > 0); "
                "dr^2 + f^2 g_sphere degenerates at the centre of a ball"
            )
        f, df, d2f = profile
        r = grid.nodes
        fr = np.array([f(x) for x in r])
        dfr = np.array([df(x) for x in r])
        d2fr = np.array([d2f(x) for x in r])
        if np.any(fr <= 0):
            raise ValueError("warped profile must be positive at every node")
        # g = dr^2 + f^2 g_{S^{m-1}}: Ric_rr = -(m-1) f''/f,
        # Ric_tan = -(f''/f) - (m-2)(f'^2 - 1)/f^2 (per unit tangent frame)
        ric_rad = -(m - 1) * d2fr / fr
        ric_tan = -d2fr / fr - (m - 2) * (dfr**2 - 1.0) / fr**2
        tan = np.arange(1, m)
        g = np.zeros((n, m, m))
        g[:, 0, 0] = 1.0
        g[:, tan, tan] = (fr**2)[:, None]
        rho = np.zeros((n, m, m))
        rho[:, 0, 0] = -ric_rad
        rho[:, tan, tan] = (-ric_tan * fr**2)[:, None]
        return BackgroundMetric(grid, kind, g, rho)
    raise ValueError(f"unknown background kind {kind!r}")


def boundary_distance(grid):
    """Exact Euclidean distance from each node to the domain boundary."""
    if isinstance(grid, BoxGrid):
        d = np.minimum(grid.points - grid.lo, grid.hi - grid.points)
        return ScalarField(grid, d.min(axis=1))
    if isinstance(grid, RadialGrid):
        d = grid.r1 - grid.nodes
        if not grid.is_ball:
            d = np.minimum(d, grid.nodes - grid.r0)
        return ScalarField(grid, d)
    raise TypeError(f"unsupported grid {type(grid)!r}")

