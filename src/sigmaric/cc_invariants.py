"""Conformally compact solve families and their scale-invariant comparisons.

For a compactified background gbar on a bounded domain, each order k of the
complete sigma_k problem (normalized so that sigma_k = beta_tilde e^{2k w_k})
singles out one conformally compact representative h_k = e^{2 w_k} gbar.
The nodewise differences H_k = w_k - w_{m} (m = n + 1 the ambient dimension)
are independent of the choice of compactification: rescaling gbar by e^{2 phi}
shifts every w_k by the same -phi.  They vanish identically exactly when the
whole family collapses to a single Einstein representative, which makes
max |H_k| a computable Einstein detector.

Conformally flat backgrounds gbar = e^{2 phi} delta are handled by the exact
reduction v = w + phi to a flat solve, so the only discretizations needed are
the flat ones from continuation_solver.
"""

from dataclasses import dataclass, field as dc_field, replace
from math import comb

import numpy as np

from .continuation_solver import SolveConfig, solve_complete
from .domains import (
    RadialGrid,
    ScalarField,
    background_ricci,
    make_radial_grid,
    nodal_values,
)

__all__ = [
    "CCConstants",
    "CCSetup",
    "CCFamily",
    "constants",
    "solve_family",
    "compute_Hk",
    "invariance_check",
    "einstein_benchmark_tolerance",
    "detection_report",
]


@dataclass
class CCConstants:
    """Normalization constants of the order-k problems in boundary dim n."""

    n: int
    k: int
    beta: float
    beta_tilde: float
    c: float
    c_tilde: float


def constants(n, k):
    """Constants of the order-k family over an n-dimensional boundary.

    beta and c normalize the Schouten-tensor form of the equation,
    beta_tilde and c_tilde the Ricci form used by the solvers here;
    beta_tilde = sigma_k of the eigenvalue vector (n, ..., n) in
    dimension n + 1, the value attained at the model Einstein metric.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 2):
        raise ValueError("need integer boundary dimension n >= 2")
    if not 1 <= k <= n + 1:
        raise ValueError("need 1 <= k <= n + 1")
    return CCConstants(
        n=int(n),
        k=int(k),
        beta=comb(n + 1, k) / 2.0**k,
        beta_tilde=float(n**k * comb(n + 1, k)),
        c=2.0 ** (1 - k) * comb(n, k),
        c_tilde=float(2 * (n - 1) * n ** (k - 1) * comb(n, k)),
    )


@dataclass
class CCSetup:
    """One family computation: grid, boundary dimension, compactification.

    phi, when given, is the conformal exponent of the background
    gbar = e^{2 phi} delta, finite up to the boundary: a nodal field or a
    scalar (domains.nodal_values; None means flat).
    tol_residual is every member's SolveConfig.tol_residual.
    """

    grid: object
    n: int
    phi: object = None
    tol_residual: float = 1e-10

    def __post_init__(self):
        if self.grid.m != self.n + 1:
            raise ValueError("grid dimension must equal n + 1")
        nodal_values(self.grid, self.phi, "phi", default=0.0)


@dataclass
class CCFamily:
    """The solved family w_1 .. w_{n+1} on a shared grid."""

    setup: CCSetup
    w: list
    states: list = dc_field(default_factory=list)


def solve_family(setup):
    """Solve the complete order-k problems for k = 1 .. n + 1.

    Every member uses rhs_scale = beta_tilde(k, n) on the same grid, so the
    model Einstein representative solves all of them with one and the same
    exponent.  A conformally flat background is reduced exactly to a flat
    solve of v = w + phi and phi is subtracted afterwards.  Order 1 starts
    cold (on radial grids from solve_complete's closed-form ball barrier),
    and order k + 1 from order k's rungs (solve_complete's warm); on the
    ball, whose orders share one exact solution, each rung then takes 1-2
    iterations.
    """
    grid = setup.grid
    m = setup.n + 1
    phi = nodal_values(grid, setup.phi, "phi", default=0.0)
    bg = background_ricci(grid, "flat")
    fields, states, rungs = [], [], ()
    for k in range(1, m + 1):
        cfg = SolveConfig(
            grid=grid,
            background=bg,
            k=k,
            rhs_scale=constants(setup.n, k).beta_tilde,
            tol_residual=setup.tol_residual,
        )
        state = solve_complete(cfg, warm=rungs)
        rungs, state.rungs = state.rungs, None  # keep only the last order's
        states.append(state)
        fields.append(ScalarField(grid, state.u.values - phi))
    return CCFamily(setup=setup, w=fields, states=states)


def compute_Hk(family):
    """Nodewise invariants H_k = w_k - w_{n+1}, k = 1 .. n.

    Accepts a CCFamily or a plain list of ScalarFields on one grid.
    """
    fields = family.w if isinstance(family, CCFamily) else list(family)
    if len(fields) < 2:
        raise ValueError("need at least two family members")
    grid = fields[0].grid
    if any(f.grid is not grid for f in fields):
        raise ValueError("family members must share one grid")
    top = fields[-1].values
    return [ScalarField(grid, f.values - top) for f in fields[:-1]]


def invariance_check(family, phi_shift):
    """Max deviation of every H_k of a solved family under
    gbar -> e^{2 phi_shift} gbar, which solves the moved family.

    The exact flat reduction makes the two families differ by the common
    shift -phi_shift, so the deviation measures only arithmetic noise; it
    is reported rather than assumed.
    """
    setup = family.setup
    phi = nodal_values(setup.grid, setup.phi, "phi", default=0.0)
    shift = nodal_values(setup.grid, phi_shift, "phi_shift")
    base = compute_Hk(family)
    moved = replace(setup, phi=phi + shift)
    new = compute_Hk(solve_family(moved))
    return max(
        float(np.max(np.abs(a.values - b.values)))
        for a, b in zip(base, new)
    )


def einstein_benchmark_tolerance(n, node_count, grading=1.0):
    """Measured grid tolerance: max |H_k| on the unit-ball model.

    The ball family has an exact common Einstein solution, so any spread
    between its members is pure discretization error on this resolution.
    """
    grid = make_radial_grid(0.0, 1.0, node_count, grading=grading, m=n + 1)
    fam = solve_family(CCSetup(grid=grid, n=n))
    return max(float(np.max(np.abs(h.values))) for h in compute_Hk(fam))


def _is_ball_model(setup):
    """Whether the family is the unit-ball model family that
    einstein_benchmark_tolerance solves at its grid's node count and
    grading, so its threshold can be read off the family itself."""
    grid = setup.grid
    if (setup.phi is not None or not isinstance(grid, RadialGrid)
            or setup.tol_residual != CCSetup.tol_residual):
        return False
    model = make_radial_grid(0.0, 1.0, grid.n, grading=grid.grading,
                             m=grid.m)
    return all(np.array_equal(getattr(grid, f), getattr(model, f))
               for f in ("r0", "r1", "nodes", "dr", "d2r"))


def detection_report(family, threshold=None):
    """Einstein-detection verdict for a solved family.

    threshold defaults to 10x the measured unit-ball tolerance at the same
    node count and grading; when the family is that unit-ball model, its
    own max |H_k| is that tolerance and no second family is solved.  The
    threshold is always echoed in the report, never silently applied.
    """
    setup = family.setup
    grid = setup.grid
    hk = compute_Hk(family)
    max_abs = [float(np.max(np.abs(h.values))) for h in hk]
    if threshold is None:
        if _is_ball_model(setup):
            threshold = 10.0 * max(max_abs)
        else:
            threshold = 10.0 * einstein_benchmark_tolerance(
                setup.n, grid.n, grading=grid.grading
            )
    return {
        "n": setup.n,
        "max_abs_Hk": max_abs,
        "min_Hk": [float(h.values.min()) for h in hk],
        "threshold": float(threshold),
        "is_einstein": bool(max(max_abs) <= threshold),
    }
