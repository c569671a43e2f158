"""The benchmark's workloads: their inputs, operations and checks.

A workload is built once per process from the seed (its constructor) and
then runs whole rounds of the same operations.  An ApiOp calls the sigmaric
functions in the main process; a CliOp is one `sigmaric` command run
through sigmaric.cli.main in a process of its own.  Calls go through module
attributes (cs.solve_dirichlet, not an imported name) so that the traced
run sees them.  Why each workload exists is in README.md.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

BOX_NODES = 25
ANNULUS = dict(r0=0.5, r1=1.0, m=4, k=3, j1=0.5, j0=0.0)
ORACLE_DEGREES = (48, 64)
FD_NODES = 1025
SUBBALL_RADIUS = 0.9
SUBBALL_ORDERS = (2, 3)
SUBBALL_DEGREE = 48
INTERP_POINTS = 41


@dataclass
class ApiOp:
    name: str
    call: Callable[[], object]
    # check(output, outputs of the earlier operations of the round)
    check: Callable[[object, dict], list]


@dataclass
class CliOp:
    name: str
    argv: list
    # check(JSON record, CSV table {"header": [...], column: array})
    check: Callable[[dict, dict], list]


def _sigma2(W):
    """sigma_2 of the eigenvalues of each (3, 3) matrix in W."""
    tr = np.trace(W, axis1=1, axis2=2)
    return 0.5 * (tr * tr - np.einsum("iab,iba->i", W, W))


def manufactured_data(y):
    """Manufactured k = 2 solution u_m at points y of the unit cube and the
    rhs factor f = sigma_2(W[u_m]) e^{-4 u_m} that makes it exact."""
    phase = 2.0 * y[:, 0] + y[:, 1] - y[:, 2]
    um = 0.2 * np.sum((y - 0.4) ** 2, axis=1) + 0.05 * np.sin(phase)
    c = np.array([2.0, 1.0, -1.0])
    grad = 0.4 * (y - 0.4) + 0.05 * np.cos(phase)[:, None] * c
    hess = (0.4 * np.eye(3)
            - 0.05 * np.sin(phase)[:, None, None] * np.outer(c, c))
    # m = 3: W = hess - grad grad^T + (|grad|^2 + lap) I
    lap = np.trace(hess, axis1=1, axis2=2)
    W = hess - np.einsum("ia,ib->iab", grad, grad)
    W += (np.sum(grad * grad, axis=1) + lap)[:, None, None] * np.eye(3)
    return um, _sigma2(W) * np.exp(-4.0 * um)


def cube_symmetry(seed):
    """A seed-chosen element of the cube's symmetry group: an axis
    permutation and a set of reflected axes."""
    rng = np.random.default_rng(seed)
    return rng.permutation(3), rng.integers(0, 2, 3).astype(bool)


class BoxDirichlet:
    """Dirichlet solves on a uniform BOX_NODES^3 cube.

    constant: k = 3, j = 1, checked by the cube's symmetries.  manufactured:
    k = 2 with variable data and rhs factor, checked against u_m.  The seed
    picks the symmetry applied to u_m's coordinates; the discretization has
    that symmetry exactly, so every seed does the same work.
    """

    name = "box-dirichlet"

    def __init__(self, seed):
        from sigmaric import continuation_solver as cs, domains

        n = BOX_NODES
        grid = domains.make_box_grid([0, 0, 0], [1, 1, 1], [n, n, n])
        bg = domains.background_ricci(grid, "flat")
        perm, flips = cube_symmetry(seed)
        y = grid.points[:, perm]
        y[:, flips] = 1.0 - y[:, flips]
        um, f = manufactured_data(y)
        self.h = float(grid.spacing[0])
        self.um = um
        self.constant = cs.SolveConfig(grid=grid, background=bg, k=3,
                                       boundary_data=1.0)
        self.manufactured = cs.SolveConfig(grid=grid, background=bg, k=2,
                                           boundary_data=um, rhs_factor=f)
        self.cs = cs

    def operations(self):
        cs, n = self.cs, BOX_NODES
        return [
            ApiOp("constant-k3", lambda: cs.solve_dirichlet(self.constant),
                  lambda s, _: checks.check_box_constant(
                      s.u.values.reshape(n, n, n), 1.0, s.residual_norm,
                      s.cone_margin)),
            ApiOp("manufactured-k2",
                  lambda: cs.solve_dirichlet(self.manufactured),
                  lambda s, _: checks.check_box_manufactured(
                      s.u.values, self.um, self.h, s.residual_norm,
                      s.cone_margin)),
        ]


def _profile_cone(profile, m, k, name):
    return checks.cone_failures(profile.r, profile.w, profile.dw,
                                profile.d2w, m, k, name)


class AnnulusRamp:
    """The m = 4, k = 3 annulus [0.5, 1] with data 0.5 outside and 0
    inside, by the collocation oracle at two degrees and by the FD solver,
    plus two closed-form sub-balls solved by the oracle.  The seed picks
    the points at which the two oracle degrees are compared."""

    name = "annulus-ramp"

    def __init__(self, seed):
        from sigmaric import continuation_solver as cs, domains
        from sigmaric import radial_oracle as ro

        a = ANNULUS
        grid = domains.make_radial_grid(a["r0"], a["r1"], FD_NODES, m=a["m"])
        data = np.where(grid.nodes > 0.5 * (a["r0"] + a["r1"]),
                        a["j1"], a["j0"])
        self.fd = cs.SolveConfig(grid=grid,
                                 background=domains.background_ricci(grid),
                                 k=a["k"], boundary_data=data)
        self.nodes = grid.nodes
        rng = np.random.default_rng(seed)
        self.points = np.sort(rng.uniform(a["r0"], a["r1"], INTERP_POINTS))
        self.subball_data = {
            k: float(checks.einstein_radial(a["m"], k, SUBBALL_RADIUS))
            for k in SUBBALL_ORDERS
        }
        self.cs, self.ro = cs, ro

    def _oracle(self, n):
        a = ANNULUS
        return self.ro.bvp_solve(a["r0"], a["r1"], m=a["m"], k=a["k"],
                                 j1=a["j1"], j0=a["j0"], n=n)

    def _check_high(self, profile, prior):
        m, k = ANNULUS["m"], ANNULUS["k"]
        failures = _profile_cone(profile, m, k, "oracle")
        low = prior.get(f"oracle-n{ORACLE_DEGREES[0]}")
        if low is None:
            return failures + ["no low-degree oracle solution to compare"]
        return failures + checks.check_oracle_degrees(
            low.interp(self.points), profile.interp(self.points))

    def _check_fd(self, state, prior):
        m, k = ANNULUS["m"], ANNULUS["k"]
        failures = []
        if not state.cone_margin > 0.0:
            failures.append(f"FD cone margin {state.cone_margin:.2e} <= 0")
        u = state.u.values
        failures += checks.cone_failures(
            *checks.uniform_derivatives(self.nodes, u), m, k, "FD solution")
        oracle = prior.get(f"oracle-n{ORACLE_DEGREES[0]}")
        if oracle is None:
            return failures + ["no oracle solution to compare"]
        h = float(self.nodes[1] - self.nodes[0])
        return failures + checks.check_fd_vs_oracle(
            u, oracle.interp(self.nodes), h)

    def _subball(self, k):
        return lambda: self.ro.bvp_solve(
            0.0, SUBBALL_RADIUS, m=ANNULUS["m"], k=k,
            j1=self.subball_data[k], n=SUBBALL_DEGREE)

    def operations(self):
        m, k = ANNULUS["m"], ANNULUS["k"]
        lo, hi = ORACLE_DEGREES
        ops = [
            ApiOp(f"oracle-n{lo}", lambda: self._oracle(lo),
                  lambda p, _: _profile_cone(p, m, k, "oracle")),
            ApiOp(f"oracle-n{hi}", lambda: self._oracle(hi),
                  self._check_high),
            ApiOp(f"fd-{FD_NODES}", lambda: self.cs.solve_dirichlet(self.fd),
                  self._check_fd),
        ]
        for kb in SUBBALL_ORDERS:
            ops.append(ApiOp(
                f"subball-k{kb}", self._subball(kb),
                lambda p, _, kb=kb: (
                    checks.check_subball(p.r, p.w, SUBBALL_RADIUS, m, kb)
                    + _profile_cone(p, m, kb, "sub-ball"))))
        return ops


def _radial_columns(table):
    return table["r"], table["u"]


class CompleteFamily:
    """pe-invariant on the flat ball and the flat annulus and a complete
    ball solve, each a `sigmaric` command.  Inputs do not depend on the
    seed; the seed orders the commands within a round."""

    name = "complete-family"

    def __init__(self, seed):
        import sigmaric.cli  # noqa: F401  (set-up cost of every command)

        self.order = np.random.default_rng(seed).permutation(3)

    def operations(self):
        ops = [
            CliOp("pe-ball",
                  ["pe-invariant", "--n", "3", "--grid", "384"],
                  lambda rec, t: checks.check_pe_ball(
                      rec, *_radial_columns(t))),
            CliOp("pe-annulus",
                  ["pe-invariant", "--n", "3", "--background",
                   "flat-annulus", "--grid", "384"],
                  lambda rec, t: checks.check_pe_annulus(rec)),
            CliOp("complete-ball",
                  ["solve-complete", "--dim", "3", "--k", "3", "--domain",
                   "ball", "--grid", "2048"],
                  lambda rec, t: checks.check_complete_ball(
                      rec, *_radial_columns(t), 3, 3)),
        ]
        return [ops[i] for i in self.order]


class SurfaceCli:
    """`sigmaric surface` on the flat unit disk, 256 x 256 polar grid, with
    --out and --csv.  Its input does not depend on the seed."""

    name = "surface-cli"

    def __init__(self, seed):
        import sigmaric.cli  # noqa: F401  (set-up cost of every command)

    def operations(self):
        return [CliOp(
            "surface-disk",
            ["surface", "--domain", "disk", "--grid", "256,256"],
            lambda rec, t: checks.check_surface(
                rec, t["header"], t.get("r"), t.get("u")))]


WORKLOADS = {w.name: w for w in (BoxDirichlet, CompleteFamily, AnnulusRamp,
                                 SurfaceCli)}
