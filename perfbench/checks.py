"""Output checks for the benchmark workloads.

Every check takes plain arrays and dicts, returns a list of failure
messages (empty when the output passes) and compares the program's output
with a closed form, with the other solver, or with a property the method
has exactly.  None of them compares against a stored copy of an earlier
output.  The closed forms are written out here rather than taken from
sigmaric, so a fault in the program's own formulas cannot hide.
"""

import itertools
from math import comb, log

import numpy as np

# box-dirichlet
BOX_SYMMETRY_TOL = 1e-11
BOX_RESIDUAL_MAX = 1e-9
# the manufactured error must stay below C h^2; at 25^3 the solver's
# error is about 3e-3 h^2
BOX_MANUFACTURED_C = 0.02

# complete-family
PE_BALL_W_TOL = 5e-4
PE_BALL_CORE = 0.9
PE_HK_EINSTEIN_MAX = 1e-3
PE_ANNULUS_MIN_HK = -1e-3
PE_ANNULUS_MAX_HK = 1e-2
COMPLETE_BALL_TOL = 5e-5
COMPLETE_BALL_CORE_DIST = 0.1
ASYMPTOTIC_CONSTANT_TOL = 1e-2

# annulus-ramp
SUBBALL_TOL = 1e-10
ORACLE_DEGREE_TOL = 1e-10
# the FD solution must stay within C h^2 of the oracle; at 1025 nodes the
# measured deviation is about 7e-3 h^2
FD_ORACLE_C = 0.05

# surface-cli
SURFACE_TOL = 1e-6
CSV_COLUMNS_2D = ["x0", "x1", "r", "u", "u_plus_ln_r"]


def einstein_radial(m, k, r):
    """Complete sigma_k solution on the unit ball in R^m with rhs_scale 1:
    ln 2 + (1/2) ln(m-1) + ln C(m, k) / (2k) - ln(1 - r^2)."""
    r = np.asarray(r, float)
    c = log(2.0) + 0.5 * log(m - 1) + log(comb(m, k)) / (2.0 * k)
    return c - np.log1p(-r * r)


def sigma_pair(a, b, j, m):
    """sigma_j of the multiset {a, b x (m - 1)}."""
    out = comb(m - 1, j) * b**j if j <= m - 1 else 0.0
    return out + comb(m - 1, j - 1) * a * b ** (j - 1)


def radial_eigenvalues(r, w, dw, d2w, m):
    """Eigenvalues (a, b) of the sigma_k-Ricci tensor of a radial w at t = 1
    on a flat background; w'/r is replaced by w'' at r = 0."""
    r = np.asarray(r, float)
    at0 = r == 0.0
    over_r = np.where(at0, d2w, dw / np.where(at0, 1.0, r))
    a = (m - 1) * (d2w + over_r)
    b = d2w + (2 * m - 3) * over_r + (m - 2) * dw**2
    return a, b


def _fail_if(failures, bad, message):
    if bad:
        failures.append(message)


def _finite(failures, name, values):
    values = np.asarray(values, float)
    ok = values.size > 0 and bool(np.all(np.isfinite(values)))
    _fail_if(failures, not ok, f"{name} is empty or not finite")
    return ok


def cone_failures(r, w, dw, d2w, m, k, name):
    """sigma_1 .. sigma_k must be positive at every node."""
    failures = []
    if not all(_finite(failures, name, v) for v in (w, dw, d2w)):
        return failures
    a, b = radial_eigenvalues(r, w, dw, d2w, m)
    worst = min(float(np.min(sigma_pair(a, b, j, m)))
                for j in range(1, k + 1))
    _fail_if(failures, not worst > 0.0,
             f"{name} leaves the Garding cone: min sigma_j {worst:.3e}")
    return failures


def uniform_derivatives(r, w):
    """Centered w', w'' at the interior nodes of a uniform radial grid."""
    h = float(r[1] - r[0])
    if not np.allclose(np.diff(r), h, rtol=1e-9, atol=0.0):
        raise ValueError("grid is not uniform")
    dw = (w[2:] - w[:-2]) / (2.0 * h)
    d2w = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
    return r[1:-1], w[1:-1], dw, d2w


# ---------------------------------------------------------------------------
# box-dirichlet


def cube_symmetry_deviation(u3):
    """Largest change of a cube field under the 48 axis permutations and
    reflections of the cube."""
    worst = 0.0
    for perm in itertools.permutations(range(3)):
        v = np.transpose(u3, perm)
        for flips in itertools.product((False, True), repeat=3):
            axes = [a for a in range(3) if flips[a]]
            w = np.flip(v, axis=axes) if axes else v
            worst = max(worst, float(np.max(np.abs(w - u3))))
    return worst


def box_state_failures(residual, margin):
    failures = []
    _fail_if(failures, not residual <= BOX_RESIDUAL_MAX,
             f"residual {residual:.2e} > {BOX_RESIDUAL_MAX:.0e}")
    _fail_if(failures, not margin > 0.0, f"cone margin {margin:.2e} <= 0")
    return failures


def check_box_constant(u3, boundary_value, residual, margin):
    """Constant data on a cube: the solution has the cube's symmetries and
    carries the data on the boundary."""
    failures = box_state_failures(residual, margin)
    if not _finite(failures, "u", u3):
        return failures
    dev = cube_symmetry_deviation(u3)
    _fail_if(failures, not dev <= BOX_SYMMETRY_TOL,
             f"cube symmetry broken by {dev:.2e} > {BOX_SYMMETRY_TOL:.0e}")
    faces = np.concatenate([
        np.take(u3, idx, axis=a).ravel()
        for a in range(3) for idx in (0, -1)
    ])
    off = float(np.max(np.abs(faces - boundary_value)))
    _fail_if(failures, not off <= 1e-12,
             f"boundary values off the data by {off:.2e}")
    return failures


def manufactured_bound(h):
    return BOX_MANUFACTURED_C * h * h


def check_box_manufactured(u, exact, h, residual, margin):
    failures = box_state_failures(residual, margin)
    if not _finite(failures, "u", u):
        return failures
    err = float(np.max(np.abs(u - exact)))
    bound = manufactured_bound(h)
    _fail_if(failures, not err <= bound,
             f"manufactured error {err:.2e} > {bound:.2e} (O(h^2) bound)")
    return failures


# ---------------------------------------------------------------------------
# complete-family


def _hk_fields(record, failures):
    result = record.get("result", {})
    max_abs = result.get("max_abs_Hk")
    min_hk = result.get("min_Hk")
    einstein = result.get("is_einstein")
    if not max_abs or not min_hk or not isinstance(einstein, bool):
        failures.append("record lacks max_abs_Hk, min_Hk or is_einstein")
        return None
    return (np.asarray(max_abs, float), np.asarray(min_hk, float),
            einstein)


def check_pe_ball(record, r, u):
    """Under the beta-tilde normalization every flat-ball member equals
    ln 2 - ln(1 - r^2), so w_4 does and every H_k vanishes."""
    failures = []
    fields = _hk_fields(record, failures)
    if fields is not None:
        max_abs, _, einstein = fields
        _fail_if(failures, not einstein, "ball family not detected Einstein")
        _fail_if(failures, not max_abs.max() <= PE_HK_EINSTEIN_MAX,
                 f"ball max |H_k| {max_abs.max():.2e} > "
                 f"{PE_HK_EINSTEIN_MAX:.0e}")
    core = r <= PE_BALL_CORE
    if not core.any() or not _finite(failures, "w_4", u[core]):
        failures.append("no finite w_4 on the core")
        return failures
    err = float(np.max(np.abs(u[core] - (log(2.0) - np.log1p(-r[core]**2)))))
    _fail_if(failures, not err <= PE_BALL_W_TOL,
             f"w_4 off ln 2 - ln(1 - r^2) by {err:.2e} > "
             f"{PE_BALL_W_TOL:.0e}")
    return failures


def check_pe_annulus(record):
    """The annulus is not Einstein: H_k >= 0 and clearly nonzero."""
    failures = []
    fields = _hk_fields(record, failures)
    if fields is None:
        return failures
    max_abs, min_hk, einstein = fields
    _fail_if(failures, einstein, "annulus family reported Einstein")
    _fail_if(failures, not min_hk.min() >= PE_ANNULUS_MIN_HK,
             f"annulus min H_k {min_hk.min():.2e} < {PE_ANNULUS_MIN_HK:.0e}")
    _fail_if(failures, not max_abs.max() >= PE_ANNULUS_MAX_HK,
             f"annulus max |H_k| {max_abs.max():.2e} < "
             f"{PE_ANNULUS_MAX_HK:.0e}")
    return failures


def check_complete_ball(record, r, u, m, k):
    failures = []
    core = 1.0 - r >= COMPLETE_BALL_CORE_DIST
    if not core.any() or not _finite(failures, "u", u[core]):
        failures.append("no finite u on the core")
        return failures
    err = float(np.max(np.abs(u[core] - einstein_radial(m, k, r[core]))))
    _fail_if(failures, not err <= COMPLETE_BALL_TOL,
             f"complete ball off the closed form by {err:.2e} > "
             f"{COMPLETE_BALL_TOL:.0e}")
    fit = (record.get("result") or {}).get("asymptotics") or {}
    const = fit.get("constant")
    target = 0.5 * log(m - 1) + log(comb(m, k)) / (2.0 * k)
    if not isinstance(const, (int, float)):
        failures.append("record lacks the asymptotic constant")
    else:
        _fail_if(failures, not abs(const - target) <= ASYMPTOTIC_CONSTANT_TOL,
                 f"asymptotic constant {const:.5f} vs {target:.5f}")
    return failures


# ---------------------------------------------------------------------------
# annulus-ramp


def check_subball(r, w, radius, m, k):
    """The oracle on the ball of radius R < 1 with data w*(R) reproduces
    the restriction of the complete unit-ball solution w*."""
    failures = []
    if not _finite(failures, "w", w):
        return failures
    err = float(np.max(np.abs(w - einstein_radial(m, k, r))))
    _fail_if(failures, not err <= SUBBALL_TOL,
             f"sub-ball r <= {radius} off w* by {err:.2e} > "
             f"{SUBBALL_TOL:.0e}")
    return failures


def check_oracle_degrees(w_low, w_high):
    failures = []
    if not (_finite(failures, "w_low", w_low)
            and _finite(failures, "w_high", w_high)):
        return failures
    dev = float(np.max(np.abs(w_low - w_high)))
    _fail_if(failures, not dev <= ORACLE_DEGREE_TOL,
             f"oracle degrees disagree by {dev:.2e} > "
             f"{ORACLE_DEGREE_TOL:.0e}")
    return failures


def fd_oracle_bound(h):
    return FD_ORACLE_C * h * h


def check_fd_vs_oracle(u_fd, u_oracle, h):
    failures = []
    if not (_finite(failures, "u_fd", u_fd)
            and _finite(failures, "u_oracle", u_oracle)):
        return failures
    dev = float(np.max(np.abs(u_fd - u_oracle)))
    bound = fd_oracle_bound(h)
    _fail_if(failures, not dev <= bound,
             f"FD solution off the oracle by {dev:.2e} > {bound:.2e} "
             f"(O(h^2) bound)")
    return failures


# ---------------------------------------------------------------------------
# surface-cli


def check_surface(record, header, r, u):
    """Flat unit disk with R(g) = 0: u = (1 - r^2)/8, which the polar
    stencil reproduces exactly."""
    failures = []
    _fail_if(failures, header != CSV_COLUMNS_2D,
             f"CSV columns {header} != {CSV_COLUMNS_2D}")
    result = record.get("result") or {}
    _fail_if(failures, result.get("positive") is not True,
             "curvature not reported positive")
    if r is None or u is None or not _finite(failures, "u", u):
        return failures + ["CSV lacks finite r and u columns"]
    err = float(np.max(np.abs(u - (1.0 - r * r) / 8.0)))
    _fail_if(failures, not err <= SURFACE_TOL,
             f"u off (1 - r^2)/8 by {err:.2e} > {SURFACE_TOL:.0e}")
    return failures
