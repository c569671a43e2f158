"""Batch front end: config parsing, solver orchestration, serialization.

Subcommands: solve-dirichlet, solve-complete, asymptotics, pe-invariant,
surface, verify.  Every run writes a JSON result record (validated against
the shipped schema) and, on request, a CSV field dump with the fixed columns
x0..x{m-1}, r, u, u_plus_ln_r.

Configs are plain key = value text (optional [section] headers are
cosmetic) for one subcommand, which takes only the keys it reads;
command-line flags override file values.  Exit codes: 0 success,
2 config parse error, 3 solver failure, 4 verify invariant violation.
Timestamps live in a separate meta block so the result payload is
deterministic for a fixed config and seed; the SIGMARIC_OUTPUT_DIR
environment variable redirects relative output paths.
"""

import argparse
import ast
import itertools
import json
import os
import sys
import time
from datetime import datetime, timezone
from functools import cache
from math import log
from pathlib import Path

import numpy as np
import jsonschema

from . import __version__
from .cc_invariants import (
    CCSetup,
    constants,
    detection_report,
    invariance_check,
    solve_family,
)
from .continuation_solver import (
    ContinuationFailure,
    InvariantViolation,
    SolveConfig,
    complete_grading,
    solve_complete,
    solve_dirichlet,
)
from .domains import (
    background_ricci,
    make_box_grid,
    make_radial_grid,
)
from .radial_oracle import BvpFailure, bvp_solve
from .surface_scalar import (
    SurfaceProblem,
    make_polar_disk,
    solve_positive_scalar,
    verify_positive_scalar,
)
from .symfun import cone_contains, maclaurin_ratios, sigma_all

SCHEMA_PATH = Path(__file__).parent / "schemas" / "result-v1.schema.json"

EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


class ConfigError(ValueError):
    """Config file or flag value cannot be interpreted."""


# ---------------------------------------------------------------------------
# configuration

# every setting: name -> (parser, default, help); the subcommands that
# read it take it as a config-file key and as the flag --<name with hyphens>
_KEYS = {
    "dim": (int, 3, "ambient dimension m"),
    "k": (int, None, "symmetric-function order"),
    "n": (int, 3, "boundary dimension"),
    "domain": (str, "ball", "ball | annulus | box | disk (surface)"),
    "r0": (float, 0.5, "inner radius (annulus)"),
    "r1": (float, 1.0, "outer radius"),
    "lo": (str, "0", "box corner, comma separated"),
    "hi": (str, "1", "box corner, comma separated"),
    "grid": (str, "257", "node counts, comma separated"),
    "grading": (str, "auto", "radial grading ratio or 'auto'"),
    "cluster": (str, "auto", "auto | outer | both"),
    "background": (str, "flat", "flat | warped:{sinh,sin,cosh} | "
                   "flat-ball | flat-annulus (pe-invariant)"),
    "j": (float, 0.0, "constant boundary data"),
    "data_file": (str, None, "per-node boundary data file"),
    "rhs_scale": (float, 1.0, "factor c > 0 of the right-hand side c e^{2ku}"),
    "tol": (float, 1e-10, "residual tolerance tol_residual"),
    "phi": (str, None, "conformal exponent expression in r"),
    "curvature": (str, None, "curvature expression in x, y, r"),
    "psi": (str, None, "background exponent expression"),
    "seed": (int, 0, "seed for verify suites"),
    "out": (str, None, "JSON result path"),
    "csv": (str, None, "CSV field dump path"),
}

# the keys each subcommand reads, which are all it takes
_SOLVE_KEYS = ("dim", "k", "domain", "r0", "r1", "lo", "hi", "grid",
               "grading", "cluster", "background", "rhs_scale", "tol", "out",
               "csv")
_COMMAND_KEYS = {
    "solve-dirichlet": _SOLVE_KEYS + ("j", "data_file"),
    "solve-complete": _SOLVE_KEYS,
    "asymptotics": _SOLVE_KEYS,
    "pe-invariant": ("n", "r0", "r1", "grid", "grading", "cluster",
                     "background", "phi", "tol", "out", "csv"),
    "surface": ("domain", "r1", "grid", "curvature", "psi", "out", "csv"),
    "verify": ("seed", "out"),
}


def _config_lines(text):
    """(line number, key, typed value) of each key = value line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            yield lineno, key, _KEYS[key][0](val)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad value for {key!r}: {exc}"
            ) from exc


def parse_config(text):
    """Parse key = value text into a dict of typed values.

    Lines may be blank, comments (#), cosmetic [section] headers, or
    key = value pairs.  Unknown keys and malformed numbers raise
    ConfigError naming the offending line.
    """
    return {key: value for _, key, value in _config_lines(text)}


def resolve_config(args):
    """Merge defaults, config file, and flags (flags win) over the keys
    args.command reads; a file line with another key is a ConfigError."""
    cfg = {key: _KEYS[key][1] for key in _COMMAND_KEYS[args.command]}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, key, value in _config_lines(path.read_text()):
            if key not in cfg:
                raise ConfigError(f"line {lineno}: {args.command} does not "
                                  f"read {key!r}")
            cfg[key] = value
    for key in cfg:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
        parse, _, text = _KEYS[key]
        if parse is float and not np.isfinite(cfg[key]):
            raise ConfigError(f"{key}: {text} must be finite, got {cfg[key]}")
    if "k" in cfg and cfg["k"] is None:
        cfg["k"] = cfg["dim"]
    return cfg


def _parse_counts(text, expect=None):
    parts = [p for p in str(text).replace(",", " ").split() if p]
    try:
        counts = [int(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"bad grid spec {text!r}: {exc}") from exc
    if expect is not None and len(counts) == 1:
        counts = counts * expect
    if expect is not None and len(counts) != expect:
        raise ConfigError(f"grid spec {text!r}: expected {expect} counts")
    return counts


_EXPR_FUNCTIONS = {
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "log": np.log, "sqrt": np.sqrt, "abs": np.abs, "tanh": np.tanh,
    "cosh": np.cosh, "sinh": np.sinh, "minimum": np.minimum,
    "maximum": np.maximum, "where": np.where,
}
_EXPR_NODES = (ast.Expression, ast.BinOp, ast.UnaryOp, ast.Compare,
               ast.operator, ast.unaryop, ast.cmpop, ast.Load)


def _eval_expression(expr, env):
    """Evaluate a field expression in env, pi, e and _EXPR_FUNCTIONS.

    Only numbers, those names, arithmetic, comparisons and calls of the
    functions pass the syntax check, so no string reaches attributes.
    numpy's floating-point warnings are off: the problem that takes the
    values rejects any that is not finite, naming the key.
    """
    names = {"pi": np.pi, "e": np.e, **_EXPR_FUNCTIONS, **env}
    try:
        tree = ast.parse(expr, mode="eval")
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                ok = (isinstance(node.func, ast.Name)
                      and node.func.id in _EXPR_FUNCTIONS)
            elif isinstance(node, ast.Constant):
                ok = type(node.value) in (int, float)
            elif isinstance(node, ast.Name):
                ok = node.id in names
            else:
                ok = isinstance(node, _EXPR_NODES)
            if not ok:
                raise ValueError(f"{ast.unparse(node)!r} is not allowed")
        with np.errstate(all="ignore"):
            return eval(compile(tree, "<expression>", "eval"),
                        {"__builtins__": {}}, names)
    except Exception as exc:
        raise ConfigError(f"bad expression {expr!r}: {exc}") from exc


def _finite(key, text):
    """float(text) if that is finite, else a ConfigError naming key."""
    try:
        if np.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ConfigError(f"{key}: expected a finite number, got {text!r}")


def _make_grid(cfg, complete=False, m=None, domain=None):
    """The grid of cfg's dim and domain, unless m and domain are given.
    cluster auto is both on a complete annulus, else outer."""
    m = m or cfg["dim"]
    domain = domain or cfg["domain"]
    if domain in ("ball", "annulus"):
        n, = _parse_counts(cfg["grid"], expect=1)
        grading = cfg["grading"]
        if grading == "auto":
            grading = complete_grading(n) if complete else 1.0
        else:
            grading = _finite("grading", grading)
        r0 = 0.0 if domain == "ball" else cfg["r0"]
        cluster = cfg["cluster"]
        both = complete and domain == "annulus"
        if cluster == "auto":
            cluster = "both" if both else "outer"
        elif both and cluster == "outer":
            raise ConfigError("cluster: a complete annulus needs 'both': "
                              "both spheres carry a boundary layer")
        return make_radial_grid(r0, cfg["r1"], n, grading=grading, m=m,
                                cluster=cluster)
    if domain == "box":
        counts = _parse_counts(cfg["grid"], expect=m)
        corners = []
        for key, default in (("lo", "0"), ("hi", "1")):
            parts = str(cfg[key]).replace(",", " ").split() or [default]
            if len(parts) == 1:
                parts *= m
            corners.append([_finite(key, p) for p in parts])
        return make_box_grid(*corners, counts)
    raise ConfigError(f"unknown domain {domain!r}")


def _make_background(cfg, grid):
    spec = cfg["background"]
    if spec == "flat":
        return background_ricci(grid, "flat")
    if spec.startswith("warped:"):
        name = spec.split(":", 1)[1]
        profiles = {
            "sinh": (np.sinh, np.cosh, np.sinh),
            "sin": (np.sin, np.cos, lambda r: -np.sin(r)),
            "cosh": (np.cosh, np.sinh, np.cosh),
        }
        if name not in profiles:
            raise ConfigError(f"unknown warped profile {name!r}")
        return background_ricci(grid, "warped", profile=profiles[name])
    raise ConfigError(f"unknown background {spec!r}")


def _boundary_data(cfg, grid):
    if cfg["data_file"]:
        path = Path(cfg["data_file"])
        if not path.exists():
            raise ConfigError(f"data file not found: {path}")
        try:
            vals = np.loadtxt(path, dtype=float, ndmin=1)
        except ValueError as exc:
            raise ConfigError(f"bad data file {path}: {exc}") from exc
        return vals
    return cfg["j"]


# ---------------------------------------------------------------------------
# output

def _output_path(path):
    base = os.environ.get("SIGMARIC_OUTPUT_DIR")
    p = Path(path)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind in "biuf":
            return obj.tolist()
        return [_json_safe(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


@cache
def _record_validator():
    """The schema's validator, built once per process.  Its items keyword
    accepts a list for {"type": "number"} in one pass when every element
    is a plain float or int (not bool); other lists take the stock path.
    The shipped schema is checked against its metaschema by the tests,
    not here: it does not change between runs."""
    schema = json.loads(SCHEMA_PATH.read_text())
    base = jsonschema.validators.validator_for(schema)
    stock_items = base.VALIDATORS["items"]

    def items(validator, item_schema, instance, parent):
        if (item_schema == {"type": "number"} and isinstance(instance, list)
                and {float, int}.issuperset(map(type, instance))):
            return
        yield from stock_items(validator, item_schema, instance, parent)

    return jsonschema.validators.extend(base, {"items": items})(schema)


def write_record(command, cfg, result, wall_time, out_path=None):
    """Assemble, validate, and optionally write the JSON result record."""
    record = {
        "schema_version": 1,
        "command": command,
        "config": _json_safe({k: v for k, v in cfg.items()
                              if k not in ("out", "csv")}),
        "result": _json_safe(result),
        "meta": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": float(wall_time),
            "package_version": __version__,
        },
    }
    _record_validator().validate(record)
    if out_path:
        path = _output_path(out_path)
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return record


def write_csv(path, grid, u):
    """Field dump with fixed columns: x0..x{m-1}, r, u, u_plus_ln_r.

    Floats are written as their repr in CRLF rows, the bytes csv.writer
    gives; u_plus_ln_r is blank where it is not finite (at r = 0)."""
    path = _output_path(path)
    if hasattr(grid, "points"):
        pts = np.asarray(grid.points, dtype=float)
    else:
        pts = grid.nodes[:, None]
    r = np.linalg.norm(pts, axis=1)
    with np.errstate(divide="ignore"):
        u_ln_r = u + np.log(r)
    header = [f"x{a}" for a in range(pts.shape[1])] + ["r", "u",
                                                        "u_plus_ln_r"]
    table = np.column_stack([pts, r, u, u_ln_r])
    finite = np.isfinite(u_ln_r).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(table), 4096):  # bounded text in memory
            *columns, last = table[lo:lo + 4096].T.tolist()
            text = [list(map(repr, c)) for c in columns]
            text.append([repr(v) if ok else ""
                         for v, ok in zip(last, finite[lo:lo + 4096])])
            fh.write("".join(",".join(row) + "\r\n" for row in zip(*text)))


# ---------------------------------------------------------------------------
# subcommands

def _state_result(state):
    return {
        "u": state.u.values,
        "cone_margin": state.cone_margin,
        "residual_norm": state.residual_norm,
        "background_scale": state.background_scale,
        "trace": [list(entry) for entry in state.trace],
        "asymptotics": state.asymptotics,
    }


def run_solve_dirichlet(cfg, complete=False):
    grid = _make_grid(cfg, complete)
    solve = SolveConfig(
        grid=grid,
        background=_make_background(cfg, grid),
        k=cfg["k"],
        boundary_data=0.0 if complete else _boundary_data(cfg, grid),
        rhs_scale=cfg["rhs_scale"],
        tol_residual=cfg["tol"],
    )
    state = (solve_complete if complete else solve_dirichlet)(solve)
    return _state_result(state), grid, state.u.values


def run_solve_complete(cfg):
    return run_solve_dirichlet(cfg, complete=True)


def run_asymptotics(cfg):
    result, grid, u = run_solve_complete(cfg)
    return {"asymptotics": result["asymptotics"],
            "residual_norm": result["residual_norm"]}, grid, u


def run_pe_invariant(cfg):
    n = cfg["n"]
    spec = cfg["background"]
    domains = {"flat-ball": "ball", "flat": "ball", "flat-annulus": "annulus"}
    if spec not in domains:
        raise ConfigError(
            f"pe-invariant background must be flat-ball or flat-annulus, "
            f"got {spec!r}"
        )
    grid = _make_grid(cfg, complete=True, m=n + 1, domain=domains[spec])
    phi = None
    if cfg["phi"]:
        phi = _eval_expression(cfg["phi"], {"r": grid.nodes})
    setup = CCSetup(grid=grid, n=n, phi=phi, tol_residual=cfg["tol"])
    family = solve_family(setup)
    report = detection_report(family)
    report["constants"] = [
        {"k": k, "beta": c.beta, "beta_tilde": c.beta_tilde,
         "c": c.c, "c_tilde": c.c_tilde}
        for k, c in ((k, constants(n, k)) for k in range(1, n + 2))
    ]
    return report, grid, family.w[-1].values


def run_surface(cfg):
    domain = cfg["domain"]
    if domain in ("disk", "ball"):
        counts = _parse_counts(cfg["grid"], expect=2)
        grid = make_polar_disk(cfg["r1"], counts[0], counts[1])
    elif domain == "box":
        counts = _parse_counts(cfg["grid"], expect=2)
        grid = make_box_grid([0.0, 0.0], [1.0, 1.0], counts)
    else:
        raise ConfigError(f"surface domain must be disk or box, "
                          f"got {domain!r}")
    env = {"x": grid.points[:, 0], "y": grid.points[:, 1],
           "r": np.linalg.norm(grid.points, axis=1)}
    fields = {key: _eval_expression(cfg[key], env)
              for key in ("curvature", "psi") if cfg[key]}
    problem = SurfaceProblem(grid=grid, **fields)
    u = solve_positive_scalar(problem)
    report = verify_positive_scalar(problem, u)
    report["u"] = u.values
    return report, grid, u.values


# ---------------------------------------------------------------------------
# verify

def _verify_checks(cfg):
    rng = np.random.default_rng(cfg["seed"])
    checks = []

    def record(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed),
                       "detail": detail})

    # algebraic kernel: recursion vs literal subset enumeration, cone
    # nesting, ratio monotonicity
    worst = 0.0
    nest_ok = ratio_ok = True
    for _ in range(2000):
        m = int(rng.integers(2, 7))
        lam = rng.normal(0.0, 2.0, m)
        esp = sigma_all(lam)
        abs_esp = sigma_all(np.abs(lam))
        for k in range(1, m + 1):
            ref = sum(
                np.prod(c) for c in itertools.combinations(lam, k)
            )
            worst = max(worst, abs(esp[k] - ref) / abs_esp[k])
        inside = [cone_contains(lam, k)[0] for k in range(1, m + 1)]
        for a, b in zip(inside[:-1], inside[1:]):
            if b and not a:
                nest_ok = False
        if inside[-1]:
            ratios = maclaurin_ratios(lam, m)
            if np.any(np.diff(ratios) > 1e-12):
                ratio_ok = False
    record("symfun-recursion-vs-eigen", worst <= 1e-12,
           f"max rel err {worst:.2e}")
    record("symfun-cone-nesting", nest_ok, "no nesting violations"
           if nest_ok else "nesting violated")
    record("symfun-maclaurin-monotone", ratio_ok, "ratios nonincreasing"
           if ratio_ok else "monotonicity violated")

    # radial cross-validation against the collocation oracle
    grid = make_radial_grid(0.5, 1.0, 257, m=3)
    bg = background_ricci(grid, "flat")
    state = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=2,
                                        boundary_data=1.0))
    prof = bvp_solve(0.5, 1.0, m=3, k=2, j1=1.0, j0=1.0, n=80)
    err = float(np.max(np.abs(state.u.values - prof.interp(grid.nodes))))
    record("radial-oracle-agreement", err <= 1e-4, f"sup err {err:.2e}")

    # comparison principle and nonpositivity at zero data
    zero = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=2))
    lo = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=2,
                                     boundary_data=0.5))
    mono = float(np.max(lo.u.values - state.u.values))
    record("dirichlet-zero-data-nonpositive",
           zero.u.values.max() <= 1e-10,
           f"max u {zero.u.values.max():.2e}")
    record("dirichlet-data-monotone", mono <= 1e-10,
           f"max violation {mono:.2e}")

    # rhs_scale is an additive shift
    bt = constants(2, 2).beta_tilde
    s = log(bt) / 4.0
    a = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=2,
                                    boundary_data=1.0, rhs_scale=bt))
    b = solve_dirichlet(SolveConfig(grid=grid, background=bg, k=2,
                                    boundary_data=1.0 + s))
    dev = float(np.max(np.abs(a.u.values - (b.u.values - s))))
    record("rhs-scale-shift-identity", dev <= 1e-9, f"max dev {dev:.2e}")

    # Einstein detection on the ball, non-Einstein on the annulus
    nodes = 384
    ball = make_radial_grid(0.0, 1.0, nodes, m=4,
                            grading=complete_grading(nodes))
    fam = solve_family(CCSetup(grid=ball, n=3))
    rep = detection_report(fam)
    record("pe-ball-detected",
           rep["is_einstein"] and max(rep["max_abs_Hk"]) <= 1e-3,
           f"max |H_k| {max(rep['max_abs_Hk']):.2e}")
    ann = make_radial_grid(0.5, 1.0, nodes, m=4,
                           grading=complete_grading(nodes), cluster="both")
    fam2 = solve_family(CCSetup(grid=ann, n=3))
    rep2 = detection_report(fam2, threshold=rep["threshold"])
    hk_min = min(rep2["min_Hk"])
    record("pe-annulus-nonnegative-and-positive",
           hk_min >= -1e-10 and max(rep2["max_abs_Hk"]) >= 1e-2
           and not rep2["is_einstein"],
           f"min H_k {hk_min:.2e}, max |H_k| "
           f"{max(rep2['max_abs_Hk']):.2e}")
    dev = invariance_check(fam, 0.3 * np.exp(
        -((ball.nodes - 0.4) / 0.15) ** 2))
    record("pe-conformal-invariance", dev <= 1e-3, f"max dev {dev:.2e}")

    # surface module
    disk = make_polar_disk(1.0, 128, 128)
    prob = SurfaceProblem(grid=disk)
    u = solve_positive_scalar(prob)
    exact = (1.0 - np.sum(disk.points**2, axis=1)) / 8.0
    err = float(np.max(np.abs(u.values - exact)))
    surf = verify_positive_scalar(prob, u)
    record("surface-flat-disk-exact", err <= 1e-6, f"sup err {err:.2e}")
    record("surface-curvature-positive", surf["positive"],
           f"min curvature {surf['new_curvature_min']:.3f}")
    return checks


def run_verify(cfg):
    checks = _verify_checks(cfg)
    passed = all(c["passed"] for c in checks)
    return {"checks": checks, "passed": passed}, None, None


# ---------------------------------------------------------------------------
# entry point

_RUNNERS = {
    "solve-dirichlet": run_solve_dirichlet,
    "solve-complete": run_solve_complete,
    "asymptotics": run_asymptotics,
    "pe-invariant": run_pe_invariant,
    "surface": run_surface,
    "verify": run_verify,
}


def build_parser():
    """The sigmaric parser: each subcommand takes --config and the flags of
    the keys it reads."""
    parser = argparse.ArgumentParser(
        prog="sigmaric",
        description="sigma_k-Ricci Dirichlet and complete-metric solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in _COMMAND_KEYS.items():
        command = sub.add_parser(name)
        command.add_argument("--config", help="key = value config file")
        for key in keys:
            parse, _, text = _KEYS[key]
            command.add_argument("--" + key.replace("_", "-"), dest=key,
                                 type=parse, help=text)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    t0 = time.perf_counter()
    try:
        result, grid, u = _RUNNERS[args.command](cfg)
    except (ContinuationFailure, InvariantViolation, BvpFailure,
            RuntimeError, np.linalg.LinAlgError) as exc:
        block = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(block), file=sys.stderr)
        return EXIT_SOLVER
    except (ConfigError, ValueError, TypeError) as exc:
        # invalid combinations surface as validation errors in the domain
        # and solver layers; treat them as configuration problems (numpy's
        # LinAlgError is a ValueError, so the clause above takes it first)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    wall = time.perf_counter() - t0
    write_record(args.command, cfg, result, wall, out_path=cfg["out"])
    if grid is not None and cfg["csv"]:
        write_csv(cfg["csv"], grid, u)
    if args.command == "verify":
        width = max(len(c["name"]) for c in result["checks"])
        for c in result["checks"]:
            tag = "PASS" if c["passed"] else "FAIL"
            print(f"{c['name']:<{width}}  {tag}  {c['detail']}")
        if not result["passed"]:
            return EXIT_VERIFY
        print("all checks passed")
    elif args.command == "asymptotics":
        fit = result["asymptotics"]
        print(f"constant {fit['constant']:.6f} "
              f"(einstein reference {fit['einstein_reference']:.6f})")
    else:
        res = result.get("residual_norm", result.get("residual"))
        if res is not None:
            print(f"done: residual {res:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
