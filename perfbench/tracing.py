"""Per-layer tracing from outside the program.

install() replaces, in the already imported sigmaric modules, the names
each layer calls across a module boundary with wrappers that record a span
(start, end, parent span) or a count, and reads counts from the traces the
solvers return.  A hooked name that no longer exists is skipped and every
metric that depends only on missing hooks is reported as missing; the
benchmark never fails for that reason.  uninstall() puts the originals
back.

Raw aggregates (seconds and calls per span key, counters, maxima) merge by
addition, so a child process can ship its aggregates to the main process;
per_layer_metrics() turns merged aggregates into the named metrics.
"""

import importlib
import time
import types
from collections import defaultdict

CS = "sigmaric.continuation_solver"
CC = "sigmaric.cc_invariants"
RO = "sigmaric.radial_oracle"
SS = "sigmaric.surface_scalar"
CLI = "sigmaric.cli"

# (module, attribute path, span key or None for a plain count, extra
# counter, hook: "krylov" counts operator products, the others read the
# returned object).  A key shared by several hooks sums over them.
HOOKS = [
    (CS, "solve_dirichlet", "cs.entry", None, "homotopy"),
    (CLI, "solve_complete", "cs.entry", None, "homotopy"),
    (CC, "solve_complete", "cs.entry", "cc.complete_solves", "homotopy"),
    (CS, "_RadialDisc.residual", "cs.residual", None, None),
    (CS, "_BoxDisc.residual", "cs.residual", None, None),
    (CS, "_RadialDisc.jacobian", "cs.jacobian", None, None),
    (CS, "_BoxDisc.jacobian", "cs.jacobian", None, None),
    (CS, "_PrecondSolver.solve", "cs.linear", None, None),
    (CS, "splu", "cs.factor", None, "factor"),
    (CS, "spla.gmres", "cs.krylov", None, "krylov"),
    (CS, "sigma_all_batch", "symfun.sigma_all_batch", None, None),
    (CS, "box_derivative_operators", "domains.box_operators", None, None),
    (CC, "solve_family", "cc.family", None, None),
    (CLI, "solve_family", "cc.family", None, None),
    (CC, "einstein_benchmark_tolerance", "cc.threshold", None, None),
    (RO, "bvp_solve", "ro.bvp", None, "bvp"),
    (RO, "_collocation_system", "ro.system", None, None),
    (RO, "_admissible_residual", "ro.admissible", None, None),
    (RO, "sigma_all", None, "ro.sigma_all", None),
    (SS, "laplacian_matrix", "ss.laplacian", None, None),
    (CLI, "solve_positive_scalar", "ss.solve", None, None),
    (CLI, "verify_positive_scalar", "ss.verify", None, None),
    (CLI, "main", "cli.main", None, None),
    (CLI, "write_record", "cli.record", None, None),
    (CLI, "write_csv", "cli.csv", None, None),
]

S, COUNT = "s", "count"

# metric name -> (unit, source).  Sources: ("span_s", key),
# ("span_calls", key), ("counter", name), ("max", name), ("self_s", key),
# ("ratio", numerator source, denominator source).
LAYER_METRICS = {
    "continuation_solver.linear_s": (S, ("span_s", "cs.linear")),
    "continuation_solver.linear_calls": (COUNT, ("span_calls", "cs.linear")),
    "continuation_solver.factor_s": (S, ("span_s", "cs.factor")),
    "continuation_solver.factor_calls": (COUNT, ("span_calls", "cs.factor")),
    "continuation_solver.factor_nnz": (COUNT, ("max", "cs.factor_nnz")),
    "continuation_solver.krylov_s": (S, ("span_s", "cs.krylov")),
    "continuation_solver.krylov_calls": (COUNT, ("span_calls", "cs.krylov")),
    "continuation_solver.krylov_matvecs": (COUNT,
                                           ("counter", "cs.krylov_matvecs")),
    "continuation_solver.residual_s": (S, ("span_s", "cs.residual")),
    "continuation_solver.residual_calls": (COUNT,
                                           ("span_calls", "cs.residual")),
    "continuation_solver.jacobian_s": (S, ("span_s", "cs.jacobian")),
    "continuation_solver.jacobian_calls": (COUNT,
                                           ("span_calls", "cs.jacobian")),
    "continuation_solver.residuals_per_jacobian": (
        "ratio", ("ratio", ("span_calls", "cs.residual"),
                ("span_calls", "cs.jacobian"))),
    "continuation_solver.self_s": (S, ("self_s", "cs.entry")),
    "continuation_solver.steps": (COUNT, ("counter", "cs.steps")),
    "continuation_solver.newton_iters": (COUNT, ("counter", "cs.newton_iters")),
    "continuation_solver.rungs": (COUNT, ("counter", "cs.rungs")),
    "symfun.sigma_all_batch_s": (S, ("span_s", "symfun.sigma_all_batch")),
    "symfun.sigma_all_batch_calls": (COUNT,
                                     ("span_calls", "symfun.sigma_all_batch")),
    "domains.box_operators_s": (S, ("span_s", "domains.box_operators")),
    "cc_invariants.family_s": (S, ("span_s", "cc.family")),
    "cc_invariants.family_calls": (COUNT, ("span_calls", "cc.family")),
    "cc_invariants.threshold_s": (S, ("span_s", "cc.threshold")),
    "cc_invariants.complete_solves": (COUNT,
                                      ("counter", "cc.complete_solves")),
    "radial_oracle.bvp_s": (S, ("span_s", "ro.bvp")),
    "radial_oracle.bvp_calls": (COUNT, ("span_calls", "ro.bvp")),
    "radial_oracle.system_s": (S, ("span_s", "ro.system")),
    "radial_oracle.admissible_s": (S, ("span_s", "ro.admissible")),
    "radial_oracle.admissible_calls": (COUNT,
                                       ("span_calls", "ro.admissible")),
    "radial_oracle.sigma_all_calls": (COUNT, ("counter", "ro.sigma_all")),
    "radial_oracle.newton_iters": (COUNT, ("counter", "ro.newton_iters")),
    "radial_oracle.steps": (COUNT, ("counter", "ro.steps")),
    "surface_scalar.laplacian_s": (S, ("span_s", "ss.laplacian")),
    "surface_scalar.laplacian_calls": (COUNT,
                                       ("span_calls", "ss.laplacian")),
    "surface_scalar.solve_s": (S, ("span_s", "ss.solve")),
    "surface_scalar.verify_s": (S, ("span_s", "ss.verify")),
    "cli.main_s": (S, ("span_s", "cli.main")),
    "cli.record_s": (S, ("span_s", "cli.record")),
    "cli.csv_s": (S, ("span_s", "cli.csv")),
}

# the hooks a counter or maximum is read from, for the missing-hook rule
_DERIVED_FROM = {
    "cs.factor_nnz": "cs.factor",
    "cs.krylov_matvecs": "cs.krylov",
    "cs.steps": "cs.entry",
    "cs.newton_iters": "cs.entry",
    "cs.rungs": "cs.entry",
    "ro.newton_iters": "ro.bvp",
    "ro.steps": "ro.bvp",
}


class _ModuleProxy:
    """Stands in for a module attribute (such as scipy.sparse.linalg seen
    as `spla`) so one of its functions can be wrapped for a single caller
    without touching the module every other caller sees."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans = []        # [key, start, end, parent index]
        self.stack = []
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.installed = []    # (owner, attribute, original)
        self.hooked = set()    # span keys and counters with a live hook
        self.missing = []      # "module:attribute" of absent hooks

    # -- wrappers ---------------------------------------------------------

    def _span(self, key, fn, counter, hook):
        tracer = self
        post = getattr(self, "_post_" + hook, None) if hook else None

        def wrapper(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [key, time.perf_counter(), None, parent]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            if counter:
                tracer.counters[counter] += 1
            if hook == "krylov":
                args, kwargs = tracer._counting_operator(args, kwargs)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.stack.pop()
                span[2] = time.perf_counter()
            if post is not None:
                post(out)
            return out

        return wrapper

    def _count(self, counter, fn):
        counters = self.counters

        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counting_operator(self, args, kwargs):
        """Replace gmres's operator A by one that counts its products."""
        from scipy.sparse.linalg import LinearOperator, aslinearoperator

        A = aslinearoperator(kwargs["A"] if "A" in kwargs else args[0])
        counters = self.counters

        def matvec(x):
            counters["cs.krylov_matvecs"] += 1
            return A.matvec(x)

        counted = LinearOperator(A.shape, matvec=matvec, dtype=A.dtype)
        if "A" in kwargs:
            return args, dict(kwargs, A=counted)
        return (counted,) + tuple(args[1:]), kwargs

    def _post_homotopy(self, state):
        for entry in getattr(state, "trace", None) or []:
            kind = entry[0] if len(entry) >= 3 else None
            if kind in ("t", "ramp"):
                self.counters["cs.steps"] += 1
                self.counters["cs.newton_iters"] += int(entry[2])
            elif kind == "rung":
                self.counters["cs.rungs"] += 1

    def _post_bvp(self, profile):
        for entry in getattr(profile, "trace", None) or []:
            self.counters["ro.steps"] += 1
            self.counters["ro.newton_iters"] += int(entry[1])

    def _post_factor(self, lu):
        nnz = getattr(lu, "nnz", None)
        if nnz is None:
            return
        self.maxima["cs.factor_nnz"] = max(self.maxima["cs.factor_nnz"], nnz)

    # -- installation -----------------------------------------------------

    def install(self):
        for module_name, path, key, counter, hook in HOOKS:
            *parents, attr = path.split(".")
            try:
                holder = owner = importlib.import_module(module_name)
                for name in parents:
                    holder, owner = owner, getattr(owner, name)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}:{path}")
                continue
            if key is None:
                wrapped = self._count(counter, original)
            else:
                wrapped = self._span(key, original, counter, hook)
            if parents and isinstance(owner, types.ModuleType):
                # a module the caller holds under a name (spla): wrap the
                # function for this caller only, through a proxy
                self._set(holder, parents[-1],
                          _ModuleProxy(owner, **{attr: wrapped}))
            else:
                self._set(owner, attr, wrapped)
            self.hooked.update(k for k in (key, counter) if k)
        return self

    def _set(self, owner, attr, value):
        self.installed.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    # -- aggregates -------------------------------------------------------

    def aggregates(self):
        """Mergeable raw totals of everything recorded so far."""
        span_s = defaultdict(float)
        span_calls = defaultdict(int)
        self_s = defaultdict(float)
        child_s = defaultdict(float)
        for key, start, end, parent in self.spans:
            if end is None:
                continue
            span_s[key] += end - start
            span_calls[key] += 1
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (key, start, end, _) in enumerate(self.spans):
            if end is not None:
                self_s[key] += (end - start) - child_s.get(idx, 0.0)
        return {
            "span_s": dict(span_s),
            "span_calls": dict(span_calls),
            "self_s": dict(self_s),
            "counter": dict(self.counters),
            "max": dict(self.maxima),
            "hooked": sorted(self.hooked),
            "missing": list(self.missing),
        }

    def reset(self):
        self.spans.clear()
        self.stack.clear()
        self.counters.clear()
        self.maxima.clear()


def empty_aggregates():
    return {"span_s": {}, "span_calls": {}, "self_s": {}, "counter": {},
            "max": {}, "hooked": [], "missing": []}


def merge(total, part):
    """Add the aggregates `part` into `total` in place."""
    for kind in ("span_s", "span_calls", "self_s", "counter"):
        for key, value in part.get(kind, {}).items():
            total[kind][key] = total[kind].get(key, 0) + value
    for key, value in part.get("max", {}).items():
        total["max"][key] = max(total["max"].get(key, 0), value)
    for kind in ("hooked", "missing"):
        total[kind] = sorted(set(total[kind]) | set(part.get(kind, [])))
    return total


def _source_hook(source):
    kind, name = source[0], source[1]
    return _DERIVED_FROM.get(name, name) if kind in ("counter", "max") \
        else name


def _value(agg, source):
    if source[0] == "ratio":
        num, den = _value(agg, source[1]), _value(agg, source[2])
        return num / den if den else 0.0
    return agg[source[0]].get(source[1], 0)


def per_layer_metrics(agg):
    """Named per-layer metrics from merged aggregates.

    A metric whose hook is absent from the program is reported with value
    None and the flag "missing"; every other metric is a number (0 where
    its layer did not run in the workload).
    """
    hooked = set(agg["hooked"])
    out = {}
    for name, (unit, source) in LAYER_METRICS.items():
        needs = ([source[1], source[2]] if source[0] == "ratio"
                 else [source])
        if not all(_source_hook(s) in hooked for s in needs):
            out[name] = {"value": None, "unit": unit, "missing": True}
            continue
        value = _value(agg, source)
        out[name] = {"value": value if unit == COUNT else float(value),
                     "unit": unit}
    return out
