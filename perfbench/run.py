"""Benchmark of the sigmaric solvers; see README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one workload, or `all` to run every workload in turn.

Run from the root of a checkout.  It times the solvers of the checkout's
src/ through their public entry points, checks every output, and prints
as its last line one JSON object with the keys correct, attempted, failed
and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.  The line before it is a JSON record of the machine and
the code measured; the full record of the run is also written to
.perfbench/results/.  Exit code 2 means the benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 5
# a run must end within 180 s; no child may outlive this point of the run
DEADLINE_S = 170.0
START = time.perf_counter()
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark itself cannot run here."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "SIGMARIC_OUTPUT_DIR")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(args, result_path):
    """Run child.py and return its JSON result; raise on any failure."""
    cmd = [sys.executable, str(HERE / "child.py")] + args
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - START))
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not result_path.exists():
        tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
        raise RuntimeError(f"child exited {proc.returncode}: "
                           + " | ".join(tail))
    return json.loads(result_path.read_text())


def read_csv(path):
    import numpy as np

    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.genfromtxt(path, delimiter=",", skip_header=1, ndmin=2)
    table = {"header": header}
    if data.shape[1] == len(header):
        table.update({name: data[:, i] for i, name in enumerate(header)})
    return table


class Runner:
    def __init__(self, workload, work_dir, tracer=None):
        self.workload = workload
        self.work_dir = work_dir
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.child_setup_s = []
        self.serial = 0

    def _path(self, stem):
        self.serial += 1
        return self.work_dir / f"{self.serial:05d}-{stem}"

    def api_op(self, op, prior, traced):
        t0 = time.perf_counter()
        out = op.call()
        solve_s = time.perf_counter() - t0
        prior[op.name] = out
        return solve_s, lambda: op.check(out, prior), None

    def cli_op(self, op, prior, traced):
        res, rec, csv = (self._path(s) for s in ("child.json", "out.json",
                                                  "out.csv"))
        argv = op.argv + ["--out", str(rec), "--csv", str(csv)]
        child = run_child(["cli", str(res), "--trace" if traced else "-",
                           "--"] + argv, res)
        self.child_setup_s.append(child["setup_s"])
        if child["exit_code"] != 0:
            raise RuntimeError(f"sigmaric exited {child['exit_code']}")

        def check():
            try:
                return op.check(json.loads(rec.read_text()), read_csv(csv))
            finally:
                for p in (res, rec, csv):
                    p.unlink(missing_ok=True)

        return child["solve_s"], check, child.get("aggregates")

    def round(self, traced):
        """One round of the workload's operations; returns its record.

        An operation fails when the program raises or exits nonzero, or
        when its output fails a check; the latter also makes the run
        incorrect.
        """
        agg = tracing.empty_aggregates()
        if traced and self.tracer is not None:
            self.tracer.reset()
        ops, prior, total = [], {}, 0.0
        for op in self.workload.operations():
            self.attempted += 1
            execute = self.cli_op if hasattr(op, "argv") else self.api_op
            entry = {"name": op.name}
            t0 = time.perf_counter()
            try:
                solve_s, check, child_agg = execute(op, prior, traced)
            except Exception as exc:  # a failing operation is counted
                solve_s = time.perf_counter() - t0
                self.failed += 1
                entry.update(error=repr(exc),
                             traceback=traceback.format_exc(limit=4))
            else:
                if child_agg:
                    tracing.merge(agg, child_agg)
                try:
                    failures = check()
                except Exception as exc:  # malformed output
                    failures = [f"check raised {exc!r}"]
                entry["failures"] = failures
                if failures:
                    self.failed += 1
                    self.wrong += 1
            entry["solve_s"] = solve_s
            total += solve_s
            ops.append(entry)
        if traced and self.tracer is not None:
            tracing.merge(agg, self.tracer.aggregates())
        return {"solve_s": total, "traced": traced, "ops": ops,
                "aggregates": agg if traced else None}

    def phase(self, budget_s, traced):
        """Whole rounds, at least one, for about budget_s: another round
        starts only if, at the pace of the last one, more than half of it
        fits in the budget."""
        rounds, t0 = [], time.perf_counter()
        while True:
            r0 = time.perf_counter()
            rounds.append(self.round(traced))
            now = time.perf_counter()
            if now - t0 + 0.5 * (now - r0) >= budget_s:
                return rounds


def setup_probes(name, seed, work_dir):
    samples = []
    for i in range(SETUP_PROBES):
        res = work_dir / f"probe-{i}.json"
        samples.append(run_child(["probe", str(res), name, str(seed)],
                                 res)["setup_s"])
        res.unlink()
    return samples


def src_stats():
    files = sorted(p for p in SRC.rglob("*") if p.is_file()
                   and "__pycache__" not in p.parts)
    lines = sum(len(p.read_bytes().splitlines()) for p in files
                if p.suffix == ".py")
    digest = hashlib.sha256()
    for p in files:
        digest.update(str(p.relative_to(SRC)).encode() + b"\0")
        digest.update(p.read_bytes())
    return lines, digest.hexdigest()


def commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine(threads):
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "blas_threads": threads,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def run(args):
    t_start = time.perf_counter()
    if not (SRC / "sigmaric" / "__init__.py").is_file():
        raise BenchError(f"no sigmaric sources under {SRC}")
    threads = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from "
                         + ", ".join(workloads.WORKLOADS))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    main_setup_s = time.perf_counter() - t_start
    import sigmaric

    if Path(sigmaric.__file__).resolve().parents[1] != SRC:
        raise BenchError(f"sigmaric imported from {sigmaric.__file__}, "
                         f"not from {SRC}")
    work_dir = OUT / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        setup_samples = setup_probes(args.workload, args.seed, work_dir)
        tracer = tracing.Tracer() if args.trace else None
        runner = Runner(workload, work_dir, tracer)
        if args.trace:
            # untraced rounds first, then the same rounds traced
            plain = runner.phase(args.seconds / 2.0, traced=False)
            tracer.install()
            try:
                traced = runner.phase(args.seconds / 2.0, traced=True)
            finally:
                tracer.uninstall()
            rounds = plain + traced
        else:
            rounds = runner.phase(args.seconds, traced=False)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    def median_solve(rs):
        return statistics.median(r["solve_s"] for r in rs)

    if args.trace:
        metrics = per_layer(traced)
        metrics["bench.trace_overhead_s"] = {
            "value": median_solve(traced) - median_solve(plain), "unit": "s"}
    else:
        metrics = {
            "solve_s": {"value": median_solve(rounds), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
    lines, digest = src_stats()
    info = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine(threads), "commit": commit(),
        "src_lines": lines, "src_sha256": digest,
        "rounds": len(rounds), "setup_samples_s": setup_samples,
        "main_setup_s": main_setup_s,
        "cli_setup_samples_s": runner.child_setup_s,
        "wall_s": time.perf_counter() - t_start,
    }
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    record = dict(info, result=result,
                  rounds_detail=[{k: v for k, v in r.items()
                                  if k != "aggregates"} for r in rounds])
    (OUT / "results" / f"{stem}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n")
    print(json.dumps({"run": info}, default=str))
    print(json.dumps(result))


def per_layer(rounds):
    """Median over traced rounds of each per-layer metric."""
    per_round = [tracing.per_layer_metrics(r["aggregates"]) for r in rounds]
    out = {}
    for name, first in per_round[0].items():
        values = [m[name]["value"] for m in per_round]
        if first.get("missing"):
            out[name] = first
        else:
            out[name] = {"value": statistics.median(values),
                         "unit": first["unit"]}
    return out


def run_all(args):
    """Every workload in turn, each a run of its own in a fresh process;
    prints each workload's record and result lines, then their sum."""
    sys.path.insert(0, str(SRC))
    import workloads

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            raise BenchError(f"{name} exited {proc.returncode}: "
                             + proc.stderr.strip()[-500:])
        *_, info, last = proc.stdout.strip().splitlines()
        result = json.loads(last)
        print(info)
        print(json.dumps(dict(workload=name, **result)), flush=True)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}/{metric}": value for metric, value
                                 in result["metrics"].items()})
    print(json.dumps(total))


def main(argv=None):
    args = parse_args(argv)
    try:
        if args.workload == "all":
            run_all(args)
        else:
            run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
