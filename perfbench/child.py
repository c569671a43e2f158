"""One benchmark child process; run by run.py, never by hand.

    child.py cli RESULT --trace|- -- ARGV...
        import sigmaric.cli (set-up), then time sigmaric.cli.main(ARGV);
        with --trace, trace the layers while it runs.
    child.py probe RESULT WORKLOAD SEED
        import sigmaric and build WORKLOAD's inputs for SEED (set-up only).

The clock starts before numpy, scipy or sigmaric is imported.  The child
writes its timings (and trace aggregates) as JSON to RESULT.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv):
    mode, result = argv[0], argv[1]
    out = {}
    if mode == "probe":
        import workloads

        workloads.WORKLOADS[argv[2]](int(argv[3]))
        out["setup_s"] = time.perf_counter() - T0
    elif mode == "cli":
        trace = argv[2] == "--trace"
        cli_argv = argv[argv.index("--") + 1:]
        import sigmaric.cli as cli

        out["setup_s"] = time.perf_counter() - T0
        tracer = None
        if trace:
            import tracing

            tracer = tracing.Tracer().install()
        t1 = time.perf_counter()
        out["exit_code"] = cli.main(cli_argv)
        out["solve_s"] = time.perf_counter() - t1
        if tracer is not None:
            out["aggregates"] = tracer.aggregates()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    with open(result, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
