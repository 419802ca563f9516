"""One workload in its own process; started by run.py, not by hand.

Set-up (interpreter start, importing `holocycle` from the checkout's
`src`, building the workload's inputs) is timed from the moment run.py
spawned this process.  Then whole rounds of the workload's operations
run until --seconds have passed.  The last line on stdout is the result
JSON.

With --trace 1 the first half of the time runs untraced and the second
half under the tracer; the per-layer metrics are per traced round.
"""
import argparse
import json
import os
import resource
import statistics
import sys
import time

from tracer import MODULES, Tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# set-up lasts ~0.2 s; a longer host-speed sample right after it
SETUP_PROBE_PASSES = 12


# spans reported as self seconds, call counts and work counts
LAYER_SPANS = (
    "triangulation.mesh", "triangulation.locate",
    "approximation.base_measure", "approximation.base_density",
    "approximation.sample_cells", "approximation.solve_cells",
    "approximation.pair_cells", "approximation.glue",
    "approximation.assemble_beta", "approximation.boundary_data",
    "approximation.close_up", "chains.chain_measure",
    "measures.hol_residual", "measures.dist",
    "geometry.form_evaluate", "geometry.gram_volume",
    "foliations.solve_density", "foliations.frobenius_residual",
    "foliations.pseudoholomorphic", "cli.write_report", "cli.chain_to_dict",
)
CALL_COUNTS = (
    "triangulation.locate", "approximation.base_density", "chains.cell_measure",
    "measures.dist", "geometry.form_evaluate", "geometry.gram_volume",
    "geometry.trig_eval",
)
WORK_COUNTS = (
    "triangulation.top_simplices", "approximation.leaves", "approximation.pieces",
    "approximation.cells", "approximation.glued_cells", "approximation.connectors",
    "approximation.cones", "chains.atoms", "measures.hol_atoms",
    "foliations.collocation_cols", "foliations.grid_points", "cli.cycle_json_bytes",
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--spawned-at", type=float, required=True,
                   help="CLOCK_MONOTONIC reading taken just before the spawn")
    p.add_argument("--out", required=True, help="scratch directory for outputs")
    return p.parse_args(argv)


def _metric(value, unit):
    return {"value": value, "unit": unit}


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def empty_caches(hc):
    """Empty every module-level cache of the program (functools caches).

    Each round then starts as cold as a fresh `holocycle` process, so a
    run's median does not depend on how many rounds fit in it.
    """
    for name in MODULES:
        for obj in vars(getattr(hc, name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def measure(workload, clock, until, tracer=None):
    """Whole rounds until the deadline; each round is a list of Ops.

    Returns the rounds and the peak resident memory after the first
    round's operations, before its checks: later rounds and the checks'
    own arrays would otherwise move it.
    """
    rounds = []
    peak = None
    while True:
        empty_caches(workload.hc)
        clock.restart()
        finish = workload.run(clock)
        if peak is None:
            peak = peak_rss_mib()
        if tracer is None:
            ops = finish()
        else:
            with tracer.paused():
                ops = finish()
        rounds.append(ops)
        print(f"round {len(rounds)}: raw {sum(op.raw_s for op in ops):.3f} s, "
              f"rescaled {sum(op.rescaled_s for op in ops):.3f} s", file=sys.stderr)
        if time.perf_counter() >= until:
            return rounds, peak


def per_round(rounds, attr):
    return statistics.median(sum(getattr(op, attr) for op in ops) for ops in rounds)


def layer_metrics(tracer, traced, untraced, clock):
    """Every per-layer metric, per traced round.

    Self times are rescaled by the traced rounds' overall host-speed
    factor, like run_s; the host.* metrics are raw.
    """
    n = len(traced)
    ops = [op for r in traced for op in r]
    scale = sum(op.rescaled_s for op in ops) / sum(op.raw_s for op in ops)
    s, calls, c = tracer.self_s, tracer.calls, tracer.counts
    out = {}
    for span in LAYER_SPANS:
        out[f"{span}_s"] = _metric(s.get(span, 0.0) / n * scale, "s")
    for span in CALL_COUNTS:
        out[f"{span}_calls"] = _metric(calls.get(span, 0) / n, "count")
    for key in WORK_COUNTS:
        unit = "bytes" if key.endswith("_bytes") else "count"
        out[key] = _metric(c.get(key, 0) / n, unit)
    traces = c.get("approximation.traces", 0)
    out["approximation.paired_ratio"] = _metric(
        c.get("approximation.paired_traces", 0) / traces if traces else 0.0, "ratio")
    out["host.wall_s"] = _metric(per_round(untraced, "raw_s"), "s")
    out["host.ref_loop_s"] = _metric(statistics.median(clock.samples), "s")
    out["host.trace_overhead_s"] = _metric(
        per_round(traced, "rescaled_s") - per_round(untraced, "rescaled_s"), "s")
    return out


def main(argv=None):
    args = _parse(argv)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import holocycle
    import holocycle.cli
    if not os.path.abspath(holocycle.__file__).startswith(os.path.join(ROOT, "src")):
        print(f"imported holocycle from {holocycle.__file__}, not from this "
              "checkout", file=sys.stderr)
        return 2
    from reference import RescaledClock

    os.makedirs(args.out, exist_ok=True)
    workload = WORKLOADS[args.workload](holocycle, args.seed, args.out)
    setup_raw = time.clock_gettime(time.CLOCK_MONOTONIC) - args.spawned_at
    with RescaledClock() as clock:
        setup_s = setup_raw * clock.probe(SETUP_PROBE_PASSES)
        start = time.perf_counter()
        if args.trace:
            untraced, _ = measure(workload, clock, start + args.seconds / 2)
            tracer = Tracer(clock.now)
            tracer.install(holocycle)
            try:
                traced, _ = measure(workload, clock, start + args.seconds, tracer)
            finally:
                tracer.uninstall()
        else:
            rounds, peak = measure(workload, clock, start + args.seconds)
    if args.trace:
        rounds = untraced + traced
        metrics = layer_metrics(tracer, traced, untraced, clock)
        trace_path = os.path.join(HERE, ".runs",
                                  f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as fh:
            json.dump({"rounds": len(traced), **tracer.table()}, fh, indent=1,
                      sort_keys=True)
    else:
        metrics = {"setup_s": _metric(setup_s, "s"),
                   "run_s": _metric(per_round(rounds, "rescaled_s"), "s"),
                   "peak_rss_mb": _metric(peak, "MiB")}

    ops = [op for r in rounds for op in r]
    problems = [f"{op.name}: {p}" for op in ops if not op.failed for p in op.problems]
    for p in sorted(set(problems)):
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(op.failed for op in ops), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
