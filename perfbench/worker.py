"""Child process of the benchmark: runs the program, untraced or traced.

    worker.py sweep --workload W --seed S --seconds T --trace 0|1 --out PATH
        Runs sweep operations (library calls run_sweep + sweep_rows_to_csv)
        until T seconds have passed and writes their outputs and timings as
        JSON lines, one per operation, then a summary line. With --trace 1 the first third of the time runs untraced, the
        rest with the layer wrappers installed.
    worker.py cli --spans PATH ARGS...
        Runs ``superdir.cli.main(ARGS)`` with the layer wrappers installed
        and writes the spans to PATH.

superdir is imported from PYTHONPATH, which the benchmark points at the
checkout's src directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from tracing import Tracer

SWEEP_WORKLOADS = ("sweep-identity", "sweep-synthetic")


def _sweep_op(superdir, workload, seed, index):
    # imported here so that the traced CLI child imports nothing heavy first
    from inputs import SWEEP_EFFICIENCY, SWEEP_SETTINGS, sweep_jitter

    settings = SWEEP_SETTINGS[workload]
    start, stop = sweep_jitter(workload, seed, index)
    specs = [
        superdir.SweepSpec(
            antennas=m, pattern_kind=p, spacing_start=start, spacing_stop=stop,
            spacing_steps=settings.steps, theta0_deg=0.0, efficiency=SWEEP_EFFICIENCY,
            coupling_source=settings.coupling,
        )
        for m in settings.element_counts for p in settings.patterns
    ]
    t0 = time.perf_counter()
    results = []
    for spec in specs:
        rows = superdir.run_sweep(spec)
        results.append((rows, superdir.sweep_rows_to_csv(rows)))
    wall = time.perf_counter() - t0
    sweeps = [
        {"elements": spec.antennas, "pattern": spec.pattern_kind, "start": start, "stop": stop,
         "steps": settings.steps, "csv": text, "notes": [row.note for row in rows]}
        for spec, (rows, text) in zip(specs, results)
    ]
    return wall, sweeps


def run_sweeps(args) -> int:
    import superdir
    import superdir.sweep

    tracer = None
    index = 0
    begin = time.perf_counter()
    untraced_until = args.seconds / 3.0 if args.trace else args.seconds
    # each operation's outputs go to disk as soon as it ends, so memory does
    # not grow with the number of operations a run completes
    with open(args.out, "w") as out:
        while True:
            elapsed = time.perf_counter() - begin
            if tracer is None and args.trace and index and elapsed >= untraced_until:
                tracer = Tracer()
                tracer.install()
            elif index and elapsed >= args.seconds:
                break
            if tracer is not None:
                tracer.op = index
            wall, sweeps = _sweep_op(superdir, args.workload, args.seed, index)
            out.write(json.dumps({"index": index, "traced": tracer is not None, "wall": wall,
                                  "sweeps": sweeps}) + "\n")
            out.flush()
            index += 1
        worker_count = getattr(superdir.sweep, "_worker_count", None)
        out.write(json.dumps({
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "sweep_workers": worker_count(None) if worker_count else None,
            "spans": tracer.spans if tracer else [],
        }) + "\n")
    return 0


def run_cli(args) -> int:
    tracer = Tracer()
    tracer.op = 0
    start = time.perf_counter()
    import superdir.cli

    tracer.span("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return superdir.cli.main(args.cli_args)
    finally:
        with open(args.spans, "w") as handle:
            json.dump(tracer.spans, handle)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p_sweep = sub.add_parser("sweep")
    p_sweep.add_argument("--workload", choices=SWEEP_WORKLOADS, required=True)
    p_sweep.add_argument("--seed", type=int, required=True)
    p_sweep.add_argument("--seconds", type=float, required=True)
    p_sweep.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p_sweep.add_argument("--out", required=True)
    p_cli = sub.add_parser("cli")
    p_cli.add_argument("--spans", required=True)
    p_cli.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    return run_sweeps(args) if args.mode == "sweep" else run_cli(args)


if __name__ == "__main__":
    sys.exit(main())
