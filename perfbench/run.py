"""superdir benchmark: seeded workloads, oracle-checked results, layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep-identity --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src`` directory and runs under
its default threading. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it report every metric with its unit, direction and sample
count, the run environment, and the results that missed their oracle.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep-identity", "sweep-synthetic", "estimate-cli")
RUN_LIMIT_S = 170.0  # every child is killed if the run would pass this
SETUP_REPEATS = 9
TOLERANCE = 1e-6  # D_max and d_coupled against the oracle, relative
ESTIMATE_TOLERANCE = 1e-4  # estimated C against the fixture, relative Frobenius
EPS = 2.0**-52

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "op_s": ("s", "lower"),
    "points_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "pass_share": ("ratio", "higher"),
    "accuracy_digits": ("digits", "higher"),
}


class BenchmarkError(Exception):
    """The benchmark itself could not run."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


class Runner:
    """Starts child processes, reaps them with their resource usage, never leaves one behind."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.begin = time.perf_counter()
        self.env = _child_env()

    def run(self, argv, stdout=subprocess.DEVNULL, check=True):
        """Run argv to completion; returns (exit code, wall seconds, peak RSS in MB).

        With ``check``, a non-zero exit raises BenchmarkError.
        """
        budget = RUN_LIMIT_S - (time.perf_counter() - self.begin)
        if budget <= 0:
            raise BenchmarkError("out of time before starting a child process")
        err_path = self.workdir / "child.stderr"
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=err)
            timer = threading.Timer(budget, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if check and proc.returncode != 0:
            message = err_path.read_text()[-2000:]
            raise BenchmarkError(f"{argv[1:4]} exited with {proc.returncode}: {message}")
        return proc.returncode, wall, usage.ru_maxrss / 1024.0


# ---- set-up and environment ---------------------------------------------------------


def measure_setup(runner: Runner, module: str, repeats: int):
    """Fresh-interpreter import of ``module``: (median wall s, median in-process import s).

    One discarded warm-up run first, so a fresh checkout's bytecode compilation
    is not counted; users pay it once per install, not per call.
    """
    code = ("import time; t = time.perf_counter(); import " + module
            + "; print(time.perf_counter() - t)")
    walls, imports = [], []
    out_path = runner.workdir / "import.out"
    for i in range(repeats + 1):
        with open(out_path, "w") as out:
            _, wall, _ = runner.run([sys.executable, "-c", code], stdout=out)
        if i:
            walls.append(wall)
            imports.append(float(out_path.read_text()))
    return statistics.median(walls), statistics.median(imports)


def environment(sweep_workers) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "affinity_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_env": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "SUPERDIR_THREADS")},
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "sweep_workers": sweep_workers,
    }


# ---- checking results against the oracles ------------------------------------------


class Checks:
    """Counts results against the oracle and collects what the gate rejects."""

    def __init__(self):
        self.checked = 0
        self.missed = {}  # group -> places of results outside tolerance
        self.digits = []
        self.problems = []  # anything that makes the run incorrect

    def result(self, group, place, error, tolerance, bound):
        """One checked result; errors above ``bound`` make the run incorrect."""
        self.checked += 1
        if math.isfinite(error):
            self.digits.append(-math.log10(max(error, EPS)))
        if not error <= tolerance:
            self.missed.setdefault(group, []).append(place)
        if not error <= bound:
            self.problems.append(f"{group} {place}: relative error {error:.3e} exceeds {bound:.3e}")


def _parse_csv(text: str, header: list) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != header:
        raise ValueError(f"bad header {rows[:1]}")
    return [[float(v) for v in row] for row in rows[1:] if row]


SWEEP_HEADER = ["spacing", "dmax", "d_traditional", "d_coupled", "gain", "cond_z"]


def check_sweeps(ops, synthetic: bool, endfire, checks: Checks):
    import numpy as np

    from oracle import relative_error

    for op in ops:
        exact = {}  # (pattern, spacing) -> D_max for every element count up to the largest
        top = max(s["elements"] for s in op["sweeps"])
        for sweep in op["sweeps"]:
            m, pattern = sweep["elements"], sweep["pattern"]
            group = f"M={m} {pattern}"
            try:
                rows = _parse_csv(sweep["csv"], SWEEP_HEADER)
            except ValueError as exc:
                checks.problems.append(f"{group}: unreadable sweep CSV: {exc}")
                continue
            grid = np.linspace(sweep["start"], sweep["stop"], sweep["steps"])
            if [r[0] for r in rows] != grid.tolist():
                checks.problems.append(f"{group}: rows do not follow the requested spacings")
                continue
            for row, note in zip(rows, sweep["notes"]):
                spacing, dmax, _, d_coupled, _, cond = row
                key = (pattern, spacing)
                if key not in exact:
                    exact[key] = endfire.dmax_prefixes(top, spacing, pattern)
                truth = exact[key][m - 1]
                place = f"{spacing:.4f}"
                if not math.isfinite(dmax):
                    if not note:
                        checks.problems.append(f"{group} {place}: non-finite D_max without a flag")
                    checks.result(group, place + "(flagged)", math.inf, TOLERANCE, math.inf)
                    continue
                # A double-precision solve can lose up to M cond(Z) eps; errors
                # inside that bound are the known ill-conditioning loss that
                # pass_share counts, errors beyond it fail the run.
                bound = max(TOLERANCE, m * cond * EPS) if math.isfinite(cond) else math.inf
                checks.result(group, place, relative_error(dmax, truth), TOLERANCE, bound)
                if synthetic:
                    checks.result(group + " d_coupled", place, relative_error(d_coupled, truth),
                                  TOLERANCE, bound)


def check_estimate(path: Path, checks: Checks, place: str):
    import numpy as np

    from inputs import fixture_coupling

    truth = fixture_coupling()
    try:
        entries = _parse_csv(path.read_text(), ["row", "col", "re", "im"])
        values = np.full(truth.shape, np.nan, dtype=complex)
        for r, c, re, im in entries:
            values[int(r) - 1, int(c) - 1] = complex(re, im)
    except (OSError, ValueError, IndexError) as exc:
        checks.problems.append(f"estimate {place}: unreadable coupling CSV: {exc}")
        return
    if len(entries) != truth.size:
        checks.problems.append(f"estimate {place}: {len(entries)} entries, expected {truth.size}")
        return
    error = float(np.linalg.norm(values - truth) / np.linalg.norm(truth))
    error = error if math.isfinite(error) else math.inf
    checks.result("estimate C", place, error, ESTIMATE_TOLERANCE, ESTIMATE_TOLERANCE)


# ---- workloads -----------------------------------------------------------------------


def run_sweep_workload(runner, args, endfire, checks):
    out_path = runner.workdir / "sweep.jsonl"
    runner.run([sys.executable, str(WORKER), "sweep", "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", str(out_path)])
    *ops, result = [json.loads(line) for line in out_path.read_text().splitlines()]
    check_sweeps(ops, args.workload == "sweep-synthetic", endfire, checks)
    untraced = [op for op in ops if not op["traced"]]
    return {
        "walls": [op["wall"] for op in untraced],
        "traced_walls": {op["index"]: op["wall"] for op in ops if op["traced"]},
        "points": sum(s["steps"] for op in untraced for s in op["sweeps"]),
        "rss_mb": result["maxrss_kb"] / 1024.0,
        "spans": result["spans"],
        "attempted": len(ops),
        "failed": 0,
        "sweep_workers": result["sweep_workers"],
    }


def run_estimate_workload(runner, args, checks):
    from inputs import ESTIMATE_SPACING, write_estimate_inputs

    data = runner.workdir / "fields"
    data.mkdir()
    isolated, active = write_estimate_inputs(args.seed, str(data))
    walls, rss, traced_walls, spans = [], [], {}, []
    failed = 0
    begin = time.perf_counter()
    untraced_until = args.seconds / 3.0 if args.trace else args.seconds
    index = 0
    while True:
        elapsed = time.perf_counter() - begin
        traced = bool(args.trace) and bool(walls) and elapsed >= untraced_until
        if walls and elapsed >= args.seconds and (traced_walls or not args.trace):
            break
        out = data / f"coupling_{index}.csv"
        cli_args = ["coupling", "estimate", "--isolated", *isolated, "--active", *active,
                    "--spacing", repr(ESTIMATE_SPACING), "--output", str(out)]
        if traced:
            span_path = data / f"spans_{index}.json"
            code, wall, _ = runner.run([sys.executable, str(WORKER), "cli", "--spans",
                                        str(span_path), *cli_args], check=False)
            traced_walls[index] = wall
            if span_path.exists():
                for span in json.loads(span_path.read_text()):
                    span[6] = index
                    spans.append(span)
        else:
            code, wall, peak = runner.run([sys.executable, "-m", "superdir.cli", *cli_args],
                                          check=False)
            walls.append(wall)
            rss.append(peak)
        if code == 0:
            check_estimate(out, checks, f"op {index}")
            out.unlink()
        else:
            failed += 1
            checks.problems.append(f"estimate op {index}: CLI exited with {code}")
        index += 1
    return {
        "walls": walls,
        "traced_walls": traced_walls,
        "points": float(len(walls)),
        "rss_mb": statistics.median(rss),
        "spans": spans,
        "attempted": index,
        "failed": failed,
        "sweep_workers": None,
    }


# ---- report ----------------------------------------------------------------------------


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run, setup_s, checks) -> dict:
    walls = run["walls"]
    digits = checks.digits
    p05 = statistics.quantiles(digits, n=20)[0] if len(digits) > 1 else (digits or [0.0])[0]
    values = {
        "setup_s": setup_s,
        "op_s": statistics.median(walls),
        "points_per_s": run["points"] / sum(walls),
        "peak_rss_mb": run["rss_mb"],
        "pass_share": 1.0 - sum(len(p) for p in checks.missed.values()) / checks.checked,
        "accuracy_digits": p05,
    }
    return {name: _metric(values[name], END_TO_END[name][0]) for name in END_TO_END}


def report_missed(checks: Checks):
    missed = sum(len(places) for places in checks.missed.values())
    share = missed / checks.checked if checks.checked else 0.0
    print(f"failed_share {share:.4f} ({missed} of {checks.checked} checked results outside "
          "tolerance; lower is better)")
    for group, places in checks.missed.items():
        print(f"  missed {group}: {len(places)} at {', '.join(sorted(set(places)))}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "superdir" / "__init__.py").is_file():
        print(f"error: no superdir package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from oracle import EndfireOracle, self_check

    endfire = EndfireOracle()
    problems = self_check(endfire)
    if problems:
        print("error: oracle self-check failed: " + "; ".join(problems), file=sys.stderr)
        return 2

    tmp_parent = ROOT / ".perfbench_tmp"
    tmp_parent.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=tmp_parent))
    try:
        runner = Runner(workdir)
        entry = "superdir.cli" if args.workload == "estimate-cli" else "superdir"
        if args.trace:
            _, import_s = measure_setup(runner, "superdir.cli", 3)
        else:
            setup_s, _ = measure_setup(runner, entry, SETUP_REPEATS)
        checks = Checks()
        if args.workload == "estimate-cli":
            run = run_estimate_workload(runner, args, checks)
        else:
            run = run_sweep_workload(runner, args, endfire, checks)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps(environment(run["sweep_workers"]), sort_keys=True))
    if args.trace:
        from tracing import PER_LAYER, layer_metrics

        values = layer_metrics(run["spans"], run["traced_walls"], statistics.median(run["walls"]),
                               import_s)
        metrics = {name: _metric(values[name], PER_LAYER[name][0]) for name in PER_LAYER}
        print(f"traced operations: {len(run['traced_walls'])}, untraced: {len(run['walls'])}; "
              "counts and times are per operation; swe.basis.bytes_computed, "
              "swe.basis.redundant_share and radiation.impedance.nodes_per_z are computed "
              "from array shapes")
        table = PER_LAYER
    else:
        metrics = end_to_end(run, setup_s, checks)
        print(f"samples: op_s median of {len(run['walls'])} operations; "
              f"setup_s median of {SETUP_REPEATS} fresh imports of {entry}; "
              f"accuracy_digits 5th percentile of {len(checks.digits)} checked results")
        table = END_TO_END
    for name, metric in metrics.items():
        unit, better = table[name]
        print(f"  {name:40s} {metric['value']:.6g} {unit}  ({better} is better)")
    report_missed(checks)
    for problem in checks.problems[:20]:
        print(f"  INCORRECT: {problem}")
    print(json.dumps({
        "correct": not checks.problems,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
