"""oscbath benchmark: seeded workloads run through the real command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The seed generates the workload's config
files (see workloads.py); every operation is a fresh
``python -m oscbath.cli run|oracle|validate`` process, and every output is
checked (see check.py).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 reports the end-to-end metrics: medians over repeated passes of
the workload, filling S seconds, plus ``setup_s``, the median of fresh
``validate`` processes, one before each pass and at least five.  --trace 1 runs one pass with every CLI process
under child.py's tracer and reports per-layer self time and call counts,
then untraced passes to price the tracing itself.

Child processes get ``src`` on PYTHONPATH and an environment without
OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS, so the program's
own BLAS-thread defaults are what is measured, and PYTHONDONTWRITEBYTECODE=1,
so nothing is written outside the checkout.  ``run`` gets ``--threads`` equal
to the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
from child import BOUNDARIES  # noqa: E402
from workloads import WORKLOADS, Op, make_workload  # noqa: E402

SETUP_REPEATS = 5
MIN_PASSES = 3
OP_TIMEOUT_S = 150.0
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

LAYERS = [name for name in BOUNDARIES if name != "gaussian.fidelity"] + [
    "gaussian.fidelity_n1", "gaussian.fidelity_n2", "gaussian.fidelity_nbig"]
PER_CALL = ("exact.eigh", "exact.reduced", "flows.evolve", "gaussian.fidelity_n1",
            "gaussian.fidelity_n2", "gaussian.fidelity_nbig", "fock.integrate")


class Runner:
    """Runs CLI processes for one workload and tallies their outcomes."""

    def __init__(self, root: Path, work: Path, seed: int, workload):
        self.root = root
        self.work = work
        self.workload = workload
        self.reference = check.load_reference(workload.name, seed)
        self.threads = len(os.sched_getaffinity(0))
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        self.env["PYTHONPATH"] = str(root / "src")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"  # write nothing outside the checkout
        self.setup_op = Op("validate", workload.setup_config)
        self.attempted = 0
        self.problems = []

    def spawn(self, argv: list, tag: str):
        """Run one child to completion: (exit code, wall s, cpu s, max RSS MB, stdout)."""
        out_path, err_path = self.work / f"{tag}.out", self.work / f"{tag}.err"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=out,
                                    stderr=err, stdin=subprocess.DEVNULL)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, out_path.read_text(encoding="utf-8", errors="replace"))

    def op(self, op: Op, tag: str, spans: Path | None = None):
        """One checked CLI operation; returns (wall, cpu, rss)."""
        cli = [op.kind, str(self.work / op.config)]
        out_dir = self.work / "out"
        if op.kind == "run":
            shutil.rmtree(out_dir, ignore_errors=True)
            cli += ["--out", str(out_dir), "--threads", str(self.threads)]
        head = ([sys.executable, "-m", "oscbath.cli"] if spans is None
                else [sys.executable, str(HERE / "child.py"), "trace", str(spans)])
        code, wall, cpu, rss, stdout = self.spawn(head + cli, tag)
        if op.kind == "run":
            problems = check.check_run(code, out_dir, op.rows, self.reference)
        elif op.kind == "oracle":
            problems = check.check_oracle(code, stdout)
        else:
            problems = check.check_validate(code, stdout)
        self.attempted += 1
        if problems:
            self.problems.append(f"{op.kind} {op.config}: " + "; ".join(problems[:3]))
        return wall, cpu, rss

    def run_pass(self, tag: str, *, with_setup=False, trace_dir: Path | None = None):
        """All ops of one pass, serially: (wall s, cpu s, peak RSS MB, [(wall, spans)])."""
        ops = ((self.setup_op,) if with_setup else ()) + self.workload.ops
        walls, cpus, rsss, traced = [], [], [], []
        for i, op in enumerate(ops):
            spans = None if trace_dir is None else trace_dir / f"{tag}-{i}.json"
            wall, cpu, rss = self.op(op, f"{tag}-{i}", spans)
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
            traced.append((wall, spans))
        return sum(walls), sum(cpus), max(rsss), traced

    def probe(self) -> dict:
        """BLAS threads and versions seen by a child after a real ``validate``.

        Not timed and not counted as an operation.
        """
        argv = [sys.executable, str(HERE / "child.py"), "probe", "validate",
                str(self.work / self.setup_op.config)]
        code, _, _, _, stdout = self.spawn(argv, "probe")
        try:
            return json.loads(stdout.splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            return {"probe_exit": code}


def quartiles(values: list) -> dict:
    """Sample count, median, quartiles and the raw samples, for the detail line."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3, "samples": values}


def _covered(intervals: list, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, end), min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


def layer_metrics(traced: list, untraced_wall: float, traced_wall: float) -> dict:
    """Per-layer self time and call counts from the spans of one traced pass."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    unaccounted = 0.0
    for process_wall, path in traced:
        if not path.exists():  # the child was killed; its op already counts as failed
            continue
        spans = [s for s in json.loads(path.read_text(encoding="utf-8"))["spans"] if s]
        children = [[] for _ in spans]
        roots = []
        for name, start, end, parent in spans:
            (children[parent] if parent >= 0 else roots).append((start, end))
        for (name, start, end, _), kids in zip(spans, children):
            self_s[name] += (end - start) - _covered(kids, start, end)
            calls[name] += 1
        unaccounted += process_wall - _covered(roots, float("-inf"), float("inf"))
    metrics = {}
    for name in LAYERS:
        metrics[f"{name}_s"] = (self_s[name], "s")
        metrics[f"{name}_calls"] = (calls[name], "count")
    for name in PER_CALL:
        metrics[f"{name}_us_per_call"] = (1e6 * self_s[name] / calls[name] if calls[name] else 0.0, "us")
    metrics["trace.unaccounted_s"] = (unaccounted, "s")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return metrics


def git_commit(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def measure(runner: Runner, seconds: float) -> tuple:
    """End-to-end metrics: a set-up ``validate`` and a pass, repeated until
    ``seconds`` are used, so set-up samples see the same machine as passes."""
    setup, walls, cpus, rsss, cycles = [], [], [], [], []
    start = perf_counter()
    while len(walls) < MIN_PASSES or \
            perf_counter() - start + statistics.median(cycles) <= seconds:
        cycle_start = perf_counter()
        setup.append(runner.op(runner.setup_op, f"setup-{len(setup)}")[0])
        wall, cpu, rss, _ = runner.run_pass(f"pass-{len(walls)}")
        walls.append(wall)
        cpus.append(cpu)
        rsss.append(rss)
        cycles.append(perf_counter() - cycle_start)
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.op(runner.setup_op, f"setup-{len(setup)}")[0])
    summary = {"wall_s": quartiles(walls), "cpu_s": quartiles(cpus),
               "peak_rss_mb": quartiles(rsss), "setup_s": quartiles(setup)}
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "cpu_s": (statistics.median(cpus), "s"),
               "peak_rss_mb": (statistics.median(rsss), "MB"),
               "setup_s": (statistics.median(setup), "s")}
    return metrics, summary


def measure_traced(runner: Runner, seconds: float) -> tuple:
    """Per-layer metrics from one traced pass (set-up validate included)."""
    trace_dir = runner.work / "spans"
    trace_dir.mkdir()
    start = perf_counter()
    traced_wall, _, _, traced = runner.run_pass("traced", with_setup=True, trace_dir=trace_dir)
    plain = []
    while not plain or perf_counter() - start + statistics.median(plain) <= seconds:
        plain.append(runner.run_pass(f"plain-{len(plain)}", with_setup=True)[0])
    summary = {"traced_wall_s": traced_wall, "untraced_wall_s": quartiles(plain)}
    return layer_metrics(traced, statistics.median(plain), traced_wall), summary


def prepare_work(workload) -> Path:
    """A fresh working directory holding the workload's generated configs."""
    work = HERE / "_work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    for name, text in workload.files.items():
        (work / name).write_text(text, encoding="utf-8")
    return work


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    if not (root / "src" / "oscbath" / "cli.py").is_file():
        print(f"error: {root} holds no oscbath source (src/oscbath/cli.py); "
              "run from the repository root", file=sys.stderr)
        return 2
    check.self_check()
    workload = make_workload(args.workload, args.seed)
    if make_workload(args.workload, args.seed) != workload:
        print("error: config generation is not deterministic", file=sys.stderr)
        return 2

    runner = Runner(root, prepare_work(workload), args.seed, workload)
    load_start = os.getloadavg()[0]
    if args.trace:
        metrics, summary = measure_traced(runner, args.seconds)
    else:
        metrics, summary = measure(runner, args.seconds)
    env = {"nproc": runner.threads, "cli_threads": runner.threads, **runner.probe(),
           "commit": git_commit(root),
           "load_avg_start": load_start, "load_avg_end": os.getloadavg()[0],
           "reference_rows": runner.reference is not None}

    for problem in runner.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    failed = len(runner.problems)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "env": env,
                      "fail_frac": failed / runner.attempted, "samples": summary}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
