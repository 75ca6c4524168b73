"""Closed-loop benchmark of the `nfr` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client runs one `python -m nfr ...`
child at a time.  With --trace 0 it runs workload operations, the first
five each followed by a `python -c "import nfr.cli"` child, until about S
seconds of child wall time are measured, and reports the end-to-end
metrics.  With --trace 1 it alternates untraced operations with operations
run under traced_nfr.py and reports the per-layer metrics.  Every operation's outputs are checked
against the direct_nf oracle outside the timed intervals.

The last line of standard output is one JSON object: correct, attempted,
failed and metrics.  The lines above it print every metric by name with its
unit.  Full results, and the spans of a traced run, are written under
.perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACED_CHILD = Path(__file__).resolve().parent / "traced_nfr.py"
MIN_SAMPLES = 3  # operations of each kind, however short --seconds is
SETUP_SAMPLES = 5  # import children per untraced run
DEADLINE_S = 150.0  # children are killed, and the loop stops, past this
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# per-layer time -> span name; these are self times.  Two more are derived:
# filter1d.iterate_s, the whole engine (steps, J and kernel calls), and
# startup.exit_s, the child's wall time after its last span (interpreter exit)
LAYER_TIMES = {
    "startup.import_s": "startup",
    "cli.self_s": "cli.main",
    "cli.csv_read_s": "cli.read_float_csv",
    "cli.csv_write_s": "cli.write_float_csv",
    "pgm.read_s": "pgm.read_pgm",
    "pgm.write_s": "pgm.write_pgm",
    "rearrangement.rearrange_s": "rearrangement.decreasing_rearrangement",
    "rearrangement.reconstruct_s": "rearrangement.reconstruct",
    "filter1d.step_s": "filter1d.nf_step",
    "filter1d.j_s": "filter1d.functional_j",
    "kernels.eval_s": "kernels.eval_scaled",
    "kernels.g_primitive_s": "kernels.g_primitive",
    "segmentation.segment_s": "segmentation.segment_with_trace",
}
LAYER_COUNTS = {
    "cli.csv_values": "count",
    "pgm.files_written": "count",
    "pgm.bytes_written": "B",
    "rearrangement.n": "count",
    "rearrangement.q": "count",
    "filter1d.iterations": "count",
    "filter1d.matrix_bytes_computed": "B",
    "kernels.evaluations": "count",
    "kernels.g_primitive_points": "count",
    "segmentation.regions": "count",
}


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    error: str | None = None
    traced: bool = False


def _kill(pid: int):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Spawns one child at a time and times it from spawn to exit."""

    def __init__(self, work: Path, env: dict, deadline: float):
        self.work = work
        self.env = env
        self.deadline = deadline  # perf_counter value

    def run(self, argv: list[str]) -> Sample:
        err_path = self.work / "child.stderr"
        with open(err_path, "wb") as err:
            env = dict(self.env, PERFBENCH_SPAWN_T=repr(time.perf_counter()))
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - t0), _kill, (proc.pid,))
            watchdog.start()
            try:
                # wait4 gives this child's own rusage, not RUSAGE_CHILDREN's
                # running maximum over every child so far
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        error = None
        if code != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            error = f"exit code {code}: {' '.join(tail)}"
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      code, error)


def child_env() -> dict:
    """The environment of every child: the absolute directory holding the
    nfr package first on PYTHONPATH (a relative one breaks once cwd moves),
    NFR_THREADS unset as in the acceptance tests, and one BLAS thread.

    With two BLAS threads on two cores the Q^2 matrix-vector products were
    no faster but burned a third more CPU, and each operation waited
    whenever the second core was taken away from it."""
    env = os.environ.copy()
    env.pop("NFR_THREADS", None)
    env.update({v: "1" for v in BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads_parent": {v: os.environ[v] for v in BLAS_VARS if v in os.environ},
        "blas_threads_children": 1,
        "machine": platform.machine(),
    }


def tail_percentile(values: list[float]) -> dict:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"samples": n, "percentile": None, "value": None}
    if n > 10:
        pct = (100 * (n - 10)) // n
        out["percentile"] = pct
        out["value"] = sorted(values)[max(0, -(-pct * n // 100) - 1)]
    return out


def self_times(spans: list[dict]) -> dict:
    """Span duration minus the time covered by its child spans, by name."""
    child_time = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals = {}
    for s in spans:
        d = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        totals[s["name"]] = totals.get(s["name"], 0.0) + d
    return totals


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer metrics of each traced operation, then their median."""
    per_op = []
    for t in traced:
        selfs = self_times(t["spans"])
        m = {k: selfs.get(span, 0.0) for k, span in LAYER_TIMES.items()}
        m["filter1d.iterate_s"] = sum(s["end"] - s["start"] for s in t["spans"]
                                      if s["name"] == "filter1d.iterate")
        lifetime = max(s["end"] for s in t["spans"]) - min(s["start"] for s in t["spans"])
        m["startup.exit_s"] = t["wall_s"] - lifetime
        m.update({k: t["counts"].get(k, 0) for k in LAYER_COUNTS})
        per_op.append(m)
    # median_low keeps counts whole; they are the same in every operation
    return {k: (statistics.median_low if k in LAYER_COUNTS else statistics.median)(
        op[k] for op in per_op) for k in per_op[0]}


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(wl, checker, runner: Runner, seconds: float, trace: bool):
    """The closed loop; returns (operation samples, setup samples, traced)."""
    nfr_argv = [sys.executable, "-m", "nfr", *wl.argv()]
    setup_argv = [sys.executable, "-c", "import nfr.cli"]
    ops, setups, traced = [], [], []
    measured = 0.0

    def operation(traced_op: bool) -> Sample:
        wl.clear_outputs(runner.work)
        if traced_op:
            spans = runner.work / "spans.json"
            spans.unlink(missing_ok=True)
            s = runner.run([sys.executable, str(TRACED_CHILD), str(spans),
                            str(len(traced)), "--", *wl.argv()])
            s.traced = True
            if spans.exists():
                traced.append(json.loads(spans.read_text()) | {"wall_s": s.wall_s})
        else:
            s = runner.run(nfr_argv)
        if s.code == 0:
            try:
                s.error = checker.check(runner.work)
            except (OSError, ValueError, KeyError) as exc:
                s.error = f"unreadable output: {exc}"
        return s

    runner.run(setup_argv)  # untimed warm-up: bytecode and page cache
    cycle = 0.0
    # stop at the cycle boundary nearest to `seconds`
    while (measured + cycle / 2 < seconds or len(ops) < MIN_SAMPLES * (1 + trace)) \
            and time.perf_counter() < runner.deadline:
        pair = [operation(False)]
        if trace:
            pair.append(operation(True))
            ops += pair
        else:
            ops.append(pair[0])
            # setup children only until their median is defined, leaving
            # the rest of the run to operations
            if len(setups) < SETUP_SAMPLES:
                pair.append(runner.run(setup_argv))
                setups.append(pair[1])
        cycle = sum(s.wall_s for s in pair)
        measured += cycle
    return ops, setups, traced


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "nfr" / "__init__.py").is_file():
        print(f"perfbench: no nfr package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nfr
    if Path(nfr.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: imported nfr from {nfr.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import Checker

    wl = WORKLOADS[args.workload]
    label = f"{wl.name}.seed{args.seed}.trace{args.trace}"
    work = WORK / label
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    t_start = time.perf_counter()
    try:
        pixels = wl.make_input(args.seed, work)
        input_bytes = (work / wl.input_name()).stat().st_size
        checker = Checker(wl, pixels)
        t_input = time.perf_counter()
        ops, setups, traced = measure(wl, checker, Runner(work, child_env(), deadline),
                                      args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    t_measured = time.perf_counter()

    attempted = len(ops)
    failures = [s.error for s in ops if s.error]
    setup_failures = [s.error for s in setups if s.error]
    fail_ratio = len(failures) / attempted
    walls = [s.wall_s for s in ops if not s.traced]
    if args.trace:
        layers = layer_metrics(traced) if traced else {}
        # ops alternate untraced, traced: differencing each pair cancels the
        # host's drift in speed over the run
        overhead = statistics.median(t.wall_s - u.wall_s for u, t in zip(ops[::2], ops[1::2]))
        units = {k: "s" for k in LAYER_TIMES} | LAYER_COUNTS | {
            "filter1d.iterate_s": "s", "startup.exit_s": "s"}
        metrics = {k: metric(v, units[k]) for k, v in layers.items()}
        metrics["trace.overhead_s"] = metric(overhead, "s")
        metrics["fail_ratio"] = metric(fail_ratio, "ratio")
    else:
        metrics = {
            "wall_s": metric(statistics.median(walls), "s"),
            "setup_s": metric(statistics.median(s.wall_s for s in setups), "s"),
            "peak_rss_mb": metric(max(s.maxrss_kb for s in ops) / 1024.0, "MB"),
            "ok_ratio": metric(1.0 - fail_ratio, "ratio"),
        }
    correct = not failures and not setup_failures and (not args.trace or bool(traced))

    details = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "n": int(pixels.size), "q": checker.q, "input_bytes": input_bytes,
        "iterations": checker.iterations, "fail_ratio": fail_ratio,
        "wall_s_tail": tail_percentile(walls),
        "wall_s_samples": walls,
        "setup_s_samples": [s.wall_s for s in setups],
        "cpu_s_samples": [s.cpu_s for s in ops if not s.traced],
        "errors": sorted(set(failures + setup_failures)),
        "harness_s": {"input": t_input - t_start, "loop": t_measured - t_input,
                      "children": sum(s.wall_s for s in ops + setups),
                      "check": checker.seconds},
        "environment": environment(),
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{label}.json").write_text(json.dumps(details, indent=1) + "\n")
    if args.trace:
        (results / f"{label}.spans.json").write_text(json.dumps(
            {"environment": details["environment"], "operations": traced}) + "\n")

    tail = details["wall_s_tail"]
    print(f"{wl.name}  seed {args.seed}  N={pixels.size} Q={checker.q} "
          f"input {input_bytes} B  iterations {checker.iterations}")
    print(f"  operations {attempted}, failed {len(failures)} "
          f"(fail_ratio {fail_ratio:.4g} ratio); wall_s tail: "
          f"p{tail['percentile']} = {tail['value']} s over {tail['samples']} samples")
    for err in details["errors"]:
        print(f"  error: {err}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:34s} {value:>16} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
