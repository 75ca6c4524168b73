"""Run one `nfr` CLI command with spans around the calls into each module.

    python traced_nfr.py SPANS_JSON OP_ID -- <nfr arguments>

Nothing under src/ is edited: every module-level binding of a traced
function in the `nfr` package is replaced by a wrapper that records a span
(name, start, end, parent, op) and adds to the per-layer counts.  Spans and
counts are kept in memory and written to SPANS_JSON when the command ends.
Parents come from a call stack, which is sound because the CLI path runs on
one thread (NFR_THREADS stays unset).

The `startup` span runs from the moment the parent spawned this process
(PERFBENCH_SPAWN_T, a perf_counter value; on Linux that is CLOCK_MONOTONIC,
shared by all processes) until `nfr.cli` is imported.
"""

import importlib
import json
import os
import sys
import time


def _size(x):
    return int(getattr(x, "size", 1))


def _written_bytes(args, _out):
    return os.path.getsize(args[0])


def _matrix_bytes(args, _out):
    return 8 * _size(args[1]) if getattr(args[1], "ndim", 0) == 2 else 0


# (module, function, {count name: f(args, result) -> amount to add})
TRACED = (
    ("cli", "read_float_csv", {"cli.csv_values": lambda a, r: r.n}),
    ("cli", "write_float_csv", {"cli.csv_values": lambda a, r: a[1].n}),
    ("pgm", "read_pgm", {}),
    ("pgm", "write_pgm", {"pgm.files_written": lambda a, r: 1,
                          "pgm.bytes_written": _written_bytes}),
    ("rearrangement", "decreasing_rearrangement",
     {"rearrangement.n": lambda a, r: a[0].n,
      "rearrangement.q": lambda a, r: r[0].values.size}),
    ("rearrangement", "reconstruct", {}),
    ("filter1d", "iterate", {"filter1d.iterations": lambda a, r: r.iterations}),
    ("filter1d", "nf_step", {}),
    ("filter1d", "functional_j", {}),
    ("kernels", "eval_scaled", {"kernels.evaluations": lambda a, r: _size(a[1]),
                                "filter1d.matrix_bytes_computed": _matrix_bytes}),
    ("kernels", "g_primitive", {"kernels.g_primitive_points": lambda a, r: _size(a[1]),
                                "filter1d.matrix_bytes_computed": _matrix_bytes}),
    ("segmentation", "segment_with_trace",
     {"segmentation.regions": lambda a, r: r[0].region_count}),
)


class Tracer:
    def __init__(self, op: int):
        self.op = op
        self.spans = []
        self.stack = []
        self.counts = {}
        self.missing = []

    def span(self, name, fn, counters):
        def wrapper(*args, **kwargs):
            sid = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            self.spans.append(None)
            self.stack.append(sid)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = {"id": sid, "name": name, "start": t0,
                                   "end": t1, "parent": parent, "op": self.op}
            for key, count in counters.items():
                self.counts[key] = self.counts.get(key, 0) + count(args, out)
            return out
        return wrapper

    def install(self):
        """Rebind every reference to a traced function inside nfr."""
        modules = [m for n, m in sys.modules.items()
                   if (n == "nfr" or n.startswith("nfr.")) and m is not None]
        for mod_name, fn_name, counters in TRACED:
            mod = sys.modules.get(f"nfr.{mod_name}")
            fn = getattr(mod, fn_name, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            wrapped = self.span(f"{mod_name}.{fn_name}", fn, counters)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapped)

    def dump(self, path):
        done = [s for s in self.spans if s is not None]
        with open(path, "w") as fh:
            json.dump({"op": self.op, "spans": done, "counts": self.counts,
                       "missing": self.missing}, fh)


def main():
    spawn_t = float(os.environ["PERFBENCH_SPAWN_T"])
    cli = importlib.import_module("nfr.cli")
    imported_t = time.perf_counter()
    spans_path, op = sys.argv[1], int(sys.argv[2])
    argv = sys.argv[sys.argv.index("--") + 1:]
    tracer = Tracer(op)
    tracer.spans.append({"id": 0, "name": "startup", "start": spawn_t,
                         "end": imported_t, "parent": None, "op": op})
    tracer.install()
    run = tracer.span("cli.main", cli.main, {})
    try:
        return run(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
