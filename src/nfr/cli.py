"""Batch command-line frontend.

    nfr rearrange --input in.pgm --prefix out
    nfr denoise   --input in.{pgm,csv} --output out.pgm --filter nf --h 25 ...
    nfr segment   --input in.{pgm,csv} --prefix out --h 25 ...
    nfr noise     --input in.{pgm,csv} --output noisy.csv --snr 10 --seed 7
    nfr bench     --sizes 64,128,256 --q 256 --h 20 --output bench.csv
    nfr compare   --a x.{pgm,csv} --b y.{pgm,csv}

Images travel as binary PGM (8/16-bit) or as lossless float CSV (a
"# shape: ..." comment line followed by one %.17g value per line, row
major); PGM output is a rounded, clamped presentation copy, the CSV path is
the authoritative one for numeric comparisons.  `denoise` and `segment`
write a one-line JSON report (sorted keys) through one writer,
`_write_report`; only `segment` adds `region_count`.

Exit codes: 0 success, 2 usage error, 3 I/O or file-format error, 4 numeric
precondition violation or a computation too large for memory (the dense
engine holds Q x Q float64 matrices for Q distinct levels).  NFR_THREADS
caps worker threads for the pixel-domain filter.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .filter1d import FilterConfig, nf_step, iterate
from .kernels import make_kernel
from .noise_metrics import NoiseSpec, add_gaussian_noise, rmse, snr_measure
from .pgm import PgmError, quantize, read_pgm, write_pgm
from .rearrangement import Image, decreasing_rearrangement, reconstruct
from .reference_filters import SpatialConfig, bilateral, default_workers, direct_nf, nlm
from .segmentation import segment_with_trace


class FormatError(Exception):
    """Unreadable or malformed input file (exit code 3)."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_float_csv(path, img: Image):
    lines = [f"# shape: {' '.join(str(s) for s in img.shape)}\n"]
    lines.extend(_fmt(v) + "\n" for v in img.data)
    with open(path, "w") as fh:
        fh.writelines(lines)


def read_float_csv(path) -> Image:
    with open(path) as fh:
        head = fh.readline()
        if not head.startswith("# shape:"):
            raise FormatError(f"{path}: missing '# shape:' header line")
        try:
            shape = tuple(int(t) for t in head.split(":", 1)[1].split())
            data = np.loadtxt(fh, dtype=np.float64, ndmin=1)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc
    try:
        return Image(data, shape)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_image(path) -> tuple[Image, int]:
    """Read PGM or float CSV; returns (image, maxval for PGM output)."""
    p = str(path)
    if p.endswith(".pgm"):
        data, maxval = read_pgm(p)
        return Image.from_array(data.astype(np.float64)), maxval
    if p.endswith(".csv"):
        return read_float_csv(p), 255
    raise FormatError(f"{p}: unknown image extension (want .pgm or .csv)")


def _write_report(path, args, k, ticks, outputs, **fields):
    """Write the one-line JSON report of `denoise` or `segment`.

    ticks: the four perf_counter readings that open and close the read,
    filter and write phases.  fields: the command's own entries.
    """
    report = {
        "command": getattr(args, "_argv", []),
        "params": {key: v for key, v in vars(args).items()
                   if key not in ("func", "_argv") and v is not None},
        **fields,
        "kernel_evaluations": k.evaluations,
        "timings_ms": dict(zip(("read", "filter", "write"),
                               ((b - a) * 1e3 for a, b in zip(ticks, ticks[1:])))),
        "outputs": outputs,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(report, sort_keys=True) + "\n")


def _filter_config(args, k) -> FilterConfig:
    return FilterConfig(kernel=k, scheme=args.scheme, stop_tolerance=args.tol,
                        max_iterations=args.max_iter)


# ---------------------------------------------------------------- commands

def cmd_rearrange(args) -> int:
    img, _ = load_image(args.input)
    rearr, levels = decreasing_rearrangement(img)
    cum = np.concatenate(([0.0], np.cumsum(rearr.masses)[:-1]))
    with open(f"{args.prefix}.rearrangement.csv", "w") as fh:
        fh.write("cumulative_mass_start,mass,value\n")
        for c, m, v in zip(cum, rearr.masses, rearr.values):
            fh.write(f"{_fmt(c)},{_fmt(m)},{_fmt(v)}\n")
    with open(f"{args.prefix}.histogram.csv", "w") as fh:
        fh.write("value,mass\n")
        # the histogram is the level structure in ascending order
        for v, m in zip(levels.values[::-1], levels.masses[::-1]):
            fh.write(f"{_fmt(v)},{int(m)}\n")
    return 0


def cmd_denoise(args) -> int:
    ticks = [time.perf_counter()]
    img, maxval = load_image(args.input)
    ticks.append(time.perf_counter())

    k = make_kernel(args.kernel, args.h, args.p)
    stop_reason = j_trace = None
    if args.filter == "nf":
        rearr, levels = decreasing_rearrangement(img)
        trace = iterate(rearr, _filter_config(args, k))
        out = reconstruct(levels, trace.iterates[-1].values)
        iterations, stop_reason, j_trace = (trace.iterations, trace.stop_reason,
                                            trace.j_values)
    else:
        default = 10 if args.filter == "nf-direct" else 1
        iterations = default if args.iterations is None else args.iterations
        if args.filter == "nf-direct":
            out = direct_nf(img, k, iterations, args.scheme)
        else:
            windowed = bilateral if args.filter == "bilateral" else nlm
            sp = SpatialConfig(rho=args.rho, patch_radius=args.patch,
                               window_radius=args.window)
            out = windowed(img, k, sp, iterations)
    ticks.append(time.perf_counter())

    write_pgm(args.output, quantize(out.to_array(), maxval), maxval)
    outputs = [args.output]
    if args.csv:
        write_float_csv(args.csv, out)
        outputs.append(args.csv)
    ticks.append(time.perf_counter())

    _write_report(args.report or f"{args.output}.report.jsonl", args, k, ticks,
                  outputs, iterations=iterations, stop_reason=stop_reason,
                  j_trace=j_trace)
    return 0


def cmd_segment(args) -> int:
    ticks = [time.perf_counter()]
    img, _ = load_image(args.input)
    ticks.append(time.perf_counter())

    k = make_kernel(args.kernel, args.h, args.p)
    seg, trace = segment_with_trace(img, _filter_config(args, k), args.merge_tol)
    ticks.append(time.perf_counter())

    labels_path = f"{args.prefix}.labels.pgm"
    write_pgm(labels_path, seg.labels.reshape(seg.shape), 65535)
    outputs = [labels_path]
    for i in range(seg.region_count):
        mask_path = f"{args.prefix}.region{i:03d}.pgm"
        write_pgm(mask_path, seg.mask(i).astype(np.uint8) * 255, 255)
        outputs.append(mask_path)
    regions_path = f"{args.prefix}.regions.csv"
    with open(regions_path, "w") as fh:
        fh.write("label,value,mass\n")
        for i, (v, m) in enumerate(zip(seg.region_values, seg.region_masses)):
            fh.write(f"{i},{_fmt(v)},{_fmt(m)}\n")
    outputs.append(regions_path)
    ticks.append(time.perf_counter())

    _write_report(args.report or f"{args.prefix}.report.jsonl", args, k, ticks,
                  outputs, iterations=trace.iterations,
                  stop_reason=trace.stop_reason, j_trace=trace.j_values,
                  region_count=seg.region_count)
    return 0


def cmd_noise(args) -> int:
    img, maxval = load_image(args.input)
    noisy = add_gaussian_noise(img, NoiseSpec(snr=args.snr, seed=args.seed))
    out = str(args.output)
    if out.endswith(".pgm"):
        if not args.clamp:
            print("error: PGM output requires --clamp (noise leaves the "
                  "integer range); use a .csv output for lossless values",
                  file=sys.stderr)
            return 2
        write_pgm(out, quantize(noisy.to_array(), maxval), maxval)
    elif out.endswith(".csv"):
        if args.clamp:
            print("error: --clamp only applies to .pgm outputs", file=sys.stderr)
            return 2
        write_float_csv(out, noisy)
    else:
        print(f"error: unknown output extension for {out}", file=sys.stderr)
        return 2
    return 0


def cmd_bench(args) -> int:
    try:
        sides = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        print(f"error: bad --sizes {args.sizes!r}", file=sys.stderr)
        return 2
    q = args.q
    if q < 2:
        print(f"error: bad --q {q}: the ramp needs at least 2 levels",
              file=sys.stderr)
        return 2
    rows = []
    for side in sides:
        n = side * side
        if n < q:
            raise ValueError(f"size {side}^2 cannot host {q} distinct levels")
        # ramp with exactly q levels, every level populated
        level = (np.arange(n) * q) // n
        img = Image(level * (255.0 / (q - 1)), (side, side))
        rearr, _ = decreasing_rearrangement(img)
        k = make_kernel(args.kernel, args.h, args.p)

        k.reset_evaluations()
        t0 = time.perf_counter()
        nf_step(rearr, rearr, k)
        ms_1d = (time.perf_counter() - t0) * 1e3
        evals_1d = k.evaluations

        k.reset_evaluations()
        t0 = time.perf_counter()
        direct_nf(img, k, 1, "varying")
        ms_direct = (time.perf_counter() - t0) * 1e3
        evals_direct = k.evaluations

        rows.append((n, rearr.values.size, evals_1d, evals_direct,
                     n * n, ms_1d, ms_direct))
    with open(args.output, "w") as fh:
        fh.write("n,q,evals_1d,evals_direct,evals_naive,ms_1d,ms_direct\n")
        for r in rows:
            fh.write(f"{r[0]},{r[1]},{r[2]},{r[3]},{r[4]},"
                     f"{r[5]:.3f},{r[6]:.3f}\n")
    return 0


def cmd_compare(args) -> int:
    a, _ = load_image(args.a)
    b, _ = load_image(args.b)
    d = rmse(a, b)
    sigma_noise = float(np.std(b.data - a.data))
    sigma_a = float(np.std(a.data))
    snr = snr_measure(a, b) if sigma_noise > 0.0 and sigma_a > 0.0 else None
    payload = {
        "rmse": d,
        "snr": snr,
        "max_abs_diff": float(np.max(np.abs(a.data - b.data))),
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


# ------------------------------------------------------------------ parser

def _add_kernel_flags(p, h_required=True):
    p.add_argument("--kernel", choices=("gaussian", "power"), default="gaussian")
    p.add_argument("--h", type=float, required=h_required, default=20.0,
                   help="kernel scale")
    p.add_argument("--p", type=float, default=2.0,
                   help="power-decay exponent (power kernel only)")


def _add_filter_flags(p):
    _add_kernel_flags(p)
    p.add_argument("--scheme", choices=("varying", "fixed"), default="varying")
    p.add_argument("--max-iter", type=int, default=100, dest="max_iter")
    p.add_argument("--tol", type=float, default=1e-5,
                   help="relative stopping tolerance on the J functional")
    p.add_argument("--report", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nfr",
        description="Nonlocal neighborhood filtering on the decreasing "
                    "rearrangement: denoising, segmentation, benchmarks.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rearrange", help="dump rearrangement + histogram CSVs")
    p.add_argument("--input", required=True)
    p.add_argument("--prefix", required=True)
    p.set_defaults(func=cmd_rearrange)

    p = sub.add_parser("denoise", help="run a filter over an image")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True, help="output PGM path")
    p.add_argument("--filter", choices=("nf", "nf-direct", "bilateral", "nlm"),
                   default="nf")
    _add_filter_flags(p)
    p.add_argument("--iterations", type=int, default=None,
                   help="iteration count (nf-direct default 10, "
                        "bilateral/nlm default 1)")
    p.add_argument("--rho", type=float, default=2.0,
                   help="spatial scale (bilateral) / patch std (nlm)")
    p.add_argument("--patch", type=int, default=1, help="nlm patch radius")
    p.add_argument("--window", type=int, default=None,
                   help="window radius (bilateral default ceil(3*rho), nlm 10)")
    p.add_argument("--csv", default=None, help="also dump lossless float CSV")
    p.set_defaults(func=cmd_denoise)

    p = sub.add_parser("segment", help="filter to convergence, emit regions")
    p.add_argument("--input", required=True)
    p.add_argument("--prefix", required=True)
    _add_filter_flags(p)
    p.add_argument("--merge-tol", type=float, default=1e-3, dest="merge_tol",
                   help="region merge tolerance, relative to dynamic range")
    p.set_defaults(func=cmd_segment)

    p = sub.add_parser("noise", help="add seeded Gaussian noise at a given SNR")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True,
                   help=".csv for lossless floats, .pgm with --clamp")
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--clamp", action="store_true",
                   help="round and clamp for PGM output (lossy)")
    p.set_defaults(func=cmd_noise)

    p = sub.add_parser("bench", help="kernel-evaluation counts and wall times")
    p.add_argument("--sizes", default="64,128,256",
                   help="comma-separated image side lengths")
    p.add_argument("--q", type=int, default=256, help="distinct levels")
    _add_kernel_flags(p, h_required=False)
    p.add_argument("--output", required=True, help="CSV report path")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="RMSE / SNR / max diff of two images")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    return ap


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        default_workers()  # fail fast on a bad NFR_THREADS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args = build_parser().parse_args(argv)
    args._argv = list(argv)
    try:
        return args.func(args)
    except (PgmError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
