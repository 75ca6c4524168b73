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
the authoritative one for numeric comparisons.  The CSV writer formats each
level once: the nf filter's output has at most Q distinct values, written
through the pixel-to-level index.  The reader, likewise, parses each
distinct token once per 256 KiB block when most of the block's tokens are
repeats, and converts the whole block when they are not.  `denoise` and `segment` write a one-line
JSON report (sorted keys) through one writer, `_write_report`, with the
pixel count `n` and the level count `q` of the rearrangement the run
filtered (null for the pixel-domain filters); only `segment` adds
`region_count`.  `--max-iter` is every filter's one step
count, at least 1 (nf and `segment` may stop earlier on `--tol`); `denoise`
resolves its per-filter default first, so the report's `params.max_iter` is
the one used.

Exit codes: 0 success, 2 usage error (among them a `--max-iter` below 1, a
`--patch` below 0, a `--window` below 1, a `denoise --output` that is not a
.pgm path, a `noise --output` that is not .pgm with `--clamp` or .csv
without it, and a `bench --sizes` with no size or a size below 1, all
checked before the input is read), 3 I/O or file-format error (among them
a `denoise` or `segment` input that is not 2-D, checked before filtering),
4 numeric precondition violation (among them a flag or a J value that is
not finite, so a report never holds NaN or Infinity, and a `compare`
statistic that overflows) or a computation too large for memory
(`MemoryError`).
NFR_THREADS caps worker threads for the pixel-domain filter.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import stat
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


_CSV_BLOCK = 1 << 16  # lines per write of the float CSV body
_READ_BLOCK = 1 << 18  # bytes per read of the float CSV body
_COMMENT = re.compile(rb"#[^\r\n]*")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_float_csv(path, img: Image, table=None, index=None):
    """Write `img` as float CSV, formatting each entry of a value table once.

    Line i of the body is the %.17g string of table[index[i]].  By default
    the table is img.data itself with no index; the nf path passes its Q
    level values and the pixel_level index (table[index] == img.data), so
    only Q strings are formatted for N pixels.  The body goes out in joined
    blocks, so no copy of the whole text is held next to the lines.
    """
    if table is None:
        table = img.data
    lines = [_fmt(v) + "\n" for v in table]
    if index is not None:
        lines = np.array(lines, dtype=object)[index]
    with open(path, "w") as fh:
        fh.write(f"# shape: {' '.join(str(s) for s in img.shape)}\n")
        for start in range(0, len(lines), _CSV_BLOCK):
            fh.write("".join(lines[start:start + _CSV_BLOCK]))


def _write_rows(path, header: str, *columns):
    """Write a CSV table of the columns, every cell formatted by `_fmt`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in zip(*columns))


def _parse_tokens(tokens: list) -> np.ndarray:
    """float64 values of number tokens (bytes), correctly rounded.

    When most of the first 1024 tokens are repeats, each distinct token is
    converted once and the values are gathered through its index.
    """
    head = tokens[:1024]
    if 2 * len(set(head)) >= len(head):
        return np.array(tokens, dtype=np.float64)
    ids = {t: i for i, t in enumerate(dict.fromkeys(tokens))}
    return (np.array(list(ids), dtype=np.float64)
            [np.fromiter(map(ids.__getitem__, tokens), np.intp, len(tokens))])


def read_float_csv(path) -> Image:
    """Read a float CSV: the shape header, then whitespace-separated values.

    The body is read in blocks that end at a line break, so no number or
    comment straddles two blocks, and is parsed into one array of the
    header's size (capped by what the file can hold).  Non-ASCII bytes must
    be UTF-8 and may only appear in comments.
    """
    try:
        with open(path, "rb") as fh:
            head = fh.readline()
            stop = head.find(b"\r")  # a header ended by a bare \r
            head, carry = (head, b"") if stop < 0 else (head[:stop], head[stop:])
            head = head.decode()
            if not head.startswith("# shape:"):
                raise FormatError(f"{path}: missing '# shape:' header line")
            shape = tuple(int(t) for t in head.split(":", 1)[1].split())
            # a value takes a byte and a separator, so a lying header allocates
            # no more than the file can fill (a pipe has no size to go by)
            st = os.fstat(fh.fileno())
            room = (st.st_size - fh.tell() + len(carry) if stat.S_ISREG(st.st_mode)
                    else math.inf)
            out = np.empty(max(0, min(math.prod(shape), room // 2 + 1)))
            n = 0
            while True:
                more = fh.read(_READ_BLOCK)
                block = carry + more
                cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1 if more else len(block)
                block, carry = block[:cut], block[cut:]
                if not block.isascii():
                    block.decode()  # a line break never splits a UTF-8 character
                if b"#" in block:
                    block = _COMMENT.sub(b"", block)
                if b"_" in block:  # float() would take 1_0 as 10
                    raise ValueError("'_' in a number")
                tokens = block.split()
                if n + len(tokens) <= out.size:
                    out[n:n + len(tokens)] = _parse_tokens(tokens)
                n += len(tokens)
                if not more:
                    break
            if n > out.size:
                raise ValueError(f"data has {n} samples, shape {shape} "
                                 f"wants {math.prod(shape)}")
            return Image(out[:n], shape)
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


def _load_2d(path) -> tuple[Image, int]:
    """`load_image` for the commands that write PGM, which must be 2-D."""
    img, maxval = load_image(path)
    if len(img.shape) != 2:
        raise FormatError(f"{path}: PGM output needs a 2-D image, got shape {img.shape}")
    return img, maxval


def _report_params(args) -> dict:
    """The parsed flags the report echoes; a flag that is not finite, such
    as an unread `--p nan`, is a ValueError naming it.  The commands call
    this after filtering, whose own checks name bad flags first, and before
    writing any output."""
    params = {key: v for key, v in vars(args).items()
              if key not in ("func", "_argv") and v is not None}
    for key, v in params.items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"--{key.replace('_', '-')} must be finite, got {v}")
    return params


def _write_report(path, args, k, ticks, outputs, **fields):
    """Write the one-line JSON report of `denoise` or `segment`.

    ticks: the four perf_counter readings that open and close the read,
    filter and write phases.  fields: the command's own entries.  A value
    that is not finite is a ValueError raised before the file is opened, so
    no report is left behind.
    """
    report = {
        "command": getattr(args, "_argv", []),
        "params": _report_params(args),
        **fields,
        "kernel_evaluations": k.evaluations,
        "timings_ms": dict(zip(("read", "filter", "write"),
                               ((b - a) * 1e3 for a, b in zip(ticks, ticks[1:])))),
        "outputs": outputs,
    }
    line = json.dumps(report, sort_keys=True, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(line + "\n")


def _filter_config(args, k) -> FilterConfig:
    return FilterConfig(kernel=k, scheme=args.scheme, stop_tolerance=args.tol,
                        max_iterations=args.max_iter)


# ---------------------------------------------------------------- commands

def cmd_rearrange(args) -> int:
    img, _ = load_image(args.input)
    rearr, levels = decreasing_rearrangement(img)
    cum = np.concatenate(([0.0], np.cumsum(rearr.masses)[:-1]))
    _write_rows(f"{args.prefix}.rearrangement.csv", "cumulative_mass_start,mass,value",
                cum, rearr.masses, rearr.values)
    # the histogram is the level structure in ascending order
    _write_rows(f"{args.prefix}.histogram.csv", "value,mass",
                levels.values[::-1], levels.masses[::-1])
    return 0


def cmd_denoise(args) -> int:
    ticks = [time.perf_counter()]
    img, maxval = _load_2d(args.input)
    ticks.append(time.perf_counter())

    k = make_kernel(args.kernel, args.h, args.p)
    if args.max_iter is None:  # resolved here so the report shows the count
        args.max_iter = {"nf": 100, "nf-direct": 10}.get(args.filter, 1)
    iterations = args.max_iter
    stop_reason = j_trace = table = index = q = None
    if args.filter == "nf":
        rearr, levels = decreasing_rearrangement(img)
        q = rearr.values.size
        trace = iterate(rearr, _filter_config(args, k))
        table, index = trace.iterates[-1].values, levels.pixel_level
        out = reconstruct(levels, table)
        iterations, stop_reason, j_trace = (trace.iterations, trace.stop_reason,
                                            trace.j_values)
    elif args.filter == "nf-direct":
        out = direct_nf(img, k, iterations, args.scheme)
    else:
        windowed = bilateral if args.filter == "bilateral" else nlm
        sp = SpatialConfig(rho=args.rho, patch_radius=args.patch,
                           window_radius=args.window)
        out = windowed(img, k, sp, iterations)
    ticks.append(time.perf_counter())
    _report_params(args)  # a non-finite flag is refused before any output

    write_pgm(args.output, quantize(out.to_array(), maxval), maxval)
    outputs = [args.output]
    if args.csv:
        write_float_csv(args.csv, out, table, index)
        outputs.append(args.csv)
    ticks.append(time.perf_counter())

    _write_report(args.report or f"{args.output}.report.jsonl", args, k, ticks,
                  outputs, n=img.n, q=q, iterations=iterations,
                  stop_reason=stop_reason, j_trace=j_trace)
    return 0


def cmd_segment(args) -> int:
    ticks = [time.perf_counter()]
    img, _ = _load_2d(args.input)
    ticks.append(time.perf_counter())

    k = make_kernel(args.kernel, args.h, args.p)
    seg, trace = segment_with_trace(img, _filter_config(args, k), args.merge_tol)
    ticks.append(time.perf_counter())
    _report_params(args)  # a non-finite flag is refused before any output

    labels_path = f"{args.prefix}.labels.pgm"
    write_pgm(labels_path, seg.labels.reshape(seg.shape), 65535)
    outputs = [labels_path]
    for i in range(seg.region_count):
        mask_path = f"{args.prefix}.region{i:03d}.pgm"
        write_pgm(mask_path, seg.mask(i) * np.uint8(255), 255)
        outputs.append(mask_path)
    regions_path = f"{args.prefix}.regions.csv"
    _write_rows(regions_path, "label,value,mass", range(seg.region_count),
                seg.region_values, seg.region_masses)
    outputs.append(regions_path)
    ticks.append(time.perf_counter())

    _write_report(args.report or f"{args.prefix}.report.jsonl", args, k, ticks,
                  outputs, n=img.n, q=trace.iterates[0].values.size,
                  iterations=trace.iterations, stop_reason=trace.stop_reason,
                  j_trace=trace.j_values, region_count=seg.region_count)
    return 0


def cmd_noise(args) -> int:
    pgm = args.output.endswith(".pgm")  # else .csv: the --output type checks
    if pgm and not args.clamp:
        print("error: PGM output requires --clamp (noise leaves the "
              "integer range); use a .csv output for lossless values",
              file=sys.stderr)
        return 2
    if args.clamp and not pgm:
        print("error: --clamp only applies to .pgm outputs", file=sys.stderr)
        return 2
    img, maxval = load_image(args.input)
    noisy = add_gaussian_noise(img, NoiseSpec(snr=args.snr, seed=args.seed))
    if pgm:
        write_pgm(args.output, quantize(noisy.to_array(), maxval), maxval)
    else:
        write_float_csv(args.output, noisy)
    return 0


def cmd_bench(args) -> int:
    try:
        sides = [int(s) for s in args.sizes.split(",") if s]
    except ValueError:
        sides = []
    if not sides or min(sides) < 1:
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

        evals, ms = [], []
        for run in (lambda: nf_step(rearr, rearr, k),
                    lambda: direct_nf(img, k, 1, "varying")):
            k.reset_evaluations()
            t0 = time.perf_counter()
            run()
            ms.append(f"{(time.perf_counter() - t0) * 1e3:.3f}")
            evals.append(k.evaluations)
        rows.append((n, rearr.values.size, *evals, n * n, *ms))
    with open(args.output, "w") as fh:
        fh.write("n,q,evals_1d,evals_direct,evals_naive,ms_1d,ms_direct\n")
        fh.writelines(",".join(map(str, r)) + "\n" for r in rows)
    return 0


def cmd_compare(args) -> int:
    a, _ = load_image(args.a)
    b, _ = load_image(args.b)
    with np.errstate(all="ignore"):  # an overflow is refused below
        d = rmse(a, b)
        sigma_noise = float(np.std(b.data - a.data))
        sigma_a = float(np.std(a.data))
        payload = {
            "rmse": d,
            "snr": snr_measure(a, b) if sigma_noise > 0.0 and sigma_a > 0.0 else None,
            "max_abs_diff": float(np.max(np.abs(a.data - b.data))),
        }
    for key, v in payload.items():
        if v is not None and not math.isfinite(v):
            raise ValueError(f"{key} is not finite ({v}): the images' values "
                             f"overflow float64 arithmetic")
    print(json.dumps(payload, sort_keys=True))
    return 0


# ------------------------------------------------------------------ parser

def _add_kernel_flags(p, h_required=True):
    p.add_argument("--kernel", choices=("gaussian", "power"), default="gaussian")
    p.add_argument("--h", type=float, required=h_required, default=20.0,
                   help="kernel scale")
    p.add_argument("--p", type=float, default=2.0,
                   help="power-decay exponent (power kernel only)")


def _int_at_least(lo: int):
    """An argparse type: an int >= lo, else a usage error (exit 2)."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:  # argparse would name this function in its message
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if n < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {n}")
        return n
    return parse


def _path_with_suffix(*suffixes: str, hint: str):
    """An argparse type: a path ending in one of `suffixes`."""
    def parse(text: str) -> str:
        if not text.endswith(suffixes):
            raise argparse.ArgumentTypeError(f"{text!r} is not a {'/'.join(suffixes)} "
                                             f"path; {hint}")
        return text
    return parse


def _add_filter_flags(p):
    _add_kernel_flags(p)
    p.add_argument("--scheme", choices=("varying", "fixed"), default="varying")
    p.add_argument("--max-iter", type=_int_at_least(1), default=100, dest="max_iter",
                   help="iteration count; nf and segment stop earlier on --tol "
                        "(denoise default: nf 100, nf-direct 10, bilateral/nlm 1)")
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
    p.add_argument("--output", required=True,
                   type=_path_with_suffix(".pgm", hint="use --csv for lossless float output"),
                   help="output PGM path")
    p.add_argument("--filter", choices=("nf", "nf-direct", "bilateral", "nlm"),
                   default="nf")
    _add_filter_flags(p)
    p.add_argument("--rho", type=float, default=2.0,
                   help="spatial scale (bilateral) / patch std (nlm)")
    p.add_argument("--patch", type=_int_at_least(0), default=1,
                   help="nlm patch radius")
    p.add_argument("--window", type=_int_at_least(1), default=None,
                   help="window radius (bilateral default ceil(3*rho), nlm 10)")
    p.add_argument("--csv", default=None, help="also dump lossless float CSV")
    p.set_defaults(func=cmd_denoise, max_iter=None)

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
                   type=_path_with_suffix(".pgm", ".csv", hint="want .csv, or .pgm with --clamp"),
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
