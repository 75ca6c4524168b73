"""Batch command-line frontend.

    nfr rearrange --input in.pgm --prefix out
    nfr denoise   --input in.{pgm,csv} [--output out.pgm] [--csv out.csv] --h 25 ...
    nfr segment   --input in.{pgm,csv} --prefix out --h 25 ...
    nfr noise     --input in.{pgm,csv} --output noisy.csv --snr 10 --seed 7
    nfr bench     --sizes 64,128,256 --q 256 --h 20 --output bench.csv
    nfr compare   --a x.{pgm,csv} --b y.{pgm,csv}

Images travel as binary PGM (8/16-bit) or as lossless float CSV (a
"# shape: ..." comment line followed by one %.17g value per line, row
major); PGM output is a rounded, clamped presentation copy, the CSV path is
the authoritative one for numeric comparisons.  `denoise` writes the PGM
copy (`--output`, 2-D images only; it warns on stderr when the clamp
changed pixels), the CSV (`--csv`, any dimension) or both.  A PGM raster
is the uint8 or uint16 codes of an identity table (see `rearrangement.Image`),
and `segment` builds every region mask in one reused uint8 buffer.  The nf
filter's output is the input's codes with a new table (see `reconstruct`),
whose distinct values the CSV writer formats once; any other image is
formatted a block at a time.
The reader, likewise, names each token of a file whose first block is
mostly repeats by a uint16 code and converts each distinct token once:
the image is those codes and the table of the tokens' values as first
seen, counted like a raster with no float64 copy and no N-sized sort
(`decreasing_rearrangement` merges equal entries).  A file whose first
block is mostly distinct, or which passes 2^16 distinct tokens, is
converted a block at a time; a body on one line is cut at spaces.
`denoise` and `segment` write a one-line JSON report (sorted keys)
through one writer, `_write_report`, with the pixel count `n`, the
level count `q` of the rearrangement the run filtered, the values its
passes computed, `pairs_computed`, and each pass's engine, `engines`
("band" or "box"; all three null for the pixel-domain filters); only
`segment` adds `region_count`.  The PGM copy of an nf
output quantizes its value table and gathers it through the codes.
`--max-iter` is every filter's one step count, at least 1 (nf and
`segment` may stop earlier on `--tol`); `denoise` resolves its
per-filter default first, so the report's `params.max_iter` is the one
used.

Exit codes: 0 success, 2 usage error (among them a `--max-iter` below 1, a
`--patch` below 0, a `--window` below 1, a `denoise` with neither
`--output` nor `--csv` or with an `--output` that is not a .pgm path, a
`noise --output` that is not .pgm with `--clamp` or .csv without it, and
a `bench --sizes` with no size or a size below 1, all checked before the
input is read), 3 I/O or file-format error (among them a `segment` input,
or a `denoise` input with `--output` or a windowed filter, that is not
2-D, checked before filtering), 4 numeric precondition violation (among
them a flag or a J value that is not finite, so a report never holds NaN
or Infinity, and a `compare` statistic that overflows) or a computation
too large for memory (`MemoryError`).
`nf-direct` runs on every CPU in the process's affinity mask (`taskset`
limits it), with the same output bits.  `run` is the process entry point:
it freezes the import-time heap, then calls `main`.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import stat
import sys
import time

import numpy as np

from .filter1d import FilterConfig, iterate
from .kernels import make_kernel
from .noise_metrics import NoiseSpec, add_gaussian_noise
from .pgm import PgmError, quantize, read_pgm, write_pgm
from .rearrangement import Image, decreasing_rearrangement, reconstruct
from .reference_filters import SpatialConfig, bilateral, direct_nf, nlm
from .segmentation import segment_with_trace


class FormatError(Exception):
    """Unreadable or malformed input file (exit code 3)."""


_CSV_BLOCK = 1 << 16  # lines per write of the float CSV body
_READ_BLOCK = 1 << 18  # bytes per read of the float CSV body
_MAX_CODES = 1 << 16  # distinct tokens that uint16 codes can name
_COMMENT = re.compile(rb"#[^\r\n]*")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def write_float_csv(path, img: Image):
    """Write `img` as float CSV: the shape header, then one %.17g value a line.

    The body goes out as bytes, as `read_float_csv` reads it (lines end in
    "\\n" on every platform), a block of `_CSV_BLOCK` lines joined as one str
    and encoded at a time (`bytes.join` takes an 80-byte view per line).  A
    coded image (see `Image`; the nf filter's output is one) has each distinct
    bit pattern of its table formatted once, and each block's lines gathered
    through its codes; any other image is formatted one block at a time.
    """
    coded = img.table is not None
    if coded:  # a 16-bit raster's table has 2^16 entries for Q values
        bits, entry = np.unique(img.table.view(np.int64), return_inverse=True)
        lines = np.array([_fmt(v) + "\n" for v in bits.view(np.float64)], dtype=object)[entry]
    flat = img.raster if coded else img.data
    with open(path, "wb") as fh:
        fh.write(f"# shape: {' '.join(str(s) for s in img.shape)}\n".encode())
        for a in range(0, flat.size, _CSV_BLOCK):
            block = flat[a:a + _CSV_BLOCK]
            fh.write("".join(lines[block] if coded else [_fmt(v) + "\n" for v in block]).encode())


def _write_rows(path, header: str, *columns):
    """Write a CSV table of the columns, every cell formatted by `_fmt`."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(_fmt, row)) + "\n" for row in zip(*columns))


class _TokenCodes(dict):
    """Number tokens (bytes) -> uint16 codes, numbered in the order first
    seen; looking up a new token past the 2^16th is an OverflowError."""

    def __missing__(self, token):
        if len(self) == _MAX_CODES:
            raise OverflowError(f"more than {_MAX_CODES} distinct tokens")
        code = self[token] = len(self)
        return code


def _token_values(ids: dict) -> np.ndarray:
    """float64 values of the number tokens (bytes) in `ids`, in its order."""
    return np.array(list(ids), dtype=np.float64)


def read_float_csv(path) -> Image:
    """Read a float CSV: the shape header, then whitespace-separated values.

    The body is read in blocks that end at a line break, or, in a block
    with no line break and no comment, at its last space or tab, so no
    number or comment straddles two blocks; it is parsed into one array of
    the header's size (capped by what the file can hold).  Non-ASCII bytes
    must be UTF-8 and may only appear in comments.

    The first block with values sets the mode.  When at least half of its
    first 1024 tokens are repeats, every token is named by a uint16 code
    from one dict of the file's distinct tokens, and each distinct token is
    converted once at the end: the image is then the codes and the table
    of the tokens' values in the order first seen, so spellings of one
    value (and -0 beside 0) are separate entries that keep their bits, and
    `decreasing_rearrangement` merges them into one level (see `Image`).
    Otherwise, and from the point where a file passes 2^16 distinct
    tokens, blocks are converted to float64 whole.  `Image` refuses a nan
    or inf value on either path.
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
            size = max(0, min(math.prod(shape), room // 2 + 1))
            out = codes = None
            ids = _TokenCodes()
            n = 0
            while True:
                more = fh.read(_READ_BLOCK)
                block = carry + more
                cut = max(block.rfind(b"\n"), block.rfind(b"\r")) + 1 if more else len(block)
                if not cut and b"#" not in block:  # a body written on one line
                    cut = max(block.rfind(b" "), block.rfind(b"\t")) + 1
                block, carry = block[:cut], block[cut:]
                if not block.isascii():
                    block.decode()  # a line break never splits a UTF-8 character
                if b"#" in block:
                    block = _COMMENT.sub(b"", block)
                if b"_" in block:  # float() would take 1_0 as 10
                    raise ValueError("'_' in a number")
                tokens = block.split()
                if out is None and codes is None and tokens:
                    first = tokens[:1024]
                    if 2 * len(set(first)) < len(first):
                        codes = np.empty(size, dtype=np.uint16)
                    else:
                        out = np.empty(size)
                end = n + len(tokens)
                if codes is not None and end <= size:
                    try:
                        codes[n:end] = np.fromiter(map(ids.__getitem__, tokens),
                                                   np.uint16, len(tokens))
                    except OverflowError:  # more distinct tokens than codes
                        out = np.empty(size)
                        out[:n] = _token_values(ids)[codes[:n]]
                        codes = None
                if out is not None and end <= size:
                    out[n:end] = np.array(tokens, dtype=np.float64)
                n, tokens = end, None  # no two blocks' tokens are held at once
                if not more:
                    break
            if n > size:
                raise ValueError(f"data has {n} samples, shape {shape} "
                                 f"wants {math.prod(shape)}")
            if codes is None:
                return Image(np.empty(0) if out is None else out[:n], shape)
            return Image(codes[:n], shape, _token_values(ids))
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def load_image(path) -> tuple[Image, int]:
    """Read PGM or float CSV; returns (image, maxval for PGM output)."""
    p = str(path)
    if p.endswith(".pgm"):
        data, maxval = read_pgm(p)
        return Image.from_array(data), maxval
    if p.endswith(".csv"):
        return read_float_csv(p), 255
    raise FormatError(f"{p}: unknown image extension (want .pgm or .csv)")


def _require_2d(img: Image, path, what="PGM output"):
    """Refuse an image that is not 2-D (exit 3), before any filtering."""
    if len(img.shape) != 2:
        raise FormatError(f"{path}: {what} needs a 2-D image, got shape {img.shape}")


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


def _write_report(path, args, k, ticks, outputs, trace, **fields):
    """Write the one-line JSON report of `denoise` or `segment`.

    ticks: the four perf_counter readings that open and close the read,
    filter and write phases.  trace: the run's `FilterTrace`, or None for a
    filter without one (iterations is then args.max_iter, q and the other
    trace entries null).  fields: the command's own entries.  A value that
    is not finite is a ValueError raised before the file is opened, so no
    report is left behind.
    """
    report = {
        "command": getattr(args, "_argv", []),
        "params": _report_params(args),
        "q": None if trace is None else trace.iterates[0].values.size,
        "iterations": args.max_iter if trace is None else trace.iterations,
        "stop_reason": None if trace is None else trace.stop_reason,
        "j_trace": None if trace is None else trace.j_values,
        "pairs_computed": None if trace is None else trace.pairs_computed,
        "engines": None if trace is None else trace.engines,
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
    rearr, _ = decreasing_rearrangement(img)
    cum = np.concatenate(([0.0], np.cumsum(rearr.masses)[:-1]))
    _write_rows(f"{args.prefix}.rearrangement.csv", "cumulative_mass_start,mass,value",
                cum, rearr.masses, rearr.values)
    # the histogram is the rearrangement in ascending order
    _write_rows(f"{args.prefix}.histogram.csv", "value,mass",
                rearr.values[::-1], rearr.masses[::-1])
    return 0


def cmd_denoise(args) -> int:
    if args.output is None and args.csv is None:
        print("error: denoise needs --output, --csv or both", file=sys.stderr)
        return 2
    ticks = [time.perf_counter()]
    img, maxval = load_image(args.input)
    if args.output is not None:
        _require_2d(img, args.input)
    elif args.filter in ("bilateral", "nlm"):
        _require_2d(img, args.input, args.filter)
    ticks.append(time.perf_counter())

    k = make_kernel(args.kernel, args.h, args.p)
    if args.max_iter is None:  # resolved here so the report shows the count
        args.max_iter = {"nf": 100, "nf-direct": 10}.get(args.filter, 1)
    trace = None
    if args.filter == "nf":
        rearr, levels = decreasing_rearrangement(img)
        trace = iterate(rearr, _filter_config(args, k))
        out = reconstruct(levels, trace.iterates[-1].values)
    elif args.filter == "nf-direct":
        out = direct_nf(img, k, args.max_iter, args.scheme)
    else:
        windowed = bilateral if args.filter == "bilateral" else nlm
        sp = SpatialConfig(rho=args.rho, patch_radius=args.patch,
                           window_radius=args.window)
        out = windowed(img, k, sp, args.max_iter)
    ticks.append(time.perf_counter())
    _report_params(args)  # a non-finite flag is refused before any output

    outputs = []
    if args.output is not None:
        if args.filter == "nf":  # coded: quantize the table, count level masses
            x, masses = trace.iterates[-1].values, trace.iterates[-1].masses
            pixels = quantize(out.table, maxval)[out.raster]
        else:
            x, masses = out.data, None
            pixels = quantize(x, maxval)
        r = np.rint(x)  # clamped: rounds, as `quantize` does, outside [0, maxval]
        bad = (r < 0) | (r > maxval)
        clamped = int(np.count_nonzero(bad) if masses is None else masses[bad].sum())
        if clamped:
            keep = ("the --csv output keeps them" if args.csv is not None
                    else "write --csv to keep them")
            print(f"warning: {args.output}: {clamped} of {out.n} pixels clamped "
                  f"to [0, {maxval}]; {keep}", file=sys.stderr)
        write_pgm(args.output, pixels.reshape(out.shape), maxval)
        outputs.append(args.output)
    if args.csv is not None:
        write_float_csv(args.csv, out)
        outputs.append(args.csv)
    ticks.append(time.perf_counter())

    _write_report(args.report or f"{outputs[0]}.report.jsonl", args, k, ticks,
                  outputs, trace, n=img.n)
    return 0


def cmd_segment(args) -> int:
    ticks = [time.perf_counter()]
    img, _ = load_image(args.input)
    _require_2d(img, args.input)
    ticks.append(time.perf_counter())

    k = make_kernel(args.kernel, args.h, args.p)
    seg, trace = segment_with_trace(img, _filter_config(args, k), args.merge_tol)
    ticks.append(time.perf_counter())
    _report_params(args)  # a non-finite flag is refused before any output

    labels_path = f"{args.prefix}.labels.pgm"
    labels = seg.labels.reshape(seg.shape)
    write_pgm(labels_path, labels, 65535)
    outputs = [labels_path]
    mask = np.empty(seg.shape, dtype=np.uint8)  # one buffer for every region
    for i in range(seg.region_count):
        mask_path = f"{args.prefix}.region{i:03d}.pgm"
        np.equal(labels, i, out=mask.view(bool))
        mask *= 255
        write_pgm(mask_path, mask, 255)
        outputs.append(mask_path)
    regions_path = f"{args.prefix}.regions.csv"
    _write_rows(regions_path, "label,value,mass", range(seg.region_count),
                seg.region_values, seg.region_masses)
    outputs.append(regions_path)
    ticks.append(time.perf_counter())

    _write_report(args.report or f"{args.prefix}.report.jsonl", args, k, ticks,
                  outputs, trace, n=img.n, region_count=seg.region_count)
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

        evals, ms, results = [], [], []
        # one iterate step: the blocked pass that denoise runs, then J of its result
        for run in (lambda: iterate(rearr, FilterConfig(k, max_iterations=1)),
                    lambda: direct_nf(img, k, 1, "varying")):
            k.reset_evaluations()
            t0 = time.perf_counter()
            results.append(run())
            ms.append(f"{(time.perf_counter() - t0) * 1e3:.3f}")
            evals.append(k.evaluations)
        rows.append((n, rearr.values.size, *evals, n * n, *ms, results[0].pairs_computed))
    with open(args.output, "w") as fh:
        fh.write("n,q,evals_1d,evals_direct,evals_naive,ms_1d,ms_direct,pairs_1d\n")
        fh.writelines(",".join(map(str, r)) + "\n" for r in rows)
    return 0


def cmd_compare(args) -> int:
    a, _ = load_image(args.a)
    b, _ = load_image(args.b)
    if a.shape != b.shape:
        raise ValueError(f"shapes differ: {a.shape} vs {b.shape}")
    with np.errstate(all="ignore"):  # an overflow is refused below
        # one N-sized buffer holds |a - b|, its squares, then the squared
        # deviations of a - b: the bits of max |a - b|, rmse and snr_measure
        sigma_a = float(np.std(a.data))
        d = a.data - b.data
        max_abs_diff = float(np.max(np.abs(d, out=d)))
        rmse_ = math.sqrt(np.mean(np.square(d, out=d)))
        np.subtract(a.data, b.data, out=d)
        d -= np.mean(d)
        sigma_noise = math.sqrt(np.mean(np.square(d, out=d)))
        payload = {
            "rmse": rmse_,
            "snr": sigma_a / sigma_noise if sigma_noise > 0.0 and sigma_a > 0.0 else None,
            "max_abs_diff": max_abs_diff,
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
    p.add_argument("--output", default=None,
                   type=_path_with_suffix(".pgm", hint="use --csv for lossless float output"),
                   help="output PGM path (2-D images; --output, --csv or both)")
    p.add_argument("--filter", choices=("nf", "nf-direct", "bilateral", "nlm"),
                   default="nf")
    _add_filter_flags(p)
    p.add_argument("--rho", type=float, default=2.0,
                   help="spatial scale (bilateral) / patch std (nlm)")
    p.add_argument("--patch", type=_int_at_least(0), default=1,
                   help="nlm patch radius")
    p.add_argument("--window", type=_int_at_least(1), default=None,
                   help="window radius (bilateral default ceil(3*rho), nlm 10)")
    p.add_argument("--csv", default=None,
                   help="lossless float CSV output path (any dimension)")
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


def run() -> None:
    """Entry point of `nfr` and `python -m nfr`.  Freezing the import-time
    heap spares it the final collection at exit (about 20 ms); `main` does
    not freeze, as tests call it in process, where frozen cycles stay."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
