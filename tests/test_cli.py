"""End-to-end CLI runs through subprocess: formats, reports, exit codes."""

import json
import os
import random
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from nfr import (FilterConfig, Image, SpatialConfig, bilateral, decreasing_rearrangement,
                 direct_nf, make_kernel, nlm, read_pgm, segment, write_pgm)
from nfr import synthetic
from nfr.cli import (FormatError, _fmt, _write_rows, read_float_csv,
                     write_float_csv)


def run(*args, env=None):
    e = os.environ.copy()
    e.pop("NFR_THREADS", None)
    if env:
        e.update(env)
    return subprocess.run([sys.executable, "-m", "nfr", *map(str, args)],
                          capture_output=True, text=True, env=e)


@pytest.fixture
def squares_pgm(tmp_path):
    p = tmp_path / "squares.pgm"
    write_pgm(p, synthetic.squares(16).to_array().astype(np.uint8), 255)
    return p


@pytest.fixture
def noisy_csv(tmp_path, squares_pgm):
    p = tmp_path / "noisy.csv"
    r = run("noise", "--input", squares_pgm, "--output", p,
            "--snr", "10", "--seed", "7")
    assert r.returncode == 0, r.stderr
    return p


class TestRearrange:
    def test_outputs(self, tmp_path, squares_pgm):
        r = run("rearrange", "--input", squares_pgm,
                "--prefix", tmp_path / "sq")
        assert r.returncode == 0, r.stderr

        lines = (tmp_path / "sq.rearrangement.csv").read_text().splitlines()
        assert lines[0] == "cumulative_mass_start,mass,value"
        rows = [line.split(",") for line in lines[1:]]
        assert [float(c[2]) for c in rows] == [255.0, 170.0, 85.0, 0.0]
        assert [float(c[1]) for c in rows] == [64.0] * 4
        assert [float(c[0]) for c in rows] == [0.0, 64.0, 128.0, 192.0]

        hlines = (tmp_path / "sq.histogram.csv").read_text().splitlines()
        assert hlines[0] == "value,mass"
        hrows = [line.split(",") for line in hlines[1:]]
        assert [float(c[0]) for c in hrows] == [0.0, 85.0, 170.0, 255.0]
        assert [int(c[1]) for c in hrows] == [64] * 4

    def test_table_bytes(self, tmp_path, squares_pgm):
        # every cell is %.17g, which prints an integer below 2**53 as int()
        # does; the expected rows are spelled out with f-strings
        import nfr.cli

        values = [-0.0, 5e-324, 1 / 3, 1e300]
        _write_rows(tmp_path / "t.csv", "v,m,i", values, np.array([1.0, 2.0, 7.0, 2.0**52]),
                    range(4))
        assert (tmp_path / "t.csv").read_text() == (
            "v,m,i\n-0,1,0\n4.9406564584124654e-324,2,1\n"
            "0.33333333333333331,7,2\n1.0000000000000001e+300,4503599627370496,3\n")

        src = tmp_path / "mixed.csv"
        write_float_csv(src, Image(np.array([*values, 2.0, 2.0]), (2, 3)))
        assert nfr.cli.main(["rearrange", "--input", str(src), "--prefix",
                             str(tmp_path / "m")]) == 0
        rearr, levels = decreasing_rearrangement(read_float_csv(src))
        cum = np.concatenate(([0.0], np.cumsum(rearr.masses)[:-1]))
        assert (tmp_path / "m.rearrangement.csv").read_text() == "".join(
            ["cumulative_mass_start,mass,value\n"]
            + [f"{_fmt(c)},{_fmt(m)},{_fmt(v)}\n"
               for c, m, v in zip(cum, rearr.masses, rearr.values)])
        assert (tmp_path / "m.histogram.csv").read_text() == "".join(
            ["value,mass\n"] + [f"{_fmt(v)},{int(m)}\n"
                                 for v, m in zip(levels.values[::-1], levels.masses[::-1])])

        noisy = tmp_path / "noisy.csv"
        assert nfr.cli.main(["noise", "--input", str(squares_pgm), "--output", str(noisy),
                             "--snr", "10", "--seed", "7"]) == 0
        assert nfr.cli.main(["segment", "--input", str(noisy), "--prefix",
                             str(tmp_path / "seg"), "--h", "25"]) == 0
        seg = segment(read_float_csv(noisy), FilterConfig(make_kernel("gaussian", 25.0)))
        assert (tmp_path / "seg.regions.csv").read_text() == "".join(
            ["label,value,mass\n"]
            + [f"{i},{_fmt(v)},{_fmt(m)}\n"
               for i, (v, m) in enumerate(zip(seg.region_values, seg.region_masses))])


class TestDenoise:
    def test_nf_pipeline(self, tmp_path, squares_pgm, noisy_csv):
        out = tmp_path / "den.pgm"
        csv = tmp_path / "den.csv"
        rep = tmp_path / "den.report.jsonl"
        r = run("denoise", "--input", noisy_csv, "--output", out,
                "--filter", "nf", "--h", "25", "--csv", csv, "--report", rep)
        assert r.returncode == 0, r.stderr

        arr, maxval = read_pgm(out)
        assert maxval == 255 and arr.shape == (16, 16)

        report = json.loads(rep.read_text())
        assert report["stop_reason"] == "tolerance"
        assert report["iterations"] >= 1
        assert report["kernel_evaluations"] > 0
        j = report["j_trace"]
        assert len(j) == report["iterations"] + 1
        assert all(b <= a for a, b in zip(j, j[1:]))
        assert report["outputs"] == [str(out), str(csv)]
        assert report["params"]["h"] == 25.0
        assert report["command"][0] == "denoise"
        assert set(report["timings_ms"]) == {"read", "filter", "write"}

        # the denoised floats must sit closer to the clean image
        den = read_float_csv(csv)
        clean = synthetic.squares(16)
        noisy = read_float_csv(noisy_csv)
        err_after = np.sqrt(np.mean((den.data - clean.data) ** 2))
        err_before = np.sqrt(np.mean((noisy.data - clean.data) ** 2))
        assert err_after < 0.2 * err_before

    def test_default_report_path(self, tmp_path, noisy_csv):
        out = tmp_path / "den.pgm"
        r = run("denoise", "--input", noisy_csv, "--output", out, "--h", "25")
        assert r.returncode == 0, r.stderr
        assert (tmp_path / "den.pgm.report.jsonl").exists()

    def test_engine_matches_direct_filter(self, tmp_path, noisy_csv):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        r1 = run("denoise", "--input", noisy_csv, "--output", tmp_path / "a.pgm",
                 "--filter", "nf", "--h", "25", "--max-iter", "5",
                 "--tol", "1e-300", "--csv", a)
        r2 = run("denoise", "--input", noisy_csv, "--output", tmp_path / "b.pgm",
                 "--filter", "nf-direct", "--h", "25", "--max-iter", "5",
                 "--csv", b)
        assert r1.returncode == 0 and r2.returncode == 0
        assert np.allclose(read_float_csv(a).data, read_float_csv(b).data,
                           rtol=1e-10, atol=0)

    @pytest.mark.parametrize("name", ["bilateral", "nlm"])
    def test_windowed_filters(self, name, tmp_path, squares_pgm):
        out = tmp_path / f"{name}.pgm"
        rep = tmp_path / f"{name}.json"
        r = run("denoise", "--input", squares_pgm, "--output", out,
                "--filter", name, "--h", "40", "--rho", "1.5", "--report", rep)
        assert r.returncode == 0, r.stderr
        report = json.loads(rep.read_text())
        assert report["iterations"] == 1
        assert report["stop_reason"] is None
        arr, _ = read_pgm(out)
        assert arr.shape == (16, 16)

    @pytest.mark.parametrize("name, flags, steps", [
        ("nf", ["--max-iter", "2", "--tol", "1e-300"], 2),
        ("nf-direct", ["--max-iter", "2"], 2),
        ("bilateral", ["--max-iter", "2"], 2),
        ("nlm", ["--max-iter", "2"], 2),
        ("nf-direct", [], 10),
        ("bilateral", [], 1),
        ("nlm", [], 1),
    ], ids=["nf-2", "nf-direct-2", "bilateral-2", "nlm-2", "nf-direct-default",
            "bilateral-default", "nlm-default"])
    def test_max_iter_is_the_step_count(self, tmp_path, noisy_csv, monkeypatch,
                                        name, flags, steps):
        import nfr.cli

        monkeypatch.delenv("NFR_THREADS", raising=False)
        csv, rep = tmp_path / "out.csv", tmp_path / "out.json"
        rc = nfr.cli.main(["denoise", "--input", str(noisy_csv),
                           "--output", str(tmp_path / "out.pgm"), "--filter", name,
                           "--h", "25", "--csv", str(csv), "--report", str(rep),
                           *flags])
        assert rc == 0
        report = json.loads(rep.read_text())
        assert report["iterations"] == steps
        assert report["params"]["max_iter"] == steps
        if name == "nf":
            return  # the engine's trace counts the steps it took
        img, k = read_float_csv(noisy_csv), make_kernel("gaussian", 25.0)
        if name == "nf-direct":
            expected = direct_nf(img, k, steps)
        else:
            windowed = bilateral if name == "bilateral" else nlm
            sp = SpatialConfig(rho=2.0, patch_radius=1)  # the CLI defaults
            expected = windowed(img, k, sp, steps)
        assert np.array_equal(read_float_csv(csv).data, expected.data)

    def test_iterations_flag_is_gone(self, tmp_path, noisy_csv):
        import nfr.cli

        with pytest.raises(SystemExit) as exc:
            nfr.cli.main(["denoise", "--input", str(noisy_csv),
                          "--output", str(tmp_path / "o.pgm"), "--h", "25",
                          "--iterations", "3"])
        assert exc.value.code == 2
        assert not (tmp_path / "o.pgm").exists()

    def test_16bit_roundtrip(self, tmp_path):
        src = tmp_path / "deep.pgm"
        write_pgm(src, (synthetic.squares(8).to_array() * 257).astype(np.uint16),
                  65535)
        out = tmp_path / "deep_out.pgm"
        r = run("denoise", "--input", src, "--output", out, "--h", "5000")
        assert r.returncode == 0, r.stderr
        _, maxval = read_pgm(out)
        assert maxval == 65535


class TestNoise:
    def test_csv_is_deterministic(self, tmp_path, squares_pgm):
        a = tmp_path / "n1.csv"
        b = tmp_path / "n2.csv"
        for p in (a, b):
            r = run("noise", "--input", squares_pgm, "--output", p,
                    "--snr", "10", "--seed", "7")
            assert r.returncode == 0, r.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_pgm_requires_clamp(self, tmp_path, squares_pgm):
        r = run("noise", "--input", squares_pgm,
                "--output", tmp_path / "n.pgm", "--snr", "10", "--seed", "7")
        assert r.returncode == 2
        assert "--clamp" in r.stderr

    def test_pgm_with_clamp(self, tmp_path, squares_pgm):
        out = tmp_path / "n.pgm"
        r = run("noise", "--input", squares_pgm, "--output", out,
                "--snr", "10", "--seed", "7", "--clamp")
        assert r.returncode == 0, r.stderr
        arr, maxval = read_pgm(out)
        assert maxval == 255
        assert arr.min() >= 0 and arr.max() <= 255

    def test_clamp_rejected_for_csv(self, tmp_path, squares_pgm):
        r = run("noise", "--input", squares_pgm,
                "--output", tmp_path / "n.csv", "--snr", "10", "--seed", "7",
                "--clamp")
        assert r.returncode == 2

    def test_unknown_extension(self, tmp_path, squares_pgm):
        r = run("noise", "--input", squares_pgm,
                "--output", tmp_path / "n.tif", "--snr", "10", "--seed", "7")
        assert r.returncode == 2


WRITER_CASES = {
    # (level table, pixel index, shape)
    "ties_and_extremes": ([1e300, 0.5, 0.5, -0.0, 5e-324, 1.0 / 3.0],
                          [4, 3, 0, 1, 2, 1, 5, 5], (2, 4)),
    "one_pixel": ([-2.5], [0], (1, 1)),
}


def loadtxt_reader(path) -> Image:
    """The float CSV reader the block reader replaced, kept as the reference."""
    with open(path) as fh:
        try:
            head = fh.readline()
            if not head.startswith("# shape:"):
                raise FormatError(f"{path}: missing '# shape:' header line")
            shape = tuple(int(t) for t in head.split(":", 1)[1].split())
            return Image(np.loadtxt(fh, dtype=np.float64, ndmin=1), shape)
        except ValueError as exc:
            raise FormatError(f"{path}: {exc}") from exc


def read_outcome(read, path):
    """(shape, value bits) of a read, or None when it raises FormatError."""
    try:
        img = read(path)
    except FormatError:
        return None
    return img.shape, img.data.view(np.int64).tolist()


EXTREMES = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0, -17.0, 1e16, 0.1]
BAD_TOKENS = [b"1_0", b"0x10", b"1,2", b"1d5", b"nan", b"inf", b"-Infinity"]
COMMENTS = [b"", b" note", b" 4 5", b" shape: 9", b"#", b" \xc3\xa9", b" \xff"]


def random_csv(rng: random.Random) -> tuple[bytes, bool]:
    """A float CSV drawn to probe the format: values on rows of c columns,
    mixed separators and line ends, blank and comment lines, and, now and
    then, a token, comment byte or header count that loadtxt refuses.
    Returns the file and whether its body holds no value token."""
    ends, spaces = [b"\n", b"\r\n", b"\r"], [b" ", b"\t", b"\x0b", b"\x0c", b" \t "]
    cols = rng.choice([1, 1, 1, 2, 3])
    rows = rng.randrange(8)
    n = rows * cols
    values = [rng.choice(EXTREMES) if rng.random() < 0.3
              else rng.gauss(0.0, 1.0) * 10.0 ** rng.randrange(-300, 300) for _ in range(n)]
    tokens = [f"{v:.17g}".encode() for v in values]
    if n and rng.random() < 0.15:
        tokens[rng.randrange(n)] = rng.choice(BAD_TOKENS)
    count = n + (rng.choice([-1, 1]) if rng.random() < 0.1 else 0)
    header = f"# shape: {count}" if cols == 1 or rng.random() < 0.5 else f"# shape: {rows} {cols}"
    lines = [header.encode()]
    for r in range(rows):
        while rng.random() < 0.2:  # blank, space-only and comment lines
            lines.append(rng.choice([b"", rng.choice(spaces), b"#" + rng.choice(COMMENTS[:-1])]))
        row = (rng.choice(spaces + [b""])
               + rng.choice(spaces).join(tokens[r * cols:(r + 1) * cols]))
        if rng.random() < 0.2:  # an inline comment, rarely with a byte that is not UTF-8
            row += rng.choice([b" #", b"#"]) + rng.choice(
                COMMENTS[:-1] if rng.random() < 0.8 else COMMENTS)
        lines.append(row + rng.choice(spaces + [b""] * 3))
    body = b"".join(line + rng.choice(ends) for line in lines)
    if rng.random() < 0.3:
        body = body.rstrip(b"\r\n")
    return body, n == 0


def _tokens(lines, rng) -> bytes:
    return b"".join(lines[i] for i in rng.integers(0, len(lines), 1 << 16))


def _block_case(fill_to_edge=None, tail=b"", distinct=True, repeated=True):
    """A body of about 3 * 256 KiB: distinct %.17g values (the np.array
    arm) and/or lines drawn from four levels (the distinct-token arm)."""
    rng = np.random.default_rng(9)
    parts = []
    if repeated:
        parts.append(_tokens([b"0.25\n", b"-0.0\n", b"1e308\n", b"7\n"], rng))  # ~330 kB
    if distinct:
        parts.append(b"".join(f"{v:.17g}\n".encode() for v in rng.standard_normal(40_000)))
    body = b"".join(parts)
    if fill_to_edge is not None:  # `fill_to_edge` begins 5 bytes before 256 Ki
        head = b"3\n" * ((1 << 17) - 3) + b"\n"
        body = head + fill_to_edge + body
    body += tail
    n = len(body.split())
    return f"# shape: {n}\n".encode() + body


BLOCK_CASES = {
    # name: (body, blocks parsed by the distinct-token arm)
    "distinct": lambda: (_block_case(repeated=False), 0),
    "repeated": lambda: (_block_case(distinct=False, tail=b"0.25\n" * 90_000), 3),
    "mixed": lambda: (_block_case(), 2),
    "straddling_token": lambda: (_block_case(fill_to_edge=b"12345.678901234567\n",
                                             repeated=False), 1),
    "no_final_newline": lambda: (_block_case(distinct=False, tail=b"12.5"), 2),
    "one_block": lambda: (b"# shape: 131072\n" + b"5\n" * (1 << 17), 1),
}


class TestFloatCsv:
    @pytest.mark.parametrize("indexed", [True, False], ids=["indexed", "plain"])
    @pytest.mark.parametrize("case", sorted(WRITER_CASES))
    def test_bytes_and_roundtrip(self, tmp_path, case, indexed):
        table, index, shape = WRITER_CASES[case]
        table, index = np.array(table), np.array(index, dtype=np.intp)
        values = table[index]
        img = Image(values, shape)
        path = tmp_path / "x.csv"
        if indexed:
            write_float_csv(path, img, table, index)
        else:
            write_float_csv(path, img)
        expected = (f"# shape: {' '.join(map(str, shape))}\n"
                    + "".join(f"{v:.17g}\n" for v in values))
        assert path.read_bytes() == expected.encode()
        back = read_float_csv(path)
        assert back.shape == shape
        assert np.array_equal(back.data.view(np.int64), values.view(np.int64))

    def test_matches_loadtxt(self, tmp_path):
        # files are written a batch at a time: reading a file straight after
        # truncating and rewriting it can wait for its blocks to reach disk
        rng = random.Random(2024)
        paths = [tmp_path / f"{i}.csv" for i in range(1000)]
        refused = 0
        for _ in range(20):
            cases = [random_csv(rng) for _ in paths]
            for path, (body, _) in zip(paths, cases):
                path.write_bytes(body)
            for path, (body, empty) in zip(paths, cases):
                if empty:
                    with pytest.warns(UserWarning, match="input contained no data"):
                        expected = read_outcome(loadtxt_reader, path)
                else:
                    expected = read_outcome(loadtxt_reader, path)
                assert read_outcome(read_float_csv, path) == expected, body
                refused += expected is None
        assert 2_000 < refused < 10_000  # both outcomes are well sampled

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_blocks_match_loadtxt(self, tmp_path, monkeypatch, case):
        body, gathered = BLOCK_CASES[case]()
        path = tmp_path / "x.csv"
        path.write_bytes(body)
        expected = read_outcome(loadtxt_reader, path)
        calls = []
        fromiter = np.fromiter  # called by the distinct-token arm only
        monkeypatch.setattr(np, "fromiter", lambda *a: calls.append(1) or fromiter(*a))
        assert expected is not None and read_outcome(read_float_csv, path) == expected
        assert len(calls) == gathered

    @pytest.mark.parametrize("body", [b"# shape: 3\n1 2\n3\n", b"# shape: 3\r1 2\r\n3"],
                             ids=["lf", "cr"])
    def test_ragged_rows_are_read(self, tmp_path, body):
        # line breaks carry no meaning, so a row of two values is fine
        path = tmp_path / "x.csv"
        path.write_bytes(body)
        assert read_outcome(loadtxt_reader, path) is None
        assert read_float_csv(path).data.tolist() == [1.0, 2.0, 3.0]

    @pytest.mark.parametrize("sep", [b"\xc2\xa0", b"\x1c", b"\x1f"],
                             ids=["nbsp", "fs", "us"])
    def test_non_ascii_whitespace_separator_is_3(self, tmp_path, sep, capsys):
        import nfr.cli

        path = tmp_path / "x.csv"
        path.write_bytes(b"# shape: 2\n1" + sep + b"2\n")
        assert read_outcome(loadtxt_reader, path) is not None  # Unicode space
        assert nfr.cli.main(["rearrange", "--input", str(path),
                             "--prefix", str(tmp_path / "r")]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    def test_reads_a_pipe(self, tmp_path):
        # a named pipe has no size, so the header alone sizes the array
        path = tmp_path / "x.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_bytes,
                                  args=(b"# shape: 3\n1\n2\n3\n",), daemon=True)
        writer.start()
        img = read_float_csv(path)
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert img.data.tolist() == [1.0, 2.0, 3.0]

    def test_peak_memory(self, tmp_path):
        # one float64 array of the output plus a bounded block, not a list
        # of all N tokens or a concatenation of per-block arrays
        n = 1 << 20
        rng = np.random.default_rng(3)
        table = np.unique(rng.integers(0, 256, 250)) / 255.0
        index = rng.integers(0, table.size, n)
        path = tmp_path / "x.csv"
        write_float_csv(path, Image(table[index], (1024, 1024)), table, index)
        tracemalloc.start()
        try:
            img = read_float_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(img.data, table[index])
        assert peak <= 1.5 * 8 * n


class TestSegmentCommand:
    def test_outputs(self, tmp_path, squares_pgm):
        r = run("segment", "--input", squares_pgm, "--prefix", tmp_path / "seg",
                "--h", "25")
        assert r.returncode == 0, r.stderr

        labels, maxval = read_pgm(tmp_path / "seg.labels.pgm")
        assert maxval == 65535
        assert sorted(np.unique(labels)) == [0, 1, 2, 3]

        report = json.loads((tmp_path / "seg.report.jsonl").read_text())
        assert report["region_count"] == 4
        assert report["stop_reason"] == "tolerance"

        lines = (tmp_path / "seg.regions.csv").read_text().splitlines()
        assert lines[0] == "label,value,mass"
        assert len(lines) == 5
        masses = [float(line.split(",")[2]) for line in lines[1:]]
        assert masses == [64.0] * 4

        for i in range(4):
            mask, _ = read_pgm(tmp_path / f"seg.region{i:03d}.pgm")
            assert set(np.unique(mask)) <= {0, 255}
            assert int((mask == 255).sum()) == 64


class TestBench:
    def test_counts(self, tmp_path):
        out = tmp_path / "bench.csv"
        r = run("bench", "--sizes", "16,32", "--q", "16", "--output", out)
        assert r.returncode == 0, r.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == "n,q,evals_1d,evals_direct,evals_naive,ms_1d,ms_direct"
        for line, side in zip(lines[1:], (16, 32)):
            n, q, e1, ed, en = (int(t) for t in line.split(",")[:5])
            assert n == side * side
            assert q == 16
            assert e1 == q * q          # engine cost, independent of n
            assert ed == n * q          # pixel-domain direct filter
            assert en == n * n          # naive all-pairs baseline

    def test_bad_sizes(self, tmp_path, capsys):
        import nfr.cli

        out = tmp_path / "b.csv"
        for sizes in ("16,huge", "", ",", "0", "-4"):
            rc = nfr.cli.main(["bench", "--sizes", sizes, "--q", "16", "--output", str(out)])
            assert rc == 2
            assert capsys.readouterr().err == f"error: bad --sizes {sizes!r}\n"
            assert not out.exists()

    @pytest.mark.parametrize("q", [1, 0, -3])
    def test_bad_q(self, tmp_path, q, capsys):
        import nfr.cli

        out = tmp_path / "b.csv"
        rc = nfr.cli.main(["bench", "--sizes", "16", f"--q={q}", "--output", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: bad --q {q}: the ramp needs "
                                           "at least 2 levels\n")
        assert not out.exists()

    def test_too_many_levels(self, tmp_path):
        r = run("bench", "--sizes", "4", "--q", "256",
                "--output", tmp_path / "b.csv")
        assert r.returncode == 4


class TestCompare:
    def test_identical(self, tmp_path, squares_pgm):
        r = run("compare", "--a", squares_pgm, "--b", squares_pgm)
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["rmse"] == 0.0
        assert payload["max_abs_diff"] == 0.0
        assert payload["snr"] is None

    def test_noisy_pair(self, tmp_path, squares_pgm, noisy_csv):
        r = run("compare", "--a", squares_pgm, "--b", noisy_csv)
        assert r.returncode == 0, r.stderr
        payload = json.loads(r.stdout)
        assert payload["rmse"] > 0
        assert payload["snr"] == pytest.approx(10.0, rel=0.35)


    def test_overflowing_difference_is_4(self, tmp_path, capsys):
        # the differences overflow to inf, which JSON cannot hold
        import nfr.cli

        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path, values in zip(paths, ([1e308, -1e308], [-1e308, 1e308])):
            write_float_csv(path, Image(np.array(values), (1, 2)))
        assert nfr.cli.main(["compare", "--a", str(paths[0]), "--b", str(paths[1])]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: rmse is not finite (inf)")


class TestExitCodes:
    def test_missing_input_is_3(self, tmp_path):
        r = run("denoise", "--input", tmp_path / "nope.pgm",
                "--output", tmp_path / "o.pgm", "--h", "10")
        assert r.returncode == 3

    def test_malformed_csv_is_3(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\n2.0\n")  # no shape header
        r = run("denoise", "--input", bad, "--output", tmp_path / "o.pgm",
                "--h", "10")
        assert r.returncode == 3

    @pytest.mark.parametrize("body", [b"# shape: \xff 1\n1.0\n",
                                      b"# shape: 2 1\n1.0\n\xff\n"],
                             ids=["header", "line2"])
    def test_undecodable_csv_is_3(self, tmp_path, body, capsys):
        import nfr.cli

        bad = tmp_path / "bad.csv"
        bad.write_bytes(body)
        rc = nfr.cli.main(["denoise", "--input", str(bad),
                           "--output", str(tmp_path / "o.pgm"), "--h", "10"])
        assert rc == 3
        assert capsys.readouterr().err.startswith(f"error: {bad}: ")

    def test_unknown_extension_is_3(self, tmp_path, squares_pgm):
        r = run("rearrange", "--input", squares_pgm.with_suffix(".bmp"),
                "--prefix", tmp_path / "x")
        assert r.returncode == 3

    def test_step_count_below_one_is_2(self, tmp_path, noisy_csv, capsys):
        import nfr.cli

        runs = [["denoise", "--output", str(tmp_path / "o.pgm"), "--filter", f]
                for f in ("nf", "nf-direct", "bilateral", "nlm")]
        runs.append(["segment", "--prefix", str(tmp_path / "seg")])
        for argv in runs:
            for steps in ("0", "-1"):
                with pytest.raises(SystemExit) as exc:
                    nfr.cli.main([*argv, "--input", str(noisy_csv), "--h", "25",
                                  "--max-iter", steps])
                assert exc.value.code == 2
                assert "argument --max-iter: must be >= 1" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["noisy.csv",
                                                              "squares.pgm"]

    def test_non_integer_step_count_is_2(self, tmp_path, squares_pgm, capsys):
        import nfr.cli

        for steps in ("2.5", "two"):
            with pytest.raises(SystemExit) as exc:
                nfr.cli.main(["denoise", "--input", str(squares_pgm), "--output",
                              str(tmp_path / "o.pgm"), "--h", "25",
                              "--max-iter", steps])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"argument --max-iter: invalid int value: '{steps}'" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["squares.pgm"]

    @pytest.mark.parametrize("argv, message", [
        (["segment", "--prefix", "seg", "--h", "25", "--merge-tol", "nan"],
         "merge_tol must be >= 0"),
        (["denoise", "--output", "o.pgm", "--h", "nan"],
         "kernel scale h must be positive"),
        (["denoise", "--output", "o.pgm", "--h", "25", "--kernel", "power",
          "--p", "nan"], "power-decay exponent must satisfy p > 1"),
        # infinite values, and an h whose square underflows to 0
        (["denoise", "--output", "o.pgm", "--h", "inf"],
         "kernel scale h must have a positive finite square, got inf"),
        (["denoise", "--output", "o.pgm", "--h", "inf", "--filter", "nf-direct"],
         "kernel scale h must have a positive finite square, got inf"),
        (["segment", "--prefix", "seg", "--h", "inf"],
         "kernel scale h must have a positive finite square, got inf"),
        (["denoise", "--output", "o.pgm", "--h", "1e-200", "--kernel", "power"],
         "kernel scale h must have a positive finite square, got 1e-200"),
        (["denoise", "--output", "o.pgm", "--h", "25", "--kernel", "power",
          "--p", "inf"], "power-decay exponent must be finite"),
        (["denoise", "--output", "o.pgm", "--h", "25", "--tol", "inf"],
         "stop_tolerance must be finite"),
        (["segment", "--prefix", "seg", "--h", "25", "--merge-tol", "inf"],
         "merge_tol must be finite"),
        (["denoise", "--output", "o.pgm", "--h", "25", "--filter", "bilateral",
          "--rho", "inf"], "rho must be finite"),
    ], ids=["merge-tol", "h", "p", "h-inf", "h-inf-nf-direct", "segment-h-inf",
            "power-tiny-h", "p-inf", "tol-inf", "merge-tol-inf", "rho-inf"])
    def test_nan_parameter_is_4(self, tmp_path, squares_pgm, argv, message, capsys):
        import nfr.cli

        argv = [str(tmp_path / a) if a in ("seg", "o.pgm") else a for a in argv]
        assert nfr.cli.main([*argv, "--input", str(squares_pgm)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["squares.pgm"]

    @pytest.mark.parametrize("argv, message", [
        (["denoise", "--output", "o.pgm", "--h", "25", "--p", "nan"],
         "--p must be finite, got nan"),
        (["denoise", "--output", "o.pgm", "--h", "25", "--rho", "inf"],
         "--rho must be finite, got inf"),
        (["segment", "--prefix", "seg", "--h", "25", "--p", "nan"],
         "--p must be finite, got nan"),
    ], ids=["gaussian-p", "nf-rho", "segment-p"])
    def test_unread_non_finite_flag_is_4(self, tmp_path, squares_pgm, argv, message, capsys):
        # the filter never reads the flag, but the report would echo it as
        # invalid JSON; it is refused before any output is written
        import nfr.cli

        argv = [str(tmp_path / a) if a in ("seg", "o.pgm") else a for a in argv]
        assert nfr.cli.main([*argv, "--input", str(squares_pgm)]) == 4
        assert capsys.readouterr().err == f"error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["squares.pgm"]

    def test_non_2d_input_is_3_before_filtering(self, tmp_path, monkeypatch, capsys):
        # PGM output must be 2-D, so denoise and segment check the shape
        # right after the read, not after filtering
        import nfr.cli

        def never(*args, **kwargs):
            raise AssertionError("filtered an input that cannot be written")

        for name in ("iterate", "segment_with_trace", "bilateral"):
            monkeypatch.setattr(nfr.cli, name, never)
        src = tmp_path / "line.csv"
        src.write_text("# shape: 6\n1\n2\n3\n1\n2\n9\n")
        for argv in (["denoise", "--output", str(tmp_path / "o.pgm")],
                     ["denoise", "--output", str(tmp_path / "o.pgm"), "--filter", "bilateral"],
                     ["segment", "--prefix", str(tmp_path / "seg")]):
            assert nfr.cli.main([*argv, "--input", str(src), "--h", "25"]) == 3
            assert capsys.readouterr().err == (f"error: {src}: PGM output needs a 2-D "
                                               "image, got shape (6,)\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["line.csv"]

    def test_overflowing_power_j_is_4(self, tmp_path, capsys):
        # (v_i - v_j)^2 overflows; the quadrature J refuses it instead of
        # reporting NaN
        import nfr.cli

        src = tmp_path / "big.csv"
        src.write_text("# shape: 2 2\n1e200\n-1e200\n5e199\n-5e199\n")
        with np.errstate(over="ignore"):
            rc = nfr.cli.main(["denoise", "--input", str(src), "--output",
                               str(tmp_path / "o.pgm"), "--kernel", "power",
                               "--p", "3", "--h", "1", "--max-iter", "1"])
        assert rc == 4
        assert capsys.readouterr().err == "error: the log-radius rule needs finite arguments\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.csv"]

    @pytest.mark.parametrize("name", ["den.csv", "den.png"])
    def test_denoise_output_must_be_pgm(self, tmp_path, squares_pgm, name, capsys):
        import nfr.cli

        with pytest.raises(SystemExit) as exc:
            nfr.cli.main(["denoise", "--input", str(squares_pgm),
                          "--output", str(tmp_path / name), "--h", "25"])
        assert exc.value.code == 2
        assert "is not a .pgm path; use --csv" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["squares.pgm"]

    @pytest.mark.parametrize("flag, value, message", [
        ("--patch", "-1", "argument --patch: must be >= 0, got -1"),
        ("--window", "0", "argument --window: must be >= 1, got 0")],
        ids=["patch", "window"])
    def test_spatial_flags_are_checked_at_parse_time(self, tmp_path, squares_pgm,
                                                     flag, value, message, capsys):
        import nfr.cli

        with pytest.raises(SystemExit) as exc:
            nfr.cli.main(["denoise", "--input", str(squares_pgm), "--output",
                          str(tmp_path / "o.pgm"), "--filter", "nlm", "--h", "25",
                          flag, value])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["squares.pgm"]

    @pytest.mark.parametrize("output, extra", [("x.png", ()), ("x.pgm", ()),
                                               ("x.csv", ("--clamp",))],
                             ids=["suffix", "pgm-without-clamp", "csv-with-clamp"])
    def test_noise_arguments_checked_before_read(self, tmp_path, output, extra):
        r = run("noise", "--input", tmp_path / "missing.pgm", "--output",
                tmp_path / output, "--snr", "10", "--seed", "7", *extra)
        assert r.returncode == 2, r.stderr
        assert not (tmp_path / output).exists()

    def test_bad_kernel_scale_is_4(self, tmp_path, squares_pgm):
        r = run("denoise", "--input", squares_pgm,
                "--output", tmp_path / "o.pgm", "--h", "-5")
        assert r.returncode == 4

    def test_bad_snr_is_4(self, tmp_path, squares_pgm):
        r = run("noise", "--input", squares_pgm, "--output", tmp_path / "n.csv",
                "--snr", "-1", "--seed", "0")
        assert r.returncode == 4

    def test_usage_error_is_2(self):
        r = run("denoise")  # missing required flags
        assert r.returncode == 2

    def test_bad_thread_env_is_2(self, tmp_path, squares_pgm):
        for bad in ("abc", "0"):
            r = run("compare", "--a", squares_pgm, "--b", squares_pgm,
                    env={"NFR_THREADS": bad})
            assert r.returncode == 2
            assert "NFR_THREADS" in r.stderr

    def test_thread_env_accepted(self, tmp_path, squares_pgm, noisy_csv):
        out = tmp_path / "o.pgm"
        r = run("denoise", "--input", noisy_csv, "--output", out,
                "--filter", "nf-direct", "--max-iter", "2", "--h", "25",
                env={"NFR_THREADS": "2"})
        assert r.returncode == 0, r.stderr

    def test_order_breaking_kernel_is_4(self, tmp_path, noisy_csv):
        for scheme in ("varying", "fixed"):
            r = run("denoise", "--input", noisy_csv, "--output", tmp_path / "o.pgm",
                    "--kernel", "power", "--h", "25", "--scheme", scheme)
            assert r.returncode == 4
            assert r.stderr.startswith("error: Kernel(power, h=25.0) breaks the "
                                       "level order")
            assert "order-preserving (log-concave) kernel" in r.stderr
            assert "--filter nf-direct" in r.stderr

    def test_out_of_memory_is_4(self, tmp_path, squares_pgm, monkeypatch, capsys):
        import nfr.cli

        def too_big(*args, **kwargs):
            raise MemoryError("Unable to allocate 32.0 GiB for an array")

        monkeypatch.setattr(nfr.cli, "iterate", too_big)
        rc = nfr.cli.main(["denoise", "--input", str(squares_pgm),
                           "--output", str(tmp_path / "o.pgm"), "--h", "10"])
        assert rc == 4
        assert capsys.readouterr().err == "error: Unable to allocate 32.0 GiB for an array\n"


class TestReport:
    def test_schema(self, tmp_path, squares_pgm, monkeypatch):
        import nfr.cli

        monkeypatch.delenv("NFR_THREADS", raising=False)
        keys = {"command", "params", "n", "q", "iterations", "stop_reason",
                "j_trace", "kernel_evaluations", "timings_ms", "outputs"}
        run_params = {"command", "input", "kernel", "h", "p", "scheme",
                      "max_iter", "tol", "report"}
        levels = np.unique(synthetic.squares(16).to_array().astype(np.uint8)).size
        for name in ("nf", "nf-direct", "bilateral", "nlm"):
            rep = tmp_path / f"{name}.json"
            rc = nfr.cli.main(["denoise", "--input", str(squares_pgm),
                               "--output", str(tmp_path / f"{name}.pgm"),
                               "--filter", name, "--h", "25", "--report", str(rep)])
            assert rc == 0
            report = json.loads(rep.read_text())
            assert set(report) == keys, name
            assert set(report["params"]) == run_params | {
                "output", "filter", "rho", "patch"}, name
            assert set(report["timings_ms"]) == {"read", "filter", "write"}
            assert report["n"] == 16 * 16, name
            assert report["q"] == (levels if name == "nf" else None), name
            if name != "nf":
                assert report["stop_reason"] is None, name
                assert report["j_trace"] is None, name

        rc = nfr.cli.main(["segment", "--input", str(squares_pgm),
                           "--prefix", str(tmp_path / "seg"), "--h", "25",
                           "--report", str(tmp_path / "seg.json")])
        assert rc == 0
        report = json.loads((tmp_path / "seg.json").read_text())
        assert set(report) == keys | {"region_count"}
        assert (report["n"], report["q"]) == (16 * 16, levels)
        assert set(report["params"]) == run_params | {"prefix", "merge_tol"}
        assert set(report["timings_ms"]) == {"read", "filter", "write"}


class TestStartup:
    def test_cli_import_loads_no_scipy(self, tmp_path):
        import nfr

        # As in run_cli of test_acceptance: the child runs elsewhere, so it
        # gets the absolute source root of the package under test.
        src = os.path.dirname(os.path.dirname(os.path.abspath(nfr.__file__)))
        env = os.environ.copy()
        if env.get("PYTHONPATH"):
            src += os.pathsep + env["PYTHONPATH"]
        env["PYTHONPATH"] = src
        code = ("import nfr.cli, sys; print(sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        r = subprocess.run([sys.executable, "-c", code], cwd=tmp_path,
                           capture_output=True, text=True, env=env)
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip() == "[]"
