"""End-to-end CLI runs through subprocess: formats, reports, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nfr import read_pgm, write_pgm
from nfr import synthetic
from nfr.cli import read_float_csv, write_float_csv


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
                 "--filter", "nf-direct", "--h", "25", "--iterations", "5",
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

    def test_bad_sizes(self, tmp_path):
        r = run("bench", "--sizes", "16,huge", "--output", tmp_path / "b.csv")
        assert r.returncode == 2

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

    def test_unknown_extension_is_3(self, tmp_path, squares_pgm):
        r = run("rearrange", "--input", squares_pgm.with_suffix(".bmp"),
                "--prefix", tmp_path / "x")
        assert r.returncode == 3

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
                "--filter", "nf-direct", "--iterations", "2", "--h", "25",
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


    def test_memory_budget_is_4(self, tmp_path, squares_pgm, monkeypatch, capsys):
        import nfr.cli
        import nfr.filter1d

        # the 16^2 squares have Q = 4 levels: one 8 Q^2-byte Gaussian buffer
        monkeypatch.setattr(nfr.filter1d, "_mem_available", lambda: 100)
        out = tmp_path / "o.pgm"
        rc = nfr.cli.main(["denoise", "--input", str(squares_pgm),
                           "--output", str(out), "--h", "10"])
        assert rc == 4
        assert capsys.readouterr().err == (
            "error: Q = 4 levels need 128 bytes (0.0 GiB) of Q x Q buffers; "
            "100 bytes are available\n")
        assert not out.exists()


class TestReport:
    def test_schema(self, tmp_path, squares_pgm, monkeypatch):
        import nfr.cli

        monkeypatch.delenv("NFR_THREADS", raising=False)
        keys = {"command", "params", "iterations", "stop_reason", "j_trace",
                "kernel_evaluations", "timings_ms", "outputs"}
        run_params = {"command", "input", "kernel", "h", "p", "scheme",
                      "max_iter", "tol", "report"}
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
            if name != "nf":
                assert report["stop_reason"] is None, name
                assert report["j_trace"] is None, name

        rc = nfr.cli.main(["segment", "--input", str(squares_pgm),
                           "--prefix", str(tmp_path / "seg"), "--h", "25",
                           "--report", str(tmp_path / "seg.json")])
        assert rc == 0
        report = json.loads((tmp_path / "seg.json").read_text())
        assert set(report) == keys | {"region_count"}
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
