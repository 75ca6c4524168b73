"""Binary PGM reader/writer and the quantization helper."""

import numpy as np
import pytest

from nfr import PgmError, quantize, read_pgm, write_pgm


class TestRoundtrip:
    def test_8bit(self, tmp_path):
        p = tmp_path / "a.pgm"
        arr = np.array([[0, 1, 2], [253, 254, 255]], dtype=np.uint8)
        write_pgm(p, arr, 255)
        back, maxval = read_pgm(p)
        assert maxval == 255
        assert back.dtype == np.uint8
        assert np.array_equal(back, arr)

    def test_16bit(self, tmp_path):
        p = tmp_path / "b.pgm"
        arr = np.array([[0, 255], [256, 65535]], dtype=np.uint16)
        write_pgm(p, arr, 65535)
        back, maxval = read_pgm(p)
        assert maxval == 65535
        assert back.dtype == np.uint16
        assert np.array_equal(back, arr)

    def test_16bit_byte_order_on_disk(self, tmp_path):
        # raster is big-endian regardless of host order
        p = tmp_path / "c.pgm"
        write_pgm(p, np.array([[0x0102]]), 65535)
        raw = p.read_bytes()
        assert raw.endswith(b"\x01\x02")

    def test_canonical_header_bytes(self, tmp_path):
        p = tmp_path / "d.pgm"
        write_pgm(p, np.array([[255, 170], [85, 0]]), 255)
        assert p.read_bytes() == b"P5\n2 2\n255\n" + bytes([255, 170, 85, 0])

    @pytest.mark.parametrize("rows, maxval", [([[0, 1, 2], [253, 254, 255]], 255),
                                              ([[0, 1, 2], [256, 258, 65535]], 65535)])
    def test_transposed_array_written_row_major(self, tmp_path, rows, maxval):
        p = tmp_path / "t.pgm"
        arr = np.array(rows, dtype=np.uint16 if maxval > 255 else np.uint8).T
        assert not arr.flags.c_contiguous
        write_pgm(p, arr, maxval)
        samples = [v for row in arr.tolist() for v in row]
        raster = (b"".join(v.to_bytes(2, "big") for v in samples)
                  if maxval > 255 else bytes(samples))
        assert p.read_bytes() == b"P5\n2 3\n%d\n" % maxval + raster
        back, _ = read_pgm(p)
        assert np.array_equal(back, arr)

    def test_integral_floats_accepted(self, tmp_path):
        p = tmp_path / "e.pgm"
        write_pgm(p, np.array([[1.0, 2.0]]), 255)
        back, _ = read_pgm(p)
        assert np.array_equal(back, [[1, 2]])


class TestReadParsing:
    def test_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "f.pgm"
        p.write_bytes(b"P5 # magic\n# full comment line\n 3\t2 # dims\n255\n"
                      + bytes([10, 20, 30, 40, 50, 60]))
        arr, maxval = read_pgm(p)
        assert maxval == 255
        assert np.array_equal(arr, [[10, 20, 30], [40, 50, 60]])

    def test_single_whitespace_before_raster(self, tmp_path):
        # first sample is 0x20 (a space); only one separator byte may be eaten
        p = tmp_path / "g.pgm"
        p.write_bytes(b"P5\n1 2\n255\n" + bytes([0x20, 7]))
        arr, _ = read_pgm(p)
        assert np.array_equal(arr, [[0x20], [7]])

    def test_rejects_ascii_pgm(self, tmp_path):
        p = tmp_path / "h.pgm"
        p.write_bytes(b"P2\n1 1\n255\n42\n")
        with pytest.raises(PgmError):
            read_pgm(p)

    def test_rejects_bad_maxval(self, tmp_path):
        p = tmp_path / "i.pgm"
        p.write_bytes(b"P5\n1 1\n0\n\x00")
        with pytest.raises(PgmError):
            read_pgm(p)
        p.write_bytes(b"P5\n1 1\n65536\n\x00\x00")
        with pytest.raises(PgmError):
            read_pgm(p)

    def test_rejects_truncated_raster(self, tmp_path):
        p = tmp_path / "j.pgm"
        p.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3]))
        with pytest.raises(PgmError):
            read_pgm(p)

    @pytest.mark.parametrize("content, message", [
        (b"P5\n2 2", "truncated header"),
        (b"P5 # 2 2 255\n", "truncated header"),
        (b"P5\n2 2\n255", "missing raster"),
    ], ids=["no-maxval", "all-comment", "no-separator"])
    def test_rejects_short_header(self, tmp_path, content, message):
        p = tmp_path / "s.pgm"
        p.write_bytes(content)
        with pytest.raises(PgmError, match=message):
            read_pgm(p)

    def test_rejects_non_numeric_header(self, tmp_path):
        p = tmp_path / "k.pgm"
        p.write_bytes(b"P5\nwide tall\n255\n")
        with pytest.raises(PgmError):
            read_pgm(p)


class TestWriteValidation:
    def test_rejects_out_of_range(self, tmp_path):
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.array([[300]]), 255)
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.array([[-1]]), 255)

    def test_rejects_non_integral_floats(self, tmp_path):
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.array([[1.5]]), 255)

    def test_rejects_non_2d(self, tmp_path):
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.arange(4), 255)

    def test_rejects_bad_maxval(self, tmp_path):
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.array([[0]]), 0)
        with pytest.raises(PgmError):
            write_pgm(tmp_path / "x.pgm", np.array([[0]]), 65536)


class TestQuantize:
    def test_round_and_clamp(self):
        got = quantize(np.array([-5.0, 0.4, 3.6, 254.5, 300.0]), 255)
        assert got.dtype == np.int64
        assert np.array_equal(got, [0, 0, 4, 254, 255])

    def test_ties_to_even(self):
        assert np.array_equal(quantize(np.array([0.5, 1.5, 2.5])), [0, 2, 2])

    def test_custom_maxval(self):
        assert np.array_equal(quantize(np.array([70000.2]), 65535), [65535])

    def test_quantize_then_write(self, tmp_path):
        p = tmp_path / "q.pgm"
        vals = np.array([[12.3, 99.9], [255.4, -3.0]])
        write_pgm(p, quantize(vals), 255)
        back, _ = read_pgm(p)
        assert np.array_equal(back, [[12, 100], [255, 0]])
