"""Binary PGM (P5) reader/writer, 8- and 16-bit.

Headers are written canonically as b"P5\\n<w> <h>\\n<maxval>\\n".  The reader
takes b"P5", then width, height and maxval, each a token (a byte other than
ASCII whitespace and '#', then any non-whitespace bytes) after any run of
whitespace and '#' comments (each to the next b"\\r" or b"\\n"), then exactly
one whitespace byte before the raster.  Samples above 255 use two bytes per
pixel, big endian, most significant byte first, and none may exceed maxval.
Round trips of canonically written files are byte-identical.
"""

from __future__ import annotations

import re

import numpy as np


class PgmError(Exception):
    """Malformed PGM content."""


# whitespace and comments, then one token; the lookahead makes a comment run
# to the end of its line, so the match cannot backtrack into its tail
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*(?![^\r\n]))*([^\s#]\S*)")


def _read_tokens(buf: bytes):
    """The width, height and maxval tokens after buf's b"P5", plus the
    offset one whitespace byte past maxval."""
    tokens, pos = [], 2
    for _ in range(3):
        m = _TOKEN.match(buf, pos)
        if m is None:
            raise PgmError("truncated header")
        tokens.append(m[1])
        pos = m.end()
    # exactly one whitespace byte separates header from raster
    if pos >= len(buf):
        raise PgmError("missing raster")
    return tokens, pos + 1


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (2-D uint8/uint16 array, maxval)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise PgmError(f"{path}: not a binary PGM (P5)")
    tokens, offset = _read_tokens(buf)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PgmError(f"{path}: non-numeric header field") from exc
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise PgmError(f"{path}: bad dimensions or maxval")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    need = width * height * dtype.itemsize
    if len(buf) - offset < need:
        raise PgmError(f"{path}: raster has {len(buf) - offset} bytes, needs {need}")
    data = np.frombuffer(buf, dtype, count=width * height, offset=offset)
    if maxval < 256 ** dtype.itemsize - 1 and data.max() > maxval:
        raise PgmError(f"{path}: a sample exceeds maxval {maxval}")
    if maxval > 255:
        data = data.astype(np.uint16)
    return data.reshape(height, width), maxval


def write_pgm(path, array, maxval: int = 255):
    """Write a 2-D integer array as binary PGM.

    Values must already be integral and within [0, maxval]; use
    `quantize` for float data.
    """
    a = np.asarray(array)
    if a.ndim != 2:
        raise PgmError("PGM wants a 2-D array")
    if not 0 < int(maxval) < 65536:
        raise PgmError("maxval must be in [1, 65535]")
    dtype_in_range = a.dtype.kind == "u" and np.iinfo(a.dtype).max <= int(maxval)
    if not dtype_in_range and (np.any(a < 0) or np.any(a > maxval)):
        raise PgmError("samples outside [0, maxval]")
    if a.dtype.kind == "f" and not np.all(a == np.rint(a)):
        raise PgmError("non-integral samples; quantize first")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    h, w = a.shape
    header = f"P5\n{w} {h}\n{int(maxval)}\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(a, dtype=dtype))


def quantize(data: np.ndarray, maxval: int = 255) -> np.ndarray:
    """Round to nearest integer (ties to even) and clamp to [0, maxval].

    Lossy presentation step for writing float images as PGM; returns the
    PGM sample type, uint8 for maxval <= 255 and uint16 above.
    """
    pixels = np.array(data, dtype=np.float64)  # rounded and clamped in place
    np.rint(pixels, out=pixels)
    np.clip(pixels, 0, int(maxval), out=pixels)
    return pixels.astype(np.uint8 if maxval <= 255 else np.uint16)
