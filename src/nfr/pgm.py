"""Binary PGM (P5) reader/writer, 8- and 16-bit.

Headers are written canonically as b"P5\\n<w> <h>\\n<maxval>\\n"; the reader
accepts arbitrary whitespace and '#' comments.  Samples above 255 use two
bytes per pixel, big endian, most significant byte first.  Round trips of
canonically written files are byte-identical.
"""

from __future__ import annotations

import numpy as np


class PgmError(Exception):
    """Malformed PGM content."""


def _read_tokens(buf: bytes, count: int):
    """First `count` whitespace-separated tokens after comment stripping,
    plus the offset one whitespace byte past the last token."""
    tokens = []
    i = 0
    n = len(buf)
    while len(tokens) < count:
        while i < n and buf[i:i + 1].isspace():
            i += 1
        if i < n and buf[i] == ord("#"):
            while i < n and buf[i] not in (10, 13):
                i += 1
            continue
        start = i
        while i < n and not buf[i:i + 1].isspace():
            i += 1
        if start == i:
            raise PgmError("truncated header")
        tokens.append(buf[start:i])
        if len(tokens) < count:
            continue
        # exactly one whitespace byte separates header from raster
        if i >= n:
            raise PgmError("missing raster")
        i += 1
    return tokens, i


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary PGM; returns (2-D uint8/uint16 array, maxval)."""
    with open(path, "rb") as fh:
        buf = fh.read()
    if buf[:2] != b"P5":
        raise PgmError(f"{path}: not a binary PGM (P5)")
    tokens, offset = _read_tokens(buf[2:], 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise PgmError(f"{path}: non-numeric header field") from exc
    if width <= 0 or height <= 0 or not 0 < maxval < 65536:
        raise PgmError(f"{path}: bad dimensions or maxval")
    dtype = np.dtype(">u2") if maxval > 255 else np.dtype("u1")
    raster = buf[2 + offset:]
    need = width * height * dtype.itemsize
    if len(raster) < need:
        raise PgmError(f"{path}: raster has {len(raster)} bytes, needs {need}")
    data = np.frombuffer(raster[:need], dtype=dtype).reshape(height, width)
    if maxval > 255:
        data = data.astype(np.uint16)
    return data, maxval


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
    if np.any(a < 0) or np.any(a > maxval):
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

    Lossy presentation step for writing float images as PGM.
    """
    return np.clip(np.rint(data), 0, int(maxval)).astype(np.int64)
