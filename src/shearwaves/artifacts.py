"""The artifact byte format: the one module that writes a CSV or JSON file.

A CSV is one header line, then comma-separated rows with CRLF line ends; every
value is printed with ``%.17g`` (so ``float()`` gives back the exact double),
and the special values as ``nan``, ``inf``, ``-inf``, ``-0``.  The rows are the
sample mesh in row-major order, first column slowest.  The writer runs in this
process alone, a block of rows at a time, and formats a broadcast mesh axis once
per distinct value; `_csv_lines` and `_format17` say how.  A JSON artifact
writes a non-finite number (a NaN residual, an infinite fitted order) as ``null``.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

# about this many rows per CSV block: whole outer rows of a mesh, or one outer
# row's share of a longer inner axis.  One block at a time bounds the writer's
# memory.  At 2048 rows the allocator handed each block's temporaries back to
# the system, and the next block page-faulted them in again (330-430 minor
# faults a block on the benchmark's artifact_write jobs; under one at 1024 rows)
CSV_BLOCK_ROWS = 1024


def _json_value(obj):
    """obj with numpy values as plain ones and non-finite floats as None (JSON null)."""
    if isinstance(obj, dict):
        return {key: _json_value(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_value(value) for value in obj]
    if isinstance(obj, np.ndarray):
        # a finite array needs no walk over its elements
        finite = obj.dtype.kind != "f" or np.isfinite(obj).all()
        return obj.tolist() if finite else _json_value(obj.tolist())
    obj = obj.item() if isinstance(obj, np.generic) else obj
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(_json_value(obj), f, indent=2, sort_keys=True)
        f.write("\n")


# `_format17` builds each value's text in a slot of five 8-byte words: a sign,
# "0.000", then each of 17 digits with a "." after it; any %.17g text (24 bytes
# at most) also fits.  The words are only moved and masked, never read as
# numbers, so the byte order of the machine does not matter.
_U = np.uint64
_POW5 = _U(5) ** np.arange(22, dtype=_U)


def _digit_tables():
    """The word "d.d.d.d." of each group of four digits 0000..9999, then the
    slot's first word "-0.000d." of each leading digit d at 10000 + d; and the
    trailing zeros of each group."""
    digits = (np.arange(10_000, dtype=np.uint16)[:, None]
              // np.array([1000, 100, 10, 1], dtype=np.uint16) % 10).astype(np.uint8)
    groups = np.full((10_000, 8), ord("."), dtype=np.uint8)
    groups[:, ::2] = digits + ord("0")
    lead = np.tile(np.frombuffer(b"-0.0000.", dtype=np.uint8), (10, 1))
    lead[:, 6] += np.arange(10, dtype=np.uint8)
    zeros = np.argmax(digits[:, ::-1] != 0, axis=1) + 4 * (digits == 0).all(axis=1)
    return np.concatenate([groups, lead]).view(_U).ravel(), zeros.astype(np.uint8)


_WORDS, _TZ4 = _digit_tables()
_COMMA = np.frombuffer(b"\0" * 7 + b",", dtype=_U)[0]  # the slot's last byte is never text
_CRLF = np.frombuffer(b"\r\n" + b"\0" * 6, dtype=_U)[0]


def _keep_masks() -> np.ndarray:
    """Each slot byte that the text keeps, as 0xFF, the others 0: one row per
    (sign, E, significant digits k), E in -4..15 then a row for zero, k in 1..17."""
    pos = np.arange(40)
    digit, j = (pos >= 6) & (pos % 2 == 0), (pos - 6) // 2  # digit j, then its "."
    E, k = np.arange(-4, 16)[:, None, None], np.arange(1, 18)[None, :, None]
    below_one = (pos == 1) | (pos == 2) | ((pos >= 7 + E) & (pos < 6)) | (digit & (j < k))
    above_one = (digit & (j < np.maximum(k, E + 1))) | ((pos == 7 + 2 * E) & (k > E + 1))
    keep = np.concatenate([np.where(E < 0, below_one, above_one).reshape(-1, 40),
                           np.tile(pos == 1, (17, 1))])
    keep = np.stack([keep, keep | (pos == 0)])
    return (keep * np.uint8(0xFF)).view(_U).reshape(-1, 5)


_KEEP = _keep_masks()


def _write_csv(path: Path, header, columns):
    """Write equal-size columns, one per header name, at full double precision.

    Each column is read in row-major order.  Columns that all share one 2-D
    shape, some of them broadcast views, are a mesh; any other columns are
    written as one mesh row.  A mesh is written in blocks of about
    `CSV_BLOCK_ROWS` rows (whole outer rows, or one outer row's share of a
    longer inner axis), so memory stays bounded; see `_csv_lines`.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = columns[0].size
    if len(header) != len(columns) or any(c.size != n for c in columns):
        raise ValueError("CSV needs one header name per column and columns of equal length")
    if columns[0].ndim != 2 or any(c.shape != columns[0].shape for c in columns):
        columns = [c.reshape(1, -1) for c in columns]
    m, k = columns[0].shape
    group = max(1, CSV_BLOCK_ROWS // max(k, 1))  # outer rows per block
    with open(path, "wb") as f:
        f.write((",".join(header) + "\r\n").encode())
        for i0 in range(0, m, group):
            for j0 in range(0, k, CSV_BLOCK_ROWS):
                f.write(_csv_lines([c[i0:i0 + group, j0:j0 + CSV_BLOCK_ROWS] for c in columns]))


def _csv_lines(block) -> bytes:
    """The CSV lines of equal-shape 2-D columns, from one `_format17` call.

    A column with stride 0 along an axis (a broadcast mesh axis, or a field
    of one axis alone) is formatted once per distinct value; the stride test
    reads no values, so NaN or signed-zero axes cannot pass for constant.
    The slots fill a (rows, columns, slot) matrix with the separators, and
    its NUL pad bytes are then deleted.
    """
    distinct = [c[:1 if c.strides[0] == 0 else None, :1 if c.strides[1] == 0 else None]
                for c in block]
    text = _format17(np.concatenate([d.ravel() for d in distinct]))
    text[:len(text) - distinct[-1].size, -1] |= _COMMA  # after every column but the last
    lines = np.empty((*block[0].shape, 5 * len(block) + 1), dtype=_U)
    start = 0
    for i, d in enumerate(distinct):
        lines[:, :, 5 * i:5 * i + 5] = text[start:start + d.size].reshape(*d.shape, 5)
        start += d.size
    lines[:, :, -1] = _CRLF
    return lines.tobytes().translate(None, b"\0")


def _format17(values) -> np.ndarray:
    """The ``%.17g`` text of each double, NUL-padded in five 8-byte words.

    A finite |x| in [1e-4, 1e16), where ``%.17g`` uses fixed notation, and
    +-0 are formatted by integer arithmetic.  Write |x| = M 2^e with M in
    [2^62, 2^63) (the significand shifted left by 10 bits) and let
    E = floor(log10 |x|).  The 17 significant digits are then
    M 5^p / 2^s with p = 16 - E <= 21 and 7 <= s <= 57, rounded half to
    even by `_scaled17`.  E comes from ``log10`` and is corrected by one
    where the scaled value falls outside [10^16, 10^17).  No double in the
    range rounds up to a power of ten: the largest double below 10^k is at
    least 8.7e-17 10^k from it, more than half a unit of the 17th digit.
    An int64 division by 10^8 halves the digits, and ``floor`` of double
    quotients by 1e8 and 1e4 splits the halves into the leading digit and
    four groups.  For integers below 10^9 these are exact: a true quotient
    lies 10^-8 or more below the next integer, far over half an ulp.  The
    trailing zeros are the last group's `_TZ4` entry, plus the earlier
    groups' where it is 0000.  The mask `_KEEP` of (sign, E, significant
    digits) keeps the bytes of the text in the slot.  Every other value
    (NaN, +-inf, tiny or huge) is formatted with ``%``.
    """
    v = np.ravel(values)
    a = np.abs(v)
    fast = (a >= 1e-4) & (a < 1e16)
    w = np.where(fast, a, 1.0)
    bits = w.view(_U)
    M = ((bits & _U(2**52 - 1)) | _U(2**52)) << _U(10)
    e = (bits >> _U(52)).astype(np.int64) - 1085
    E = np.floor(np.log10(w)).astype(np.int64)
    scaled, up = _scaled17(M, e, E)
    off = np.flatnonzero((scaled < _U(10**16)) | (scaled >= _U(10**17)))
    if off.size:
        E[off] += np.where(scaled[off] < _U(10**16), -1, 1)
        scaled[off], up[off] = _scaled17(M[off], e[off], E[off])
    digits = (scaled + up).astype(np.int64)
    high = digits // 10**8
    high, low = high.astype(float), (digits - high * 10**8).astype(float)  # below 10^9
    lead = np.floor(high / 1e8)
    high -= lead * 1e8
    words = np.empty((v.size, 5), dtype=np.int64)  # into _WORDS: leading digit, then 4 groups
    words[:, 0] = lead + 10_000
    words[:, 1], words[:, 3] = np.floor(high / 1e4), np.floor(low / 1e4)
    words[:, 2], words[:, 4] = high - words[:, 1] * 1e4, low - words[:, 3] * 1e4
    zeros = _TZ4[words[:, 4]]  # the trailing zeros of the 17 digits; the first is never 0
    deep = np.flatnonzero(zeros == 4)
    if deep.size:
        z = _TZ4[words[deep, 1:4].T]
        zeros[deep] += z[2] + (z[2] == 4) * (z[1] + (z[1] == 4) * z[0])
    out = np.take(_WORDS, words)
    out &= np.take(_KEEP, (np.where(a == 0, 20, E + 4) + 21 * np.signbit(v)) * 17 + 16 - zeros,
                   axis=0)
    other = np.flatnonzero(~fast & (a != 0))
    if other.size:
        text = b"".join(("%.17g" % x).encode().ljust(40, b"\0") for x in v[other].tolist())
        out[other] = np.frombuffer(text, dtype=_U).reshape(-1, 5)
    return out


def _scaled17(M, e, E):
    """floor(M 2^e 10^(16 - E)) and whether it rounds up, half to even.

    M 5^p in 32-bit limbs is exact in two words, high and low.  With
    r = 64 - s in [7, 57], ``low << r`` puts the s discarded bits on r zero
    bits, so adding the scaled value's last bit cannot overflow; the sum
    passes 2^63 when the rest is over half a unit, or half and the value odd.
    """
    f, s = _POW5[16 - E], (E - 16 - e).astype(_U)  # the scaled value is M f / 2^s
    m0, m1, f0, f1 = M & _U(0xFFFFFFFF), M >> _U(32), f & _U(0xFFFFFFFF), f >> _U(32)
    low0 = m0 * f0
    mid = m1 * f0 + m0 * f1
    low = low0 + (mid << _U(32))
    high = m1 * f1 + (mid >> _U(32)) + (low < low0)  # carry out of the low word
    r = _U(64) - s
    scaled = (low >> s) | (high << r)
    return scaled, (low << r) + (scaled & _U(1)) > _U(2**63)

