"""Single-file checkpoint of named float64 arrays.

Layout (all integers little-endian, unsigned):

    magic    4 bytes  b"CFDX"
    version  u32      currently 1
    count    u32      number of records
    then per record, sorted by name:
      name_len u32
      name     utf-8 bytes
      rank     u32
      dims     rank * u64
      data     prod(dims) * f64, little-endian, C order
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from cfdetox.autodiff import Value, param
from cfdetox.errors import ParseError, ShapeError

MAGIC = b"CFDX"
VERSION = 1


def save_arrays(path: str | Path, arrays: dict[str, np.ndarray]) -> None:
    """Write arrays sorted by name; byte-identical for identical contents."""
    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(arrays)))
        for name in sorted(arrays):
            # asarray, not ascontiguousarray: the latter promotes 0-d to 1-d
            arr = np.asarray(arrays[name], dtype=np.float64)
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", arr.ndim))
            fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
            fh.write(arr.astype("<f8", copy=False).tobytes(order="C"))


def load_arrays(path: str | Path) -> dict[str, np.ndarray]:
    """Read a checkpoint; any truncation or trailing bytes is a ParseError."""
    path = Path(path)
    blob = memoryview(path.read_bytes())
    offset = 0

    def take(size: int, what: str) -> memoryview:
        nonlocal offset
        if size > len(blob) - offset:
            raise ParseError(path, 1, f"truncated checkpoint: {what} needs {size} bytes at offset "
                                      f"{offset}, file has {len(blob)}")
        offset += size
        return blob[offset - size : offset]

    if blob[:4] != MAGIC:
        raise ParseError(path, 1, "not a checkpoint file (bad magic)")
    take(4, "magic")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != VERSION:
        raise ParseError(path, 1, f"unsupported checkpoint version {version}")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4, "record header"))
        try:
            name = str(take(name_len, "record name"), "utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(path, 1, f"record name at offset {offset - name_len} is not utf-8") from exc
        (rank,) = struct.unpack("<I", take(4, "record header"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, "record dims"))
        data = take(8 * math.prod(dims), "record data")
        try:
            arrays[name] = np.frombuffer(data, dtype="<f8").reshape(dims).astype(np.float64)
        except (ValueError, OverflowError) as exc:
            raise ParseError(path, 1, f"bad shape {dims} for {name!r}: {exc}") from exc
    if offset != len(blob):
        raise ParseError(path, 1, f"{len(blob) - offset} trailing bytes after {count} records")
    return arrays


def save_params(path: str | Path, params: dict[str, Value]) -> None:
    save_arrays(path, {name: v.data for name, v in params.items()})


def load_params(path: str | Path, expect_shapes: dict[str, tuple[int, ...]] | None = None) -> dict[str, Value]:
    """Load a checkpoint into fresh trainable Values.

    When ``expect_shapes`` is given (e.g. derived from a vocabulary and a
    model config), any missing name or shape disagreement raises ShapeError.
    """
    arrays = load_arrays(path)
    if expect_shapes is not None:
        for name, shape in expect_shapes.items():
            if name not in arrays:
                raise ShapeError(f"checkpoint is missing parameter {name!r}")
            if arrays[name].shape != shape:
                raise ShapeError(
                    f"checkpoint/vocab mismatch for {name!r}: "
                    f"file has {arrays[name].shape}, expected {shape}"
                )
        extra = sorted(set(arrays) - set(expect_shapes))
        if extra:
            raise ShapeError(f"checkpoint has unexpected parameters: {extra}")
    return {name: param(arr, op=name) for name, arr in arrays.items()}
