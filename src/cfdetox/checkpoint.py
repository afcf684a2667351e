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

from cfdetox.autodiff import Value
from cfdetox.errors import ParseError, ShapeError

MAGIC = b"CFDX"
VERSION = 1
# files written before the model had one invariant response store it twice,
# bit-equal, under these names
TWIN_RESPONSES = ("const.c_e", "const.c_x")


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
    """Read a checkpoint, each record's data straight into its own array;
    any truncation, trailing bytes, or record name not strictly after the
    one before (as :func:`save_arrays` writes them) is a ParseError."""
    path = Path(path)
    with open(path, "rb") as fh:
        size = path.stat().st_size
        offset = 4  # past the magic, checked first

        def take(n: int, what: str) -> int:
            nonlocal offset
            if n > size - offset:
                raise ParseError(path, 1, f"truncated checkpoint: {what} needs {n} bytes at offset "
                                          f"{offset}, file has {size}")
            offset += n
            return n

        if fh.read(4) != MAGIC:
            raise ParseError(path, 1, "not a checkpoint file (bad magic)")
        version, count = struct.unpack("<II", fh.read(take(8, "header")))
        if version != VERSION:
            raise ParseError(path, 1, f"unsupported checkpoint version {version}")
        arrays: dict[str, np.ndarray] = {}
        previous: str | None = None
        for _ in range(count):
            (name_len,) = struct.unpack("<I", fh.read(take(4, "record header")))
            try:
                name = str(fh.read(take(name_len, "record name")), "utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(path, 1, f"record name at offset {offset - name_len} is not utf-8") from exc
            if previous is not None and name <= previous:
                raise ParseError(path, 1, f"record {name!r} follows {previous!r}: names must be unique and sorted")
            previous = name
            (rank,) = struct.unpack("<I", fh.read(take(4, "record header")))
            dims = struct.unpack(f"<{rank}Q", fh.read(take(8 * rank, "record dims")))
            n = math.prod(dims)
            take(8 * n, "record data")  # before allocating what the dims claim
            try:
                arrays[name] = np.fromfile(fh, dtype="<f8", count=n).reshape(dims)
            except (ValueError, OverflowError) as exc:
                raise ParseError(path, 1, f"bad shape {dims} for {name!r}: {exc}") from exc
    if offset != size:
        raise ParseError(path, 1, f"{size - offset} trailing bytes after {count} records")
    return arrays


def save_params(path: str | Path, params: dict[str, Value]) -> None:
    save_arrays(path, {name: v.data for name, v in params.items()})


def load_params(path: str | Path, expect_shapes: dict[str, tuple[int, ...]] | None = None) -> dict[str, Value]:
    """Load a checkpoint into trainable Values wrapping the arrays read.

    A non-finite value raises ParseError naming the first parameter, in
    file order, that holds one.  Bit-equal ``TWIN_RESPONSES`` load as the
    one ``const.c``, keeping name order; unequal ones, one alone, or either
    beside ``const.c`` raise ParseError.  When ``expect_shapes`` is given (e.g.
    derived from a vocabulary and a model config), any missing name or
    shape disagreement raises ShapeError.
    """
    arrays = load_arrays(path)
    for name, arr in arrays.items():
        if not np.isfinite(arr).all():
            index = tuple(int(i) for i in np.argwhere(~np.isfinite(arr))[0])
            raise ParseError(path, 1, f"parameter {name!r} holds {arr[index]} at index {index}")
    if any(name in arrays for name in TWIN_RESPONSES):
        twins = [(arr.shape, arr.tobytes()) for name, arr in arrays.items() if name in TWIN_RESPONSES]
        if "const.c" in arrays or len(twins) != 2 or twins[0] != twins[1]:
            raise ParseError(path, 1, f"invariant responses {TWIN_RESPONSES} load as 'const.c' only "
                                      "when both are present, bit-equal and without 'const.c'")
        arrays = {("const.c" if name == "const.c_e" else name): arr
                  for name, arr in arrays.items() if name != "const.c_x"}
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
    return {name: Value(arr, op=name, requires_grad=True) for name, arr in arrays.items()}
