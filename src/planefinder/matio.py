"""Binary matrix container used inside model bundles.

Layout: 8-byte magic 'PFMAT001', u32 rows, u32 cols (little-endian), then
row-major little-endian f64 payload.
"""

import os
import struct

import numpy as np

MAGIC = b"PFMAT001"


class MatIOError(Exception):
    pass


def write_matrix(path, arr):
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise MatIOError("only 1D/2D arrays are supported")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_matrix(path):
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise MatIOError("cannot open matrix file %s: %s" % (path, exc)) from exc
    with fh:
        header = fh.read(16)
        if header[:8] != MAGIC:
            raise MatIOError("bad magic in %s" % path)
        if len(header) < 16:
            raise MatIOError("truncated header in %s" % path)
        rows, cols = struct.unpack("<II", header[8:])
        nbytes = rows * cols * 8
        # checked before reading, so a forged shape cannot ask for more memory
        # than the file holds
        if nbytes > os.fstat(fh.fileno()).st_size - 16:
            raise MatIOError("truncated matrix file %s: header says %d x %d"
                             % (path, rows, cols))
        payload = fh.read(nbytes)
    if len(payload) != nbytes:
        raise MatIOError("truncated matrix file %s" % path)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()
