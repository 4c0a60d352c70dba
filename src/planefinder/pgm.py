"""Binary (P5) 8-bit PGM read/write for grayscale frames in [0,1]."""

import re

import numpy as np

# Four header tokens, each after whitespace and '#' comments. A comment runs
# to the end of its line and a token to the next whitespace: the lookaheads
# keep either from ending early to make up four tokens the header lacks.
_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*)(?!\S)" * 4)


class PgmError(Exception):
    pass


def read_pgm(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PgmError("cannot read PGM %s: %s" % (path, exc)) from exc
    header = _HEADER.match(data)
    if header is None or header.group(1) != b"P5":
        raise PgmError("not a binary P5 PGM: %s" % path)
    try:
        width, height, maxval = (int(t) for t in header.groups()[1:])
    except ValueError as exc:
        raise PgmError("bad PGM header in %s: %s" % (path, exc)) from exc
    if width < 1 or height < 1:
        raise PgmError("PGM dimensions must be positive in %s" % path)
    if maxval != 255:
        raise PgmError("only 8-bit PGM supported")
    # one whitespace byte ends the header
    start = header.end() + 1
    pixels = np.frombuffer(data[start:start + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise PgmError("truncated PGM payload in %s" % path)
    return pixels.reshape(height, width).astype(np.float64) / 255.0


def write_pgm(path, image):
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    payload = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(payload.tobytes())
