"""Binary (P5) 8-bit PGM read/write for grayscale frames in [0,1]."""

import numpy as np


class PgmError(Exception):
    pass


def read_pgm(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise PgmError("cannot read PGM %s: %s" % (path, exc)) from exc
    tokens = []
    i = 0
    while len(tokens) < 4 and i < len(data):
        if data[i:i + 1].isspace():
            i += 1
            continue
        if data[i:i + 1] == b"#":
            while i < len(data) and data[i] != 0x0A:
                i += 1
            continue
        j = i
        while j < len(data) and not data[j:j + 1].isspace():
            j += 1
        tokens.append(data[i:j])
        i = j
    if len(tokens) < 4 or tokens[0] != b"P5":
        raise PgmError("not a binary P5 PGM: %s" % path)
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise PgmError("bad PGM header in %s: %s" % (path, exc)) from exc
    if width < 1 or height < 1:
        raise PgmError("PGM dimensions must be positive in %s" % path)
    if maxval != 255:
        raise PgmError("only 8-bit PGM supported")
    pixels = np.frombuffer(data[i + 1:i + 1 + width * height], dtype=np.uint8)
    if pixels.size != width * height:
        raise PgmError("truncated PGM payload in %s" % path)
    return pixels.reshape(height, width).astype(np.float64) / 255.0


def write_pgm(path, image):
    img = np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0)
    payload = np.round(img * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(payload.tobytes())
