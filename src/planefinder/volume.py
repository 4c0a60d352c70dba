"""4D volume container, plane resampling and candidate plane generation."""

import itertools
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import read_fields

DTYPE_CODES = {"u8": np.uint8, "f32": np.float32}

# Hard cap on the orientation x offset candidate grid.
OFFSETS_PER_ORIENTATION = 5
MAX_ORIENTATIONS = 4096
CANDIDATE_CAPACITY = MAX_ORIENTATIONS * OFFSETS_PER_ORIENTATION

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class VolumeError(Exception):
    pass


@dataclass(frozen=True, init=False)
class Volume4D:
    """Time series of 3D scalar grids with values in [0,1], shape (T, nz, ny, nx).

    `stored` holds the array the volume was given, in a read-only view that
    leaves the caller's array writeable, and `divisor` decodes it:
    values = stored / divisor. A uint8 array holds `u8` codes, each standing
    for code / 255 as in a loaded file, so its divisor is 255. A float32 or
    float64 array is stored as given with divisor 1, anything else as float64.
    """

    stored: np.ndarray
    spacing: tuple
    divisor: float

    def __init__(self, voxels, spacing=(1.0, 1.0, 1.0)):
        stored = np.asarray(voxels).view()
        if stored.dtype not in (np.uint8, np.float32):
            stored = np.asarray(stored, dtype=np.float64)
        if stored.ndim != 4:
            raise VolumeError("voxels must be 4D (T, nz, ny, nx), got ndim=%d" % stored.ndim)
        t, nz, ny, nx = stored.shape
        if min(nx, ny, nz) < 2 or t < 1:
            raise VolumeError("volume too small: dims=%s frames=%d" % ((nx, ny, nz), t))
        # code / 255 always lies in [0,1]. In any other array NaN and +-inf
        # carry into the extremes, so one min and one max pass check it all
        divisor = 255.0 if stored.dtype == np.uint8 else 1.0
        if divisor == 1.0:
            lo, hi = stored.min(), stored.max()
            if np.isnan(lo):
                raise VolumeError("non-finite voxel values: NaN voxels")
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise VolumeError("non-finite voxel values")
            if lo < 0.0 or hi > 1.0:
                raise VolumeError("intensities must lie in [0,1]")
        spacing = tuple(float(s) for s in spacing)
        if len(spacing) != 3 or not all(0.0 < s < np.inf for s in spacing):
            raise VolumeError("spacing must be three finite positive numbers, got %s"
                              % (spacing,))
        stored.flags.writeable = False
        object.__setattr__(self, "stored", stored)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "divisor", divisor)

    @property
    def voxels(self):
        """The values as float64: the stored array itself when it is float64,
        otherwise decoded on each access."""
        if self.stored.dtype == np.float64:
            return self.stored
        return np.divide(self.stored, self.divisor, dtype=np.float64)

    @property
    def dims(self):
        t, nz, ny, nx = self.stored.shape
        return (nx, ny, nz)

    @property
    def n_frames(self):
        return self.stored.shape[0]


@dataclass(frozen=True)
class PlaneParams:
    """Parametric 2D plane in voxel coordinates with an orthonormal basis."""

    origin: tuple
    axis_u: tuple
    axis_v: tuple
    width: int = 128
    height: int = 128

    def __post_init__(self):
        o = np.asarray(self.origin, dtype=np.float64)
        u = np.asarray(self.axis_u, dtype=np.float64)
        v = np.asarray(self.axis_v, dtype=np.float64)
        if o.shape != (3,) or u.shape != (3,) or v.shape != (3,):
            raise VolumeError("origin/axis_u/axis_v must be 3-vectors")
        if abs(np.linalg.norm(u) - 1.0) > 1e-9 or abs(np.linalg.norm(v) - 1.0) > 1e-9:
            raise VolumeError("plane axes must be unit length")
        if abs(float(np.dot(u, v))) > 1e-9:
            raise VolumeError("plane axes must be orthogonal")
        if self.width < 1 or self.height < 1:
            raise VolumeError("invalid plane pixel grid")
        object.__setattr__(self, "origin", tuple(o))
        object.__setattr__(self, "axis_u", tuple(u))
        object.__setattr__(self, "axis_v", tuple(v))

    @cached_property
    def normal(self):
        n = np.cross(self.axis_u, self.axis_v)
        n = n / np.linalg.norm(n)
        n.flags.writeable = False
        return n

    @cached_property
    def center(self):
        o = np.asarray(self.origin)
        u = np.asarray(self.axis_u)
        v = np.asarray(self.axis_v)
        c = o + 0.5 * ((self.width - 1) * u + (self.height - 1) * v)
        c.flags.writeable = False
        return c


def float_frames(frames):
    """frames as a float array: float32 stays float32, anything else becomes
    float64. Smoothing and detection run in the precision of their frames."""
    frames = np.asarray(frames)
    return frames if frames.dtype == np.float32 else np.asarray(frames, dtype=np.float64)


@dataclass(frozen=True)
class PlaneSequence:
    """Per-frame resampled images of one plane; frames shape (T, height, width),
    float32 frames kept as float32 and any others held as float64."""

    frames: np.ndarray

    def __post_init__(self):
        f = float_frames(self.frames).view()
        if f.ndim != 3:
            raise VolumeError("frames must be (T, height, width)")
        f.flags.writeable = False
        object.__setattr__(self, "frames", f)

    @property
    def n_frames(self):
        return self.frames.shape[0]


def _parse_header(path):
    fields = {}
    for lineno, key, val in read_fields(path, VolumeError, "volume header"):
        if key in fields:
            raise VolumeError("%s:%d: header field %r given twice" % (path, lineno, key))
        fields[key] = val
    for key in ("dims", "spacing", "frames", "dtype", "data"):
        if key not in fields:
            raise VolumeError("header %s missing field %r" % (path, key))
    return fields


def load_volume(path):
    """Load a `.vol4` header + raw data pair. The volume keeps the payload as
    read: `u8` codes c stand for intensities c / 255, `f32` values must lie
    in [0,1]."""
    fields = _parse_header(path)
    try:
        nx, ny, nz = (int(s) for s in fields["dims"].split())
        spacing = tuple(float(s) for s in fields["spacing"].split())
        t = int(fields["frames"])
    except ValueError as exc:
        raise VolumeError("bad header value in %s: %s" % (path, exc)) from exc
    if min(nx, ny, nz, t) < 1:
        raise VolumeError("header %s: dims and frames must be positive" % path)
    dtype_code = fields["dtype"]
    if dtype_code not in DTYPE_CODES:
        raise VolumeError("unsupported dtype %r" % dtype_code)
    dtype = DTYPE_CODES[dtype_code]
    raw_path = os.path.join(os.path.dirname(os.path.abspath(path)), fields["data"])
    if not os.path.isfile(raw_path):
        raise VolumeError("missing raw data file: %s" % raw_path)
    expected = t * nz * ny * nx * np.dtype(dtype).itemsize
    actual = os.path.getsize(raw_path)
    if actual != expected:
        raise VolumeError(
            "raw size mismatch for %s: expected %d bytes, found %d" % (raw_path, expected, actual)
        )
    data = np.fromfile(raw_path, dtype=np.dtype(dtype).newbyteorder("<"))
    data = data.reshape(t, nz, ny, nx)
    try:
        return Volume4D(data, spacing)
    except VolumeError as exc:
        raise VolumeError("%s in %s" % (exc, raw_path)) from exc


def save_volume(vol, path, dtype="u8"):
    """Write the `.vol4` header and raw payload. Spacing round-trips exactly;
    voxels do under `u8` only when they are multiples of 1/255, and under
    `f32` only when they are float32 values."""
    if dtype not in DTYPE_CODES:
        raise VolumeError("unsupported dtype %r" % dtype)
    base = os.path.splitext(os.path.basename(path))[0]
    raw_name = base + ".raw"
    raw_path = os.path.join(os.path.dirname(os.path.abspath(path)), raw_name)
    nx, ny, nz = vol.dims
    code = np.dtype(DTYPE_CODES[dtype]).newbyteorder("<")
    try:
        with open(path, "w") as fh:
            fh.write("dims=%d %d %d\n" % (nx, ny, nz))
            fh.write("spacing=%.17g %.17g %.17g\n" % vol.spacing)
            fh.write("frames=%d\n" % vol.n_frames)
            fh.write("dtype=%s\n" % dtype)
            fh.write("data=%s\n" % raw_name)
        # one frame's values at a time, decoded as `voxels` decodes them, so
        # no volume-sized float64 copy is made
        values = np.empty(vol.stored.shape[1:])
        with open(raw_path, "wb") as fh:
            for frame in vol.stored:
                np.divide(frame, vol.divisor, out=values, dtype=np.float64)
                if dtype == "u8":
                    np.rint(np.multiply(values, 255.0, out=values), out=values)
                values.astype(code).tofile(fh)
    except OSError as exc:
        raise VolumeError("cannot write volume %s: %s" % (path, exc)) from exc


def _plane_coords(params):
    """(3, height, width) voxel coordinates (z, y, x) of the plane's pixel grid,
    one voxel apart."""
    o, u, v = (np.asarray(a)[::-1, None, None]
               for a in (params.origin, params.axis_u, params.axis_v))
    return o + np.arange(params.width) * u + np.arange(params.height)[:, None] * v


def extract_plane_sequence(vol, params):
    """Resample every frame of the volume on the plane's pixel grid by
    trilinear interpolation. Coordinates outside the voxel grid contribute
    zero. Each frame is bit for bit map_coordinates(order=1, cval=0,
    mode="grid-constant"): weights w0 = 1 - f and w1 = 1 - w0, corner terms
    ((v*wz)*wy)*wx summed from 0.0 in z-major order. Corners and weights are
    computed once per plane. Each corner is gathered for all frames into one
    reused buffer of the stored dtype, then decoded into float64; gathering
    all 8 at once was slower and held 4x the memory.
    """
    coords = _plane_coords(params).reshape(3, -1)
    base = np.floor(coords)
    w0 = 1.0 - (coords - base)
    weights = (w0, 1.0 - w0)
    base = base.astype(np.intp)
    grid = vol.stored.shape[1:]
    stored = vol.stored.reshape(vol.n_frames, -1)
    frames = np.zeros((vol.n_frames, coords.shape[1]))
    raw = np.empty(frames.shape, dtype=stored.dtype)
    term = np.empty_like(frames)
    for corner in itertools.product((0, 1), repeat=3):
        idx = base + np.array(corner)[:, None]
        inside = np.all((idx >= 0) & (idx < np.array(grid)[:, None]), axis=0)
        np.take(stored, np.ravel_multi_index(idx, grid, mode="clip"), axis=1, out=raw,
                mode="clip")
        # float64(code) / 255, correctly rounded: the bits `voxels` decodes
        np.divide(raw, vol.divisor, out=term)
        # an outside corner is cval = 0: a zero weight makes its term +0.0
        term *= np.where(inside, weights[corner[0]][0], 0.0)
        term *= weights[corner[1]][1]
        term *= weights[corner[2]][2]
        frames += term
    return PlaneSequence(frames.reshape(-1, params.height, params.width))


def _orthobasis(normal, roll=0.0):
    """Deterministic in-plane basis for a normal, optionally rolled."""
    n = np.asarray(normal, dtype=np.float64)
    n = n / np.linalg.norm(n)
    helper = np.zeros(3)
    helper[int(np.argmin(np.abs(n)))] = 1.0
    u = np.cross(n, helper)
    u /= np.linalg.norm(u)
    v = np.cross(n, u)
    if roll != 0.0:
        cu = math.cos(roll) * u + math.sin(roll) * v
        v = -math.sin(roll) * u + math.cos(roll) * v
        u = cu
    return u, v


def plane_from_center(center, normal, width=128, height=128, roll=0.0):
    """Build PlaneParams whose pixel grid is centered on `center`."""
    u, v = _orthobasis(normal, roll=roll)
    center = np.asarray(center, dtype=np.float64)
    origin = center - 0.5 * ((width - 1) * u + (height - 1) * v)
    return PlaneParams(origin=tuple(origin), axis_u=tuple(u), axis_v=tuple(v),
                       width=width, height=height)


def generate_candidates(dims, n, seed, size):
    """Enumerate n size x size candidate planes of a volume with dims
    (nx, ny, nz): Fibonacci-lattice hemisphere orientations crossed with
    evenly spaced offsets along each normal."""
    if n < 1:
        raise VolumeError("need n >= 1 candidates")
    if n > CANDIDATE_CAPACITY:
        raise VolumeError(
            "n=%d exceeds the candidate grid capacity of %d" % (n, CANDIDATE_CAPACITY)
        )
    nx, ny, nz = dims
    center = np.array([(nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0])
    half = 0.3 * (min(nx, ny, nz) - 1)

    n_orient = int(math.ceil(n / OFFSETS_PER_ORIENTATION))
    rng = np.random.default_rng(seed)
    rot = _random_rotation(rng)
    rolls = rng.uniform(0.0, 2.0 * math.pi, size=n_orient)

    offsets = np.linspace(-half, half, OFFSETS_PER_ORIENTATION)

    planes = []
    for i in range(n_orient):
        zc = (i + 0.5) / n_orient
        r = math.sqrt(max(0.0, 1.0 - zc * zc))
        theta = GOLDEN_ANGLE * i
        normal = rot @ np.array([r * math.cos(theta), r * math.sin(theta), zc])
        for off in offsets:
            planes.append(plane_from_center(center + off * normal, normal, size, size,
                                            roll=rolls[i]))
            if len(planes) == n:
                return planes
    return planes


def _random_rotation(rng):
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def plane_angle(a, b):
    """Angle in radians between two plane normals (sign-insensitive)."""
    c = abs(float(np.dot(a.normal, b.normal)))
    return math.acos(min(1.0, c))


def plane_offset(a, b):
    """Out-of-plane distance between two plane centers along b's normal."""
    d = np.asarray(a.center) - np.asarray(b.center)
    return abs(float(np.dot(d, b.normal)))
