"""4D volume container, plane resampling and candidate plane generation."""

import math
import mmap
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .config import read_lines

DTYPE_CODES = {"u8": np.uint8, "f32": np.float32}

# Hard cap on the orientation x offset candidate grid.
OFFSETS_PER_ORIENTATION = 5
MAX_ORIENTATIONS = 4096
CANDIDATE_CAPACITY = MAX_ORIENTATIONS * OFFSETS_PER_ORIENTATION

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class VolumeError(Exception):
    pass


@dataclass(frozen=True)
class Volume4D:
    """Time series of 3D scalar grids; voxels shape (T, nz, ny, nx) in [0,1]."""

    voxels: np.ndarray
    spacing: tuple = (1.0, 1.0, 1.0)

    def __post_init__(self):
        v = np.asarray(self.voxels, dtype=np.float64)
        if v.ndim != 4:
            raise VolumeError("voxels must be 4D (T, nz, ny, nx), got ndim=%d" % v.ndim)
        t, nz, ny, nx = v.shape
        if min(nx, ny, nz) < 2 or t < 1:
            raise VolumeError("volume too small: dims=%s frames=%d" % ((nx, ny, nz), t))
        if not np.all(np.isfinite(v)):
            raise VolumeError("non-finite voxel values")
        if v.min() < 0.0 or v.max() > 1.0:
            raise VolumeError("intensities must lie in [0,1]")
        v.flags.writeable = False
        object.__setattr__(self, "voxels", v)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))

    @property
    def dims(self):
        t, nz, ny, nx = self.voxels.shape
        return (nx, ny, nz)

    @property
    def n_frames(self):
        return self.voxels.shape[0]


@dataclass(frozen=True)
class PlaneParams:
    """Parametric 2D plane in voxel coordinates with an orthonormal basis."""

    origin: tuple
    axis_u: tuple
    axis_v: tuple
    width: int = 128
    height: int = 128
    pixel_step: float = 1.0

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
        if self.width < 1 or self.height < 1 or self.pixel_step <= 0:
            raise VolumeError("invalid plane pixel grid")
        object.__setattr__(self, "origin", tuple(o))
        object.__setattr__(self, "axis_u", tuple(u))
        object.__setattr__(self, "axis_v", tuple(v))

    @property
    def normal(self):
        n = np.cross(self.axis_u, self.axis_v)
        return n / np.linalg.norm(n)

    @property
    def center(self):
        o = np.asarray(self.origin)
        u = np.asarray(self.axis_u)
        v = np.asarray(self.axis_v)
        return (o + 0.5 * self.pixel_step * ((self.width - 1) * u + (self.height - 1) * v))


@dataclass(frozen=True)
class PlaneSequence:
    """Per-frame resampled images of one plane; frames shape (T, height, width)."""

    params: PlaneParams
    frames: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frames, dtype=np.float64)
        if f.ndim != 3:
            raise VolumeError("frames must be (T, height, width)")
        f.flags.writeable = False
        object.__setattr__(self, "frames", f)

    @property
    def n_frames(self):
        return self.frames.shape[0]


def _parse_header(path):
    fields = {}
    for line in read_lines(path, VolumeError, "volume header"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise VolumeError("malformed header line %r in %s" % (line, path))
        key, val = line.split("=", 1)
        fields[key.strip()] = val.strip()
    for key in ("dims", "spacing", "frames", "dtype", "data"):
        if key not in fields:
            raise VolumeError("header %s missing field %r" % (path, key))
    return fields


def load_volume(path):
    """Load a `.vol4` header + raw data pair, rescaling intensities to [0,1]."""
    fields = _parse_header(path)
    try:
        nx, ny, nz = (int(s) for s in fields["dims"].split())
        spacing = tuple(float(s) for s in fields["spacing"].split())
        t = int(fields["frames"])
    except ValueError as exc:
        raise VolumeError("bad header value in %s: %s" % (path, exc)) from exc
    if min(nx, ny, nz, t) < 1 or len(spacing) != 3:
        raise VolumeError("header %s: dims and frames must be positive and spacing "
                          "three numbers" % path)
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
    # The float64 voxels get an anonymous mapping of their own, which is
    # unmapped when they are freed. From the malloc heap, a reloaded volume
    # could find the block its predecessor freed split by smaller arrays and
    # grow the heap by one volume (13 MB at 64^3 x 8 frames), so that peak
    # RSS varied from run to run.
    data = np.frombuffer(mmap.mmap(-1, 8 * t * nz * ny * nx), np.float64).reshape(t, nz, ny, nx)
    data[...] = np.fromfile(raw_path, dtype=np.dtype(dtype).newbyteorder("<")).reshape(data.shape)
    if np.any(np.isnan(data)):
        raise VolumeError("NaN voxels in %s" % raw_path)
    if dtype_code == "u8":
        data /= 255.0
    return Volume4D(voxels=data, spacing=spacing)


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
    if dtype == "u8":
        payload = np.round(vol.voxels * 255.0).astype("<u1")
    else:
        payload = vol.voxels.astype("<f4")
    try:
        with open(path, "w") as fh:
            fh.write("dims=%d %d %d\n" % (nx, ny, nz))
            fh.write("spacing=%.17g %.17g %.17g\n" % vol.spacing)
            fh.write("frames=%d\n" % vol.n_frames)
            fh.write("dtype=%s\n" % dtype)
            fh.write("data=%s\n" % raw_name)
        payload.tofile(raw_path)
    except OSError as exc:
        raise VolumeError("cannot write volume %s: %s" % (path, exc)) from exc


def _plane_coords(params):
    """(3, height, width) voxel coordinates (z, y, x) of the plane's pixel grid."""
    o, u, v = (np.asarray(a)[::-1, None, None]
               for a in (params.origin, params.axis_u, params.axis_v))
    cols = np.arange(params.width) * params.pixel_step
    rows = np.arange(params.height)[:, None] * params.pixel_step
    return o + cols * u + rows * v


def sample_plane(vol, params, frame):
    """Resample one frame on the plane's pixel grid by trilinear interpolation.

    Coordinates outside the voxel grid contribute zero: "grid-constant" pads
    the volume with cval and interpolates toward it.
    """
    if frame < 0 or frame >= vol.n_frames:
        raise VolumeError("frame %d out of range [0, %d)" % (frame, vol.n_frames))
    return ndimage.map_coordinates(vol.voxels[frame], _plane_coords(params), order=1,
                                   mode="grid-constant", cval=0.0)


def extract_plane_sequence(vol, params):
    """Resample every frame of the volume on one plane, as sample_plane does.

    Each frame is its own 3-D interpolation: one 4-D call would interpolate
    in t as well (16 taps, not 8) and measured slower.
    """
    coords = _plane_coords(params)
    frames = np.stack([ndimage.map_coordinates(grid, coords, order=1, mode="grid-constant",
                                               cval=0.0) for grid in vol.voxels])
    return PlaneSequence(params=params, frames=frames)


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


def plane_from_center(center, normal, width=128, height=128, pixel_step=1.0, roll=0.0):
    """Build PlaneParams whose pixel grid is centered on `center`."""
    u, v = _orthobasis(normal, roll=roll)
    center = np.asarray(center, dtype=np.float64)
    origin = center - 0.5 * pixel_step * ((width - 1) * u + (height - 1) * v)
    return PlaneParams(origin=tuple(origin), axis_u=tuple(u), axis_v=tuple(v),
                       width=width, height=height, pixel_step=pixel_step)


def generate_candidates(vol, n, seed, width=128, height=128, pixel_step=1.0):
    """Enumerate n candidate planes: Fibonacci-lattice hemisphere orientations
    crossed with evenly spaced offsets along each normal.

    Depends only on (dims, n, seed); intensity content is ignored.
    """
    if n < 1:
        raise VolumeError("need n >= 1 candidates")
    if n > CANDIDATE_CAPACITY:
        raise VolumeError(
            "n=%d exceeds the candidate grid capacity of %d" % (n, CANDIDATE_CAPACITY)
        )
    nx, ny, nz = vol.dims
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
            planes.append(plane_from_center(center + off * normal, normal, width, height,
                                            pixel_step, roll=rolls[i]))
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
