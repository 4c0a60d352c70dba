"""Synthetic 4D phantoms with known standard planes, for desk-scale evaluation.

Each plane class carries an array of marks with a structurally distinct local
shape (crosses, hollow rings, solid blobs), so the classes separate in
local-descriptor space and not only by layout.
"""

import math
from dataclasses import dataclass

import numpy as np

from .volume import Volume4D, VolumeError, plane_from_center

# Primitive tuples:
#   ("blob", du, dv, sigma, amp)
#   ("bar",  du, dv, length_sigma, thickness_sigma, angle, amp)
#   ("ring", radius, radial_sigma, amp, du, dv)
# Index 0 is the primitive perturbed in abnormal volumes.
def _hexagon(radius):
    return [(radius * math.cos(math.pi * k / 3.0),
             radius * math.sin(math.pi * k / 3.0)) for k in range(6)]


def _cross(du, dv, amp=0.9):
    return [("bar", du, dv, 4.5, 2.0, math.pi / 4, amp),
            ("bar", du, dv, 4.5, 2.0, -math.pi / 4, amp)]


# Per-class primitive sets: arrays of blob-scale marks whose local shape
# differs between classes (crosses / hollow rings / solid blobs).
# Mark scales stay at or above the static detector's scale floor (sigma ~2),
# and no class is streak-like (oblique slices through any pattern already
# produce elongated streaks, so bars would collide with hard negatives).
PATTERN_TEMPLATES = [
    sum((_cross(du, dv) for du, dv in _hexagon(11.0) + [(0.0, 0.0)]), []),
    [("ring", 5.5, 1.4, 0.9, du, dv) for du, dv in _hexagon(11.0) + [(0.0, 0.0)]],
    [("blob", du, dv, 3.0, 1.0) for du, dv in _hexagon(13.0) + [(0.0, 0.0)]],
]

NORMAL_SIGMA = 1.8  # out-of-plane thickness of every primitive; kept thin so
                    # oblique slices through a pattern leave little stray mass
PATTERN_EXTENT = 20.0  # in-plane half extent covered by any template
PATTERN_SHIFT = 11.0  # in-plane distance of each class's pattern from the
                      # plane center, so co-located planes separate spatially

BACKGROUND = 0.08
SLAB_BYTES = 512 << 10  # bytes of one pattern-box z-slab over all frames: L2-sized
NOISE_CHUNK = 1 << 16  # noise values drawn at a time


def _class_shift(class_id):
    ang = 2.0 * math.pi * class_id / 3.0 + 0.4
    return PATTERN_SHIFT * math.cos(ang), PATTERN_SHIFT * math.sin(ang)


@dataclass(frozen=True)
class PhantomSpec:
    class_count: int = 3
    abnormal: bool = False
    noise_sigma: float = 0.02
    seed: int = 0
    dims: tuple = (64, 64, 64)
    n_frames: int = 8
    gt_planes: dict = None  # optional {class_id: PlaneParams} override

    def __post_init__(self):
        if self.class_count < 1:
            raise VolumeError("class_count must be >= 1")
        if self.class_count > len(PATTERN_TEMPLATES):
            raise VolumeError(
                "class_count=%d exceeds the %d available pattern templates"
                % (self.class_count, len(PATTERN_TEMPLATES))
            )
        if self.noise_sigma < 0:
            raise VolumeError("noise_sigma must be >= 0")


def _default_gt_planes(spec, rng):
    """Well-separated oblique planes through the volume interior."""
    nx, ny, nz = spec.dims
    center = np.array([(nx - 1) / 2.0, (ny - 1) / 2.0, (nz - 1) / 2.0])
    planes = {}
    normals = []
    for k in range(spec.class_count):
        while True:
            n = rng.normal(size=3)
            n /= np.linalg.norm(n)
            if all(abs(float(np.dot(n, m))) < 0.8 for m in normals):
                break
        normals.append(n)
        off = rng.uniform(-0.08, 0.08) * min(spec.dims)
        planes[k] = plane_from_center(center + off * n, n,
                                      width=min(nx, 64), height=min(ny, 64))
    return planes


def _perturb(primitive, class_id):
    """Abnormality: shift/reshape the first primitive of the pattern."""
    kind = primitive[0]
    if kind == "blob":
        _, du, dv, sigma, amp = primitive
        return ("blob", du + 5.0, dv + 3.0, sigma * 1.7, amp)
    if kind == "bar":
        _, du, dv, ls, ts, ang, amp = primitive
        return ("bar", du, dv - 5.0, ls, ts, ang + math.radians(35.0), amp)
    if kind == "ring":
        _, radius, rs, amp, du, dv = primitive
        return ("ring", radius * 0.65, rs * 1.6, amp, du, dv)
    raise VolumeError("unknown primitive %r" % kind)


def synth_phantom(spec):
    """Build a pulsating multi-class phantom volume.

    Returns (Volume4D, {class_id: PlaneParams}) with the exact ground-truth
    plane of each class's pattern. Identical spec + seed reproduce the volume
    bit-exactly; the abnormal flag only alters the perturbed primitive's
    neighborhood. Each mark is a fixed field scaled per frame by its class's
    pulse.
    """
    rng = np.random.default_rng(spec.seed)
    gt = dict(spec.gt_planes) if spec.gt_planes else _default_gt_planes(spec, rng)
    nx, ny, nz = spec.dims
    t_count = spec.n_frames
    vox = np.full((t_count, nz, ny, nx), BACKGROUND, dtype=np.float64)

    for k in range(spec.class_count):
        plane = gt[k]
        phase = rng.uniform(0.0, 2.0 * math.pi)
        jitter = rng.uniform(-0.25, 0.25, size=2)
        # one slow pulse cycle per sequence: faster cycles are averaged out by
        # the space-time detector's temporal scales and leave no interest
        # points; class identity is carried by mark shape, not pulse rate.
        # math.sin, not np.sin, whose last ulp can differ
        pulse = np.array([0.7 + 0.3 * math.sin(2.0 * math.pi * t / t_count + phase)
                          for t in range(t_count)])[:, None, None, None]
        marks = [_perturb(mark, k) if spec.abnormal and b == 0 else mark
                 for b, mark in enumerate(PATTERN_TEMPLATES[k])]
        box, pu, pv, pn = _pattern_coords(vox.shape[1:], plane, _class_shift(k), jitter)
        # one z-slab of the pattern box at a time, summed in an L2-sized copy;
        # every mark shares the slab's out-of-plane term, and marks with one
        # centre (a cross's two bars) share its in-plane offsets
        block = vox[(slice(None),) + box]
        step = max(1, SLAB_BYTES // max(1, block[:, :1].nbytes))
        for lo in range(0, block.shape[1], step):
            z = slice(lo, lo + step)
            total = block[:, z].copy()
            term = np.empty_like(total)
            thick = pn[z] ** 2 / (2 * NORMAL_SIGMA ** 2)
            centre = None
            for mark in marks:
                if _centre(mark) != centre:
                    centre = _centre(mark)
                    du, dv = pu[z] - centre[0], pv[z] - centre[1]
                total += np.multiply(pulse, _primitive_field(mark, du, dv, thick), out=term)
            block[:, z] = total

    # each chunk is clipped while it is in cache; sigma * z: rng.normal's
    # 0.0 + sigma * z differs only in the sign of a zero
    flat, chunk = vox.reshape(-1), np.empty(min(NOISE_CHUNK, vox.size))
    for lo in range(0, flat.size, chunk.size):
        span = flat[lo:lo + chunk.size]
        if spec.noise_sigma > 0:
            part = rng.standard_normal(out=chunk[:span.size])
            span += np.multiply(part, spec.noise_sigma, out=part)
        np.clip(span, 0.0, 1.0, out=span)
    return Volume4D(voxels=vox, spacing=(1.0, 1.0, 1.0)), gt


def _pattern_coords(shape, plane, shift, jitter):
    """Axis-aligned bounding box around the pattern, and the in-plane (pu, pv)
    and out-of-plane (pn) coordinates of its voxels."""
    nz, ny, nx = shape
    c = (np.asarray(plane.center) + shift[0] * np.asarray(plane.axis_u)
         + shift[1] * np.asarray(plane.axis_v))
    r = PATTERN_EXTENT + 4.0 * NORMAL_SIGMA
    x0, x1 = max(0, int(c[0] - r)), min(nx, int(c[0] + r) + 1)
    y0, y1 = max(0, int(c[1] - r)), min(ny, int(c[1] + r) + 1)
    z0, z1 = max(0, int(c[2] - r)), min(nz, int(c[2] + r) + 1)
    # each voxel's offset from c, (x, y, z) last, written once by broadcasting
    rel = np.empty((z1 - z0, y1 - y0, x1 - x0, 3))
    rel[..., 0] = np.arange(x0, x1) - c[0]
    rel[..., 1] = (np.arange(y0, y1) - c[1])[:, None]
    rel[..., 2] = (np.arange(z0, z1) - c[2])[:, None, None]
    box = (slice(z0, z1), slice(y0, y1), slice(x0, x1))
    return (box, rel @ np.asarray(plane.axis_u) - jitter[0],
            rel @ np.asarray(plane.axis_v) - jitter[1], rel @ plane.normal)


def _centre(primitive):
    """The (du, dv) centre of a mark."""
    return primitive[4:6] if primitive[0] == "ring" else primitive[1:3]


def _primitive_field(primitive, du, dv, thick):
    """One mark's intensity, given the in-plane offsets (pu - du, pv - dv)
    from its centre and the out-of-plane term pn ** 2 / (2 NORMAL_SIGMA ** 2).

    Evaluates amp * exp(-(q + thick)) step by step in q's own buffer: numpy
    reuses an expression's temporaries only from 256 kB, and one slab's
    field is SLAB_BYTES / frames, 64 kB at 8 frames. Rounding is symmetric
    in sign, so dividing by the negated scale and subtracting give the
    negated terms and sums bit for bit, without a pass that negates."""
    kind = primitive[0]
    if kind == "blob":
        _, _, _, sigma, amp = primitive
        q = du ** 2
        q += dv ** 2
        q /= -(2 * sigma ** 2)
    elif kind == "bar":
        _, _, _, ls, ts, ang, amp = primitive
        q = du * math.cos(ang)
        q += dv * math.sin(ang)
        b = dv * math.cos(ang)
        b -= du * math.sin(ang)
        np.square(q, out=q)
        q /= -(2 * ls ** 2)
        np.square(b, out=b)
        b /= -(2 * ts ** 2)
        q += b
    elif kind == "ring":
        _, radius, rs, amp, _, _ = primitive
        q = du ** 2
        q += dv ** 2
        np.sqrt(q, out=q)
        q -= radius
        np.square(q, out=q)
        q /= -(2 * rs ** 2)
    else:
        raise VolumeError("unknown primitive %r" % kind)
    q -= thick
    np.exp(q, out=q)
    q *= amp
    return q
