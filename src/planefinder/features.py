"""Static and spatio-temporal interest point detection and description."""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

STATIC_DESCRIPTOR_DIM = 128
SPACETIME_DESCRIPTOR_DIM = 192

CONTRAST_THRESHOLD = 0.03
EDGE_RATIO = 10.0
N_OCTAVES = 3
SCALES_PER_OCTAVE = 3
SIGMA0 = 1.6
_OCTAVE_SIGMAS = tuple(SIGMA0 * 2.0 ** (i / SCALES_PER_OCTAVE)
                       for i in range(SCALES_PER_OCTAVE + 3))

HARRIS_K = 0.005
SPACETIME_SCALES = ((2.0, 2.0), (2.0, 4.0), (4.0, 2.0), (4.0, 4.0))

DEGENERATE_ENERGY = 1e-9
# bytes of gathered gradients one describe_spacetime block may hold; the
# block's other temporaries bring its peak to about 2.6 times this
SPACETIME_BLOCK_BYTES = 12 << 20


class FeatureError(Exception):
    pass


@dataclass(frozen=True)
class KeyPoint2D:
    x: float
    y: float
    scale: float
    orientation: float


@dataclass(frozen=True)
class SpaceTimePoint:
    x: float
    y: float
    t: float
    sigma_s: float
    sigma_t: float


@dataclass(frozen=True)
class Descriptor:
    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def detect_static_keypoints(image, contrast_threshold=CONTRAST_THRESHOLD):
    """DoG scale-space extrema with contrast and edge-response rejection."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or min(img.shape) < 32:
        raise FeatureError("image must be 2D and at least 32x32")

    keypoints = []
    base = img
    for octave in range(N_OCTAVES):
        if min(base.shape) < 16:
            break
        gaussians = np.stack([_gaussian_nearest(base, (sigma, sigma))
                              for sigma in _OCTAVE_SIGMAS])
        dogs = np.diff(gaussians, axis=0)
        keypoints.extend(_octave_extrema(dogs, gaussians, octave, contrast_threshold))
        base = base[::2, ::2]
    return keypoints


@functools.lru_cache(maxsize=64)
def _gaussian_operator(n, sigma):
    """(n, n) matrix G with G @ x == gaussian_filter1d(x, sigma, mode="nearest")."""
    op = ndimage.gaussian_filter1d(np.eye(n), sigma, axis=0, mode="nearest")
    op.flags.writeable = False
    return op


def _gaussian_nearest(arr, sigmas):
    """ndimage.gaussian_filter(arr, sigmas, mode="nearest") over the trailing
    len(sigmas) axes, applied as products with cached 1-D operator matrices."""
    out = np.asarray(arr, dtype=np.float64)
    shape = out.shape
    for axis, sigma in zip(range(out.ndim - len(sigmas), out.ndim), sigmas):
        n = shape[axis]
        op = _gaussian_operator(n, float(sigma))
        inner = math.prod(shape[axis + 1:])
        if inner == 1:
            out = out.reshape(-1, n) @ op.T
        else:
            out = op @ out.reshape(-1, n, inner)
        out = out.reshape(shape)
    return out


# (level or t, y, x) offsets of a point's 3x3x3 neighbourhood, itself included
_NEIGHBOURS = np.mgrid[-1:2, -1:2, -1:2].reshape(3, 27)


def _octave_extrema(dogs, gaussians, octave, contrast_threshold):
    """Keypoints of one octave, level by level in row-major order.

    Only pixels with |d| >= contrast_threshold off the 2-pixel border can be
    kept, so just their 27 neighbours are gathered; they all lie inside the
    stack, so the max/min comparisons are those of a size-3 filter with
    mode="nearest", ties included."""
    factor = 2.0 ** octave
    ls, ys, xs = np.nonzero(np.abs(dogs[1:-1, 2:-2, 2:-2]) >= contrast_threshold)
    ls, ys, xs = ls + 1, ys + 2, xs + 2
    near = dogs[(ls[:, None] + _NEIGHBOURS[0], ys[:, None] + _NEIGHBOURS[1],
                 xs[:, None] + _NEIGHBOURS[2])]
    d = near[:, 13]
    keep = (d == near.max(axis=1)) | (d == near.min(axis=1))
    ls, ys, xs = ls[keep], ys[keep], xs[keep]
    c = near[keep, 9:18].reshape(-1, 3, 3)  # own level, indexed [dy + 1, dx + 1]
    d = c[:, 1, 1]
    dxx = c[:, 1, 2] + c[:, 1, 0] - 2 * d
    dyy = c[:, 2, 1] + c[:, 0, 1] - 2 * d
    dxy = 0.25 * (c[:, 2, 2] - c[:, 2, 0] - c[:, 0, 2] + c[:, 0, 0])
    tr = dxx + dyy
    det = dxx * dyy - dxy * dxy
    edge_ok = (det > 0) & (tr * tr / np.where(det > 0, det, 1.0)
                           < (EDGE_RATIO + 1.0) ** 2 / EDGE_RATIO)
    found = []
    for level in range(1, SCALES_PER_OCTAVE + 1):
        at_level = edge_ok & (ls == level)
        if not at_level.any():
            continue
        y, x = ys[at_level], xs[at_level]
        ori, ok = _orientations(gaussians[level], y, x,
                                SIGMA0 * 2.0 ** (level / SCALES_PER_OCTAVE))
        sigma = SIGMA0 * 2.0 ** (octave + level / SCALES_PER_OCTAVE)
        found.extend(KeyPoint2D(x=float(xi) * factor, y=float(yi) * factor,
                                scale=sigma, orientation=float(oi))
                     for xi, yi, oi in zip(x[ok], y[ok], ori[ok]))
    return found


def _orientations(img, ys, xs, sigma, n_bins=36):
    """Dominant gradient orientation at each (ys, xs) of img, and whether its
    window holds any gradient: the peak of a Gaussian-weighted n_bins-bin
    histogram of central differences over a window clipped to [1, n - 1).

    _octave_extrema clears a 2-pixel border, so every window spans >= 3 pixels.
    """
    radius = max(2, int(round(3.0 * 1.5 * sigma)))
    ny, nx = img.shape
    gy, gx = np.gradient(img)
    off = np.arange(-radius, radius + 1)
    wy = ys[:, None, None] + off[:, None]
    wx = xs[:, None, None] + off
    inside = (wy >= 1) & (wy < ny - 1) & (wx >= 1) & (wx < nx - 1)
    pick = (wy * nx + wx)[inside]
    point = np.broadcast_to(np.arange(ys.size)[:, None, None], inside.shape)[inside]
    vy, vx = gy.ravel()[pick], gx.ravel()[pick]
    mag = np.hypot(vx, vy)
    ok = ~(np.bincount(point, weights=mag, minlength=ys.size) < DEGENERATE_ENERGY)
    ang = np.mod(np.arctan2(vy, vx), 2.0 * math.pi)
    bins = np.minimum((ang / (2.0 * math.pi) * n_bins).astype(int), n_bins - 1)
    w = np.exp(-(off[None, :] ** 2 + off[:, None] ** 2) / (2.0 * (1.5 * sigma) ** 2))
    weight = mag * np.broadcast_to(w, inside.shape)[inside]
    hist = np.bincount(point * n_bins + bins, weights=weight, minlength=ys.size * n_bins)
    best = hist.reshape(ys.size, n_bins).argmax(axis=1)
    return (best + 0.5) * 2.0 * math.pi / n_bins, ok


def _unit_rows(rows):
    """rows scaled to unit length, each norm the BLAS dot np.linalg.norm takes
    of one vector (a stacked 1 x d @ d x 1 matmul is one dot per row)."""
    return rows / np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]


def describe_static(image, keypoints):
    """128-D gradient-orientation descriptors: 4x4 grid x 8 bins, rotated to
    the keypoint orientation, clamped at 0.2 and re-normalized."""
    img = np.asarray(image, dtype=np.float64)
    if not keypoints:
        return []
    gy, gx = np.gradient(img)
    ny, nx = img.shape
    n, n_samples = len(keypoints), 16
    kx, ky, scale, ori, cos_o, sin_o = np.array(
        [(kp.x, kp.y, kp.scale, kp.orientation, math.cos(kp.orientation),
          math.sin(kp.orientation)) for kp in keypoints]).T[:, :, None, None]
    # sample grid in the rotated keypoint frame, spacing = scale
    lin = (np.arange(n_samples) - (n_samples - 1) / 2.0) * scale.reshape(n, 1)
    su, sv = lin[:, None, :], lin[:, :, None]
    px = kx + su * cos_o - sv * sin_o
    py = ky + su * sin_o + sv * cos_o
    inside = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
    if not inside.any(axis=(1, 2)).all():
        raise FeatureError("keypoint patch fully outside image")
    vx = np.where(inside, ndimage.map_coordinates(gx, (py, px), order=1, mode="nearest"), 0.0)
    vy = np.where(inside, ndimage.map_coordinates(gy, (py, px), order=1, mode="nearest"), 0.0)
    mag = np.hypot(vx, vy)
    ok = ~((mag ** 2).reshape(n, -1).sum(axis=1) < DEGENERATE_ENERGY)
    ang = np.mod(np.arctan2(vy, vx) - ori, 2.0 * math.pi)
    obin = np.minimum((ang / (2.0 * math.pi) * 8).astype(int), 7)
    cell_r = np.minimum(np.arange(n_samples) * 4 // n_samples, 3)
    cell = np.arange(n)[:, None, None] * 16 + cell_r[:, None] * 4 + cell_r
    half_width = 8.0 * scale
    weight = mag * np.exp(-(su ** 2 + sv ** 2) / (2.0 * half_width ** 2))
    hist = np.bincount((cell * 8 + obin).ravel(), weights=weight.ravel(),
                       minlength=n * STATIC_DESCRIPTOR_DIM).reshape(n, STATIC_DESCRIPTOR_DIM)
    vals = np.zeros_like(hist)
    vals[ok] = _unit_rows(np.minimum(_unit_rows(hist[ok]), 0.2))
    return [Descriptor(values=v, degenerate=not k) for v, k in zip(vals, ok)]


def detect_spacetime_points(seq, k=HARRIS_K, scales=SPACETIME_SCALES):
    """Harris3D maxima of det(mu) - k * trace(mu)^3 over (x, y, t).

    A point is kept when its response reaches the threshold and equals the
    maximum of its 27 neighbours, gathered only for the pixels that reach it;
    t is clipped as mode="nearest" does, and the cleared 2-pixel border keeps
    y and x inside."""
    frames = np.asarray(seq.frames, dtype=np.float64)
    t_count = frames.shape[0]
    if t_count < 5:
        raise FeatureError("need at least 5 frames for spatio-temporal detection")

    points = []
    for sigma_s, sigma_t in scales:
        response = _harris_response(frames, (sigma_t, sigma_s, sigma_s), k)
        threshold = max(float(response.mean() + 3.0 * response.std()), 1e-18)
        inner = response[:, 2:-2, 2:-2]
        ts, ys, xs = np.nonzero((inner >= threshold) & (inner > 0))
        ys, xs = ys + 2, xs + 2
        near = response[(np.clip(ts[:, None] + _NEIGHBOURS[0], 0, t_count - 1),
                         ys[:, None] + _NEIGHBOURS[1], xs[:, None] + _NEIGHBOURS[2])]
        keep = response[ts, ys, xs] == near.max(axis=1)
        points.extend(SpaceTimePoint(x=float(x), y=float(y), t=float(t),
                                     sigma_s=sigma_s, sigma_t=sigma_t)
                      for t, y, x in zip(ts[keep], ys[keep], xs[keep]))
    return points


def _harris_response(frames, sigmas, k):
    """det(mu) - k * trace(mu)^3 of the structure tensor mu at one scale.

    The six gradient products are formed and filtered one at a time: stacking
    them keeps all six and their filter passes alive at once, which raised the
    process's peak RSS by 5-15% at desk scale for no speed gain.
    """
    gt, gy, gx = np.gradient(_gaussian_nearest(frames, sigmas))
    xx, yy, tt, xy, xt, yt = [
        _gaussian_nearest(a * b, sigmas)
        for a, b in ((gx, gx), (gy, gy), (gt, gt), (gx, gy), (gx, gt), (gy, gt))]
    det = (xx * (yy * tt - yt ** 2)
           - xy * (xy * tt - yt * xt)
           + xt * (xy * yt - yy * xt))
    return det - k * (xx + yy + tt) ** 3


# 24 orientation bins for 3D gradients: 8 azimuth x 3 elevation.
N_AZIMUTH = 8
N_ELEVATION = 3


def describe_spacetime(seq, points):
    """192-D descriptors: 2x2x2 spatio-temporal grid x 24-bin 3D orientation
    histogram over a (6 sigma_s, 6 sigma_s, 6 sigma_t) window.

    Points whose windows share a shape are described together, in blocks
    whose gathered gradients stay within SPACETIME_BLOCK_BYTES."""
    frames = np.asarray(seq.frames, dtype=np.float64)
    if not points:
        return []
    grads = np.stack(np.gradient(frames))  # d/dt, d/dy, d/dx
    radii = np.array([(max(1, int(round(3.0 * p.sigma_t))), max(2, int(round(3.0 * p.sigma_s))))
                      for p in points])
    centres = np.array([(int(round(p.t)), int(round(p.y)), int(round(p.x))) for p in points])
    reach = radii[:, [0, 1, 1]]
    if np.any((centres + reach < 0) | (centres - reach >= frames.shape)):
        raise FeatureError("spacetime window fully outside the sequence")

    vals = np.zeros((len(points), SPACETIME_DESCRIPTOR_DIM))
    ok = np.zeros(len(points), dtype=bool)
    for rt, rs in np.unique(radii, axis=0):
        group = np.flatnonzero((radii[:, 0] == rt) & (radii[:, 1] == rs))
        per_point = grads.itemsize * grads.shape[0] * (2 * rt + 1) * (2 * rs + 1) ** 2
        step = max(1, SPACETIME_BLOCK_BYTES // per_point)
        for lo in range(0, group.size, step):
            block = group[lo:lo + step]
            vals[block], ok[block] = _spacetime_histograms(grads, centres[block], rt, rs)
    return [Descriptor(values=v, degenerate=not k) for v, k in zip(vals, ok)]


def _spacetime_histograms(grads, centres, rt, rs):
    """Unit-length descriptors of the points at centres (n, 3) of (t, y, x)
    whose windows have radii (rt, rs, rs), and which are not degenerate."""
    n = len(centres)
    shape = grads.shape[1:]
    t, y, x = (centres[:, axis, None] + np.arange(-r, r + 1)
               for axis, r in enumerate((rt, rs, rs)))
    t, y, x = t[:, :, None, None], y[:, None, :, None], x[:, None, None, :]
    inside = ((x >= 0) & (x < shape[2]) & (y >= 0) & (y < shape[1])
              & (t >= 0) & (t < shape[0]))
    flat = np.ravel_multi_index((t, y, x), shape, mode="clip")
    vt, vy, vx = np.where(inside, grads.reshape(3, -1)[:, flat], 0.0)
    mag = np.sqrt(vx ** 2 + vy ** 2 + vt ** 2)
    ok = ~((mag ** 2).reshape(n, -1).sum(axis=1) < DEGENERATE_ENERGY)

    # a zero-magnitude sample adds +0.0 to its bin, which changes no sum, so
    # only the others are binned; windows reaching past t = 0 or T - 1 are
    # mostly such samples
    live = mag != 0
    ct, cy, cx = (np.minimum(np.arange(2 * r + 1) * 2 // (2 * r + 1), 1) for r in (rt, rs, rs))
    cell = np.arange(n)[:, None, None, None] * 8 + (ct[:, None, None] * 2 + cy[:, None]) * 2 + cx
    cell, vx, vy, vt, mag = (np.broadcast_to(a, live.shape)[live] for a in (cell, vx, vy, vt, mag))
    azim = np.mod(np.arctan2(vy, vx), 2.0 * math.pi)
    elev = np.arctan2(vt, np.hypot(vx, vy))  # in [-pi/2, pi/2]
    abin = np.minimum((azim / (2.0 * math.pi) * N_AZIMUTH).astype(int), N_AZIMUTH - 1)
    ebin = np.minimum(((elev + math.pi / 2) / math.pi * N_ELEVATION).astype(int),
                      N_ELEVATION - 1)
    hist = np.bincount(cell * N_AZIMUTH * N_ELEVATION + ebin * N_AZIMUTH + abin,
                       weights=mag, minlength=n * SPACETIME_DESCRIPTOR_DIM)
    hist = hist.reshape(n, SPACETIME_DESCRIPTOR_DIM)
    out = np.zeros_like(hist)
    out[ok] = _unit_rows(hist[ok])
    return out, ok
