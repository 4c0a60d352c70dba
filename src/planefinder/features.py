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


def _octave_extrema(dogs, gaussians, octave, contrast_threshold):
    factor = 2.0 ** octave
    maxf = ndimage.maximum_filter(dogs, size=3, mode="nearest")
    minf = ndimage.minimum_filter(dogs, size=3, mode="nearest")
    found = []
    for level in range(1, SCALES_PER_OCTAVE + 1):
        d = dogs[level]
        is_ext = ((d == maxf[level]) | (d == minf[level])) & (np.abs(d) >= contrast_threshold)
        is_ext[:2, :] = is_ext[-2:, :] = False
        is_ext[:, :2] = is_ext[:, -2:] = False
        ys, xs = np.nonzero(is_ext)
        if ys.size == 0:
            continue
        dxx = d[ys, xs + 1] + d[ys, xs - 1] - 2 * d[ys, xs]
        dyy = d[ys + 1, xs] + d[ys - 1, xs] - 2 * d[ys, xs]
        dxy = 0.25 * (d[ys + 1, xs + 1] - d[ys + 1, xs - 1]
                      - d[ys - 1, xs + 1] + d[ys - 1, xs - 1])
        tr = dxx + dyy
        det = dxx * dyy - dxy * dxy
        edge_ok = (det > 0) & (tr * tr / np.where(det > 0, det, 1.0)
                               < (EDGE_RATIO + 1.0) ** 2 / EDGE_RATIO)
        sigma = SIGMA0 * 2.0 ** (octave + level / SCALES_PER_OCTAVE)
        grad_img = gaussians[level]
        for y, x in zip(ys[edge_ok], xs[edge_ok]):
            ori = _dominant_orientation(grad_img, x, y, SIGMA0 * 2.0 ** (level / SCALES_PER_OCTAVE))
            if ori is None:
                continue
            found.append(KeyPoint2D(x=float(x) * factor, y=float(y) * factor,
                                    scale=sigma, orientation=ori))
    return found


def _dominant_orientation(img, x, y, sigma, n_bins=36):
    # _octave_extrema clears a 2-pixel border, so the window spans >= 3 pixels
    radius = max(2, int(round(3.0 * 1.5 * sigma)))
    ny, nx = img.shape
    y0, y1 = max(1, y - radius), min(ny - 1, y + radius + 1)
    x0, x1 = max(1, x - radius), min(nx - 1, x + radius + 1)
    patch = img[y0 - 1:y1 + 1, x0 - 1:x1 + 1]
    gy, gx = np.gradient(patch)
    gy = gy[1:-1, 1:-1]
    gx = gx[1:-1, 1:-1]
    mag = np.hypot(gx, gy)
    if mag.sum() < DEGENERATE_ENERGY:
        return None
    ang = np.mod(np.arctan2(gy, gx), 2.0 * math.pi)
    yy, xx = np.mgrid[y0:y1, x0:x1]
    w = np.exp(-((xx - x) ** 2 + (yy - y) ** 2) / (2.0 * (1.5 * sigma) ** 2))
    hist = np.zeros(n_bins)
    bins = np.minimum((ang / (2.0 * math.pi) * n_bins).astype(int), n_bins - 1)
    np.add.at(hist, bins.ravel(), (mag * w).ravel())
    best = int(np.argmax(hist))
    return (best + 0.5) * 2.0 * math.pi / n_bins


def describe_static(image, keypoints):
    """128-D gradient-orientation descriptors: 4x4 grid x 8 bins, rotated to
    the keypoint orientation, clamped at 0.2 and re-normalized."""
    img = np.asarray(image, dtype=np.float64)
    gy, gx = np.gradient(img)
    out = []
    for kp in keypoints:
        out.append(_static_descriptor(img, gx, gy, kp))
    return out


def _static_descriptor(img, gx, gy, kp, n_samples=16):
    ny, nx = img.shape
    half_width = 8.0 * kp.scale
    cos_o = math.cos(kp.orientation)
    sin_o = math.sin(kp.orientation)
    # sample grid in the rotated keypoint frame, spacing = scale
    lin = (np.arange(n_samples) - (n_samples - 1) / 2.0) * kp.scale
    su, sv = np.meshgrid(lin, lin)
    px = kp.x + su * cos_o - sv * sin_o
    py = kp.y + su * sin_o + sv * cos_o
    inside = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
    if not inside.any():
        raise FeatureError("keypoint patch fully outside image")
    vx = np.where(inside, ndimage.map_coordinates(gx, (py, px), order=1, mode="nearest"), 0.0)
    vy = np.where(inside, ndimage.map_coordinates(gy, (py, px), order=1, mode="nearest"), 0.0)
    mag = np.hypot(vx, vy)
    if float((mag ** 2).sum()) < DEGENERATE_ENERGY:
        return Descriptor(values=np.zeros(STATIC_DESCRIPTOR_DIM), degenerate=True)
    ang = np.mod(np.arctan2(vy, vx) - kp.orientation, 2.0 * math.pi)
    obin = np.minimum((ang / (2.0 * math.pi) * 8).astype(int), 7)
    cell_r = np.minimum(np.arange(n_samples) * 4 // n_samples, 3)
    cell = cell_r[:, None] * 4 + cell_r[None, :]
    weight = mag * np.exp(-(su ** 2 + sv ** 2) / (2.0 * half_width ** 2))
    hist = np.zeros((16, 8))
    np.add.at(hist, (cell.ravel(), obin.ravel()), weight.ravel())
    vec = hist.ravel()
    vec = vec / np.linalg.norm(vec)
    vec = np.minimum(vec, 0.2)
    vec = vec / np.linalg.norm(vec)
    return Descriptor(values=vec, degenerate=False)


def detect_spacetime_points(seq, k=HARRIS_K, scales=SPACETIME_SCALES):
    """Harris3D maxima of det(mu) - k * trace(mu)^3 over (x, y, t)."""
    frames = np.asarray(seq.frames, dtype=np.float64)
    t_count = frames.shape[0]
    if t_count < 5:
        raise FeatureError("need at least 5 frames for spatio-temporal detection")

    points = []
    for sigma_s, sigma_t in scales:
        response = _harris_response(frames, (sigma_t, sigma_s, sigma_s), k)
        threshold = max(float(response.mean() + 3.0 * response.std()), 1e-18)
        local_max = response == ndimage.maximum_filter(response, size=3, mode="nearest")
        mask = local_max & (response >= threshold) & (response > 0)
        mask[:, :2, :] = mask[:, -2:, :] = False
        mask[:, :, :2] = mask[:, :, -2:] = False
        ts, ys, xs = np.nonzero(mask)
        for t, y, x in zip(ts, ys, xs):
            points.append(SpaceTimePoint(x=float(x), y=float(y), t=float(t),
                                         sigma_s=sigma_s, sigma_t=sigma_t))
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
    histogram over a (6 sigma_s, 6 sigma_s, 6 sigma_t) window."""
    frames = np.asarray(seq.frames, dtype=np.float64)
    gt, gy, gx = np.gradient(frames)
    out = []
    for pt in points:
        out.append(_spacetime_descriptor(frames.shape, gx, gy, gt, pt))
    return out


def _spacetime_descriptor(shape, gx, gy, gt, pt):
    t_count, ny, nx = shape
    rs = max(2, int(round(3.0 * pt.sigma_s)))
    rt = max(1, int(round(3.0 * pt.sigma_t)))
    cx, cy, ct = int(round(pt.x)), int(round(pt.y)), int(round(pt.t))
    x0, x1 = cx - rs, cx + rs
    y0, y1 = cy - rs, cy + rs
    t0, t1 = ct - rt, ct + rt
    if x1 < 0 or x0 >= nx or y1 < 0 or y0 >= ny or t1 < 0 or t0 >= t_count:
        raise FeatureError("spacetime window fully outside the sequence")

    hist = np.zeros((2, 2, 2, N_AZIMUTH * N_ELEVATION))
    tt, yy, xx = np.meshgrid(np.arange(t0, t1 + 1), np.arange(y0, y1 + 1),
                             np.arange(x0, x1 + 1), indexing="ij")
    inside = ((xx >= 0) & (xx < nx) & (yy >= 0) & (yy < ny)
              & (tt >= 0) & (tt < t_count))
    ti = np.clip(tt, 0, t_count - 1)
    yi = np.clip(yy, 0, ny - 1)
    xi = np.clip(xx, 0, nx - 1)
    vx = np.where(inside, gx[ti, yi, xi], 0.0)
    vy = np.where(inside, gy[ti, yi, xi], 0.0)
    vt = np.where(inside, gt[ti, yi, xi], 0.0)
    mag = np.sqrt(vx ** 2 + vy ** 2 + vt ** 2)
    energy = float((mag ** 2).sum())
    if energy < DEGENERATE_ENERGY:
        return Descriptor(values=np.zeros(SPACETIME_DESCRIPTOR_DIM), degenerate=True)

    azim = np.mod(np.arctan2(vy, vx), 2.0 * math.pi)
    elev = np.arctan2(vt, np.hypot(vx, vy))  # in [-pi/2, pi/2]
    abin = np.minimum((azim / (2.0 * math.pi) * N_AZIMUTH).astype(int), N_AZIMUTH - 1)
    ebin = np.minimum(((elev + math.pi / 2) / math.pi * N_ELEVATION).astype(int),
                      N_ELEVATION - 1)
    cell_x = ((xx - x0) * 2 // (2 * rs + 1)).clip(0, 1)
    cell_y = ((yy - y0) * 2 // (2 * rs + 1)).clip(0, 1)
    cell_t = ((tt - t0) * 2 // (2 * rt + 1)).clip(0, 1)
    np.add.at(hist, (cell_t.ravel(), cell_y.ravel(), cell_x.ravel(),
                     (ebin * N_AZIMUTH + abin).ravel()), mag.ravel())
    vec = hist.ravel()
    vec = vec / np.linalg.norm(vec)
    return Descriptor(values=vec, degenerate=False)
