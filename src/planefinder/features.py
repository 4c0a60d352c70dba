"""Static and spatio-temporal interest point detection and description."""

import functools
import math

import numpy as np
from scipy import ndimage

from .volume import float_frames

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
# bins of the keypoint orientation histogram, 10 degrees each
ORIENTATION_BINS = 36
# bytes of gather index (8 per sample), magnitudes and orientation bins one
# describe_spacetime block may hold; the block's other temporaries bring its
# peak to about 2.2 times this
SPACETIME_BLOCK_BYTES = 12 << 20
# keypoints one describe_static block describes: the temporaries of their
# 16 x 16 samples take about 26 kB a keypoint, 1.7 MB a block
STATIC_BLOCK = 64
# pixels one extremum-test block screens by their 6 face neighbours, and at
# most as many whose 27 neighbours it then gathers: an (n, 27) index and an
# (n, 27) value array, 0.9 MB together
EXTREMUM_BLOCK = 2048
# DoG points one _orientations block takes: the temporaries of a point's
# window take about 27 kB at level 1 and 63 kB at level 3, 1.7-4 MB a block
ORIENTATION_BLOCK = 64


class FeatureError(Exception):
    pass


def detect_static_keypoints(frames):
    """DoG scale-space extrema with contrast and edge-response rejection in
    every frame of a (T, H, W) stack, or of a (P, T, H, W) stack of P planes'
    sequences, in the stack's precision.

    Returns an (n, 5) float64 array of rows (x, y, t, scale, orientation), t
    the frame index (p T + t for frame t of plane p), frame by frame; a
    frame's rows come octave by octave, level by level, in row-major order.
    Every frame is filtered on its own, so a plane's rows are the same in
    any stack of planes."""
    stack = float_frames(frames)
    if stack.ndim not in (3, 4) or min(stack.shape[-2:]) < 32:
        raise FeatureError("frames must be a (T, H, W) or (P, T, H, W) stack of frames "
                           "at least 32x32")

    keypoints = [np.empty((0, 5))]
    base = stack
    for octave in range(N_OCTAVES):
        if min(base.shape[-2:]) < 16:
            break
        gaussians = np.stack([_gaussian_nearest(base, (sigma, sigma))
                              for sigma in _OCTAVE_SIGMAS], axis=-3)
        gaussians = gaussians.reshape(-1, *gaussians.shape[-3:])
        dogs = np.diff(gaussians, axis=1)
        keypoints.append(_octave_extrema(dogs, gaussians, octave, CONTRAST_THRESHOLD))
        base = base[..., ::2, ::2]
    rows = np.concatenate(keypoints)
    return rows[np.argsort(rows[:, 2], kind="stable")]


@functools.lru_cache(maxsize=64)
def _gaussian_operator(n, sigma, dtype):
    """(n, n) matrix G with G @ x == gaussian_filter1d(x, sigma, mode="nearest"),
    computed in float64 and held in `dtype`."""
    op = ndimage.gaussian_filter1d(np.eye(n), sigma, axis=0, mode="nearest")
    op = op.astype(dtype, copy=False)
    op.flags.writeable = False
    return op


def _gaussian_nearest(arr, sigmas):
    """ndimage.gaussian_filter(arr, sigmas, mode="nearest") over the trailing
    len(sigmas) axes, applied as products with cached 1-D operator matrices in
    the precision float_frames gives arr.

    Axes before the last three index a batch of (T, H, W) stacks. BLAS may
    round a product of more rows differently, so every product keeps the
    shape it has for one stack: the x pass is one (T H, W) product per stack,
    through numpy's stacked matmul."""
    out = float_frames(arr)
    shape = out.shape
    for axis, sigma in zip(range(out.ndim - len(sigmas), out.ndim), sigmas):
        n = shape[axis]
        op = _gaussian_operator(n, float(sigma), out.dtype)
        inner = math.prod(shape[axis + 1:])
        if inner == 1:
            out = out.reshape(shape[:-3] + (-1, n)) @ op.T
        else:
            out = op @ out.reshape(-1, n, inner)
        out = out.reshape(shape)
    return out


# (level or t, y, x) offsets of a point's 3x3x3 neighbourhood, itself included
_NEIGHBOURS = np.mgrid[-1:2, -1:2, -1:2].reshape(3, 27)
# the columns of its 6 face neighbours: one step along one axis
_FACES = np.flatnonzero(np.abs(_NEIGHBOURS).sum(axis=0) == 1)


def _octave_extrema(dogs, gaussians, octave, contrast_threshold):
    """(n, 5) keypoint rows of one octave of (T, levels, h, w) stacks, level
    by level, each level frame by frame in row-major order.

    Only pixels with |d| >= contrast_threshold off the 2-pixel border can be
    kept, so just their neighbours are gathered, EXTREMUM_BLOCK pixels at a
    time through one flat index; they all lie inside the pixel's frame, so
    the max/min comparisons are those of a per-frame size-3 filter with
    mode="nearest", ties included. An extremum of the 27 is one of its 6 face
    neighbours too (Lowe, IJCV 2004), so the 27 are gathered only for pixels
    at or beyond their faces' max or min. The edge test and the orientations
    work in float64 on the gathered values."""
    factor = 2.0 ** octave
    _, _, h, w = dogs.shape
    flat = _contrast_pixels(dogs, contrast_threshold)
    values = dogs.ravel()
    offsets = np.dot((h * w, w, 1), _NEIGHBOURS)
    face_offsets = offsets[_FACES]
    keep = np.zeros(flat.size, dtype=bool)
    for lo in range(0, flat.size, EXTREMUM_BLOCK):
        block = flat[lo:lo + EXTREMUM_BLOCK]
        d = values[block]
        faces = values[block[:, None] + face_offsets]
        maybe = np.flatnonzero((d >= faces.max(axis=1)) | (d <= faces.min(axis=1)))
        near = values[block[maybe, None] + offsets]
        d = d[maybe]
        keep[lo + maybe] = (d == near.max(axis=1)) | (d == near.min(axis=1))
    flat = flat[keep]
    ts, ls, ys, xs = np.unravel_index(flat, dogs.shape)
    # own level, indexed [dy + 1, dx + 1]
    c = values[flat[:, None] + offsets[9:18]].astype(np.float64).reshape(-1, 3, 3)
    d = c[:, 1, 1]
    dxx = c[:, 1, 2] + c[:, 1, 0] - 2 * d
    dyy = c[:, 2, 1] + c[:, 0, 1] - 2 * d
    dxy = 0.25 * (c[:, 2, 2] - c[:, 2, 0] - c[:, 0, 2] + c[:, 0, 0])
    tr = dxx + dyy
    det = dxx * dyy - dxy * dxy
    edge_ok = (det > 0) & (tr * tr / np.where(det > 0, det, 1.0)
                           < (EDGE_RATIO + 1.0) ** 2 / EDGE_RATIO)
    found = [np.empty((0, 5))]
    for level in range(1, SCALES_PER_OCTAVE + 1):
        at_level = edge_ok & (ls == level)
        if not at_level.any():
            continue
        t, y, x = ts[at_level], ys[at_level], xs[at_level]
        ori, ok = _orientations(gaussians[:, level], t, y, x,
                                SIGMA0 * 2.0 ** (level / SCALES_PER_OCTAVE))
        sigma = SIGMA0 * 2.0 ** (octave + level / SCALES_PER_OCTAVE)
        found.append(np.column_stack((x[ok] * factor, y[ok] * factor, t[ok],
                                      np.full(ok.sum(), sigma), ori[ok])))
    return np.concatenate(found)


def _contrast_pixels(dogs, contrast_threshold):
    """Row-major flat indices into (T, levels, h, w) dogs of the pixels with
    |d| >= contrast_threshold on an inner level, off the 2-pixel border."""
    mask = np.abs(dogs) >= contrast_threshold
    mask[:, [0, -1]] = False
    return _flat_off_border(mask)


def _flat_off_border(mask):
    """Row-major flat indices of a (..., h, w) mask's True pixels off its
    2-pixel (y, x) border, which it clears."""
    mask[..., :2, :] = mask[..., -2:, :] = False
    mask[..., :2] = mask[..., -2:] = False
    return np.flatnonzero(mask)


def _orientations(frames, ts, ys, xs, sigma):
    """Dominant gradient orientation at each (ts, ys, xs) of a (T, h, w)
    stack, and whether its window holds any gradient: the peak of a
    Gaussian-weighted ORIENTATION_BINS-bin histogram of the frame's central
    differences over a window clipped to [1, n - 1).

    _octave_extrema clears a 2-pixel border, so every window spans >= 3 pixels.
    The differences are taken at the window pixels only, in the stack's
    precision: np.gradient's (f[i + 1] - f[i - 1]) / 2 at every pixel off
    the frame's edge. Points are taken ORIENTATION_BLOCK at a time; each
    one's histogram is its own, so the blocks change no value.
    """
    radius = max(2, int(round(3.0 * 1.5 * sigma)))
    _, ny, nx = frames.shape
    off = np.arange(-radius, radius + 1)
    w = np.exp(-(off[None, :] ** 2 + off[:, None] ** 2) / (2.0 * (1.5 * sigma) ** 2))
    f = frames.ravel()
    best = np.empty(ys.size, dtype=np.int64)
    ok = np.empty(ys.size, dtype=bool)
    for lo in range(0, ys.size, ORIENTATION_BLOCK):
        hi = min(lo + ORIENTATION_BLOCK, ys.size)
        wy = ys[lo:hi, None, None] + off[:, None]
        wx = xs[lo:hi, None, None] + off
        inside = (wy >= 1) & (wy < ny - 1) & (wx >= 1) & (wx < nx - 1)
        pick = ((ts[lo:hi, None, None] * ny + wy) * nx + wx)[inside]
        point = np.broadcast_to(np.arange(hi - lo)[:, None, None], inside.shape)[inside]
        vy = ((f[pick + nx] - f[pick - nx]) / 2).astype(np.float64)
        vx = ((f[pick + 1] - f[pick - 1]) / 2).astype(np.float64)
        mag = np.hypot(vx, vy)
        ok[lo:hi] = ~(np.bincount(point, weights=mag, minlength=hi - lo) < DEGENERATE_ENERGY)
        ang = _mod_turn(np.arctan2(vy, vx))
        bins = np.minimum((ang / (2.0 * math.pi) * ORIENTATION_BINS).astype(int),
                          ORIENTATION_BINS - 1)
        weight = mag * np.broadcast_to(w, inside.shape)[inside]
        hist = np.bincount(point * ORIENTATION_BINS + bins, weights=weight,
                           minlength=(hi - lo) * ORIENTATION_BINS)
        best[lo:hi] = hist.reshape(hi - lo, ORIENTATION_BINS).argmax(axis=1)
    return (best + 0.5) * 2.0 * math.pi / ORIENTATION_BINS, ok


def _mod_turn(ang):
    """np.mod(ang, 2 pi), bit for bit, for ang in (-4 pi, 2 pi): below -2 pi,
    fmod's add is exact (Sterbenz). Unlike np.where, no branch on each sign."""
    ang = ang + (ang < -2.0 * math.pi) * (2.0 * math.pi)
    return ang + (ang < 0) * (2.0 * math.pi)


def _unit_rows(rows):
    """rows scaled to unit length, each norm the BLAS dot np.linalg.norm takes
    of one vector (a stacked 1 x d @ d x 1 matmul is one dot per row)."""
    return rows / np.sqrt(rows[:, None, :] @ rows[:, :, None])[:, 0]


def _records(vals, ok):
    """describe_*'s read-only record array: field `values` the (n, d) rows
    `vals` (degenerate ones all zero), 8-byte aligned, field `degenerate` ~ok."""
    out = np.zeros(len(vals), np.dtype([("values", np.float64, vals.shape[1:]),
                                        ("degenerate", bool)], align=True)).view(np.recarray)
    out["values"] = vals
    out["degenerate"] = ~ok
    out.flags.writeable = False
    return out


def frame_gradients(frames):
    """(stack, gy, gx) of a (T, H, W) stack of frames, T >= 1: the stack in
    float64 and its np.gradient along y and x. Both describers read this one
    triple, so a plane is copied and differenced in (y, x) once."""
    stack = np.asarray(frames, dtype=np.float64)
    return (stack, *np.gradient(stack, axis=(1, 2)))


def describe_static(grads, keypoints):
    """128-D gradient-orientation descriptors of (n, 5) keypoint rows (x, y,
    t, scale, orientation) of a (T, H, W) stack, from its frame_gradients
    triple `grads`: 4x4 grid x 8 bins over frame t, rotated to the keypoint
    orientation, clamped at 0.2 and re-normalized.

    Keypoints are described STATIC_BLOCK at a time; each one's bins are its
    own, so the blocks change no value."""
    _, gy, gx = grads
    if len(keypoints) == 0:
        return _records(np.zeros((0, STATIC_DESCRIPTOR_DIM)), np.zeros(0, dtype=bool))
    keypoints = np.asarray(keypoints, dtype=np.float64)
    kt = keypoints[:, 2]
    if np.any((kt < 0) | (kt > gx.shape[0] - 1) | (kt != np.rint(kt))):
        raise FeatureError("keypoint t is not a frame index of the stack")
    blocks = [_static_histograms(gx, gy, keypoints[lo:lo + STATIC_BLOCK])
              for lo in range(0, len(keypoints), STATIC_BLOCK)]
    return _records(*(np.concatenate(parts) for parts in zip(*blocks)))


def _static_histograms(gx, gy, keypoints):
    """describe_static's descriptor values, and whether each is not
    degenerate, of (n, 5) keypoint rows with integer t, from the (T, H, W)
    gradients of the stack."""
    _, ny, nx = gx.shape
    n, n_samples = len(keypoints), 16
    kx, ky, kt, scale, ori = keypoints.T[:, :, None, None]
    cos_o, sin_o = np.cos(ori), np.sin(ori)
    # sample grid in the rotated keypoint frame, spacing = scale
    lin = (np.arange(n_samples) - (n_samples - 1) / 2.0) * scale.reshape(n, 1)
    su, sv = lin[:, None, :], lin[:, :, None]
    px = kx + su * cos_o - sv * sin_o
    py = ky + su * sin_o + sv * cos_o
    inside = (px >= 0) & (px <= nx - 1) & (py >= 0) & (py <= ny - 1)
    if not inside.any(axis=(1, 2)).all():
        raise FeatureError("keypoint patch fully outside image")
    vx, vy = (np.where(inside, v, 0.0) for v in _frame_samples((gx, gy), kt, py, px))
    mag = np.hypot(vx, vy)
    ok = ~((mag ** 2).reshape(n, -1).sum(axis=1) < DEGENERATE_ENERGY)
    ang = _mod_turn(np.arctan2(vy, vx) - ori)
    obin = np.minimum((ang / (2.0 * math.pi) * 8).astype(int), 7)
    cell_r = np.minimum(np.arange(n_samples) * 4 // n_samples, 3)
    cell = np.arange(n)[:, None, None] * 16 + cell_r[:, None] * 4 + cell_r
    half_width = 8.0 * scale
    weight = mag * np.exp(-(su ** 2 + sv ** 2) / (2.0 * half_width ** 2))
    hist = np.bincount((cell * 8 + obin).ravel(), weights=weight.ravel(),
                       minlength=n * STATIC_DESCRIPTOR_DIM).reshape(n, STATIC_DESCRIPTOR_DIM)
    vals = np.zeros_like(hist)
    vals[ok] = _unit_rows(np.minimum(_unit_rows(hist[ok]), 0.2))
    return vals, ok


def _frame_samples(fields, t, y, x):
    """Each (T, H, W) field of `fields` sampled at the points (t, y, x), t an
    integer. Inside the frame the samples are those of
    ndimage.map_coordinates(order=1, mode="nearest"), bit for bit: weights
    w0 = 1 - f and w1 = 1 - w0, and the terms (v * wy) * wx of frame t's 4
    corners summed from 0.0 in row-major order. The trilinear sample's other
    4 terms, of the next frame, are +-0 at an integer t and change no sum.
    Points outside the frame are clamped into it, for the caller to mask.
    One set of corners and weights serves every field."""
    _, ny, nx = fields[0].shape
    frame = np.asarray(t).astype(np.intp) * ny
    out = [np.zeros(np.broadcast(t, y, x).shape) for _ in fields]
    for row, w_row in _corners(y, ny):
        for col, w_col in _corners(x, nx):
            at = (frame + row) * nx + col
            for field, sample in zip(fields, out):
                sample += field.ravel()[at] * w_row * w_col
    return out


def _corners(c, n):
    """The two (index, weight) pairs of coordinates c clamped to [0, n - 1]."""
    c = np.clip(c, 0, n - 1)
    lo = np.floor(c)
    w = 1.0 - (c - lo)
    lo = lo.astype(np.intp)
    return (lo, w), (np.minimum(lo + 1, n - 1), 1.0 - w)


def detect_spacetime_points(frames):
    """Harris3D maxima of det(mu) - k * trace(mu)^3 over (x, y, t) of a
    (T, H, W) stack, or of each plane of a (P, T, H, W) stack of P planes'
    sequences, as an (n, 5) float64 array of rows (x, y, t, sigma_s,
    sigma_t), t the frame index (p T + t for frame t of plane p).

    Scale by scale, the rows come in row-major (p, t, y, x) order. The
    response is computed in the precision of the frames, each plane's
    filtered in its own (x, y, t), and its maxima are those of _harris_maxima
    at the plane's own threshold mean + 3 std."""
    frames = float_frames(frames)
    n_frames = frames.shape[-3]
    if n_frames < 5:
        raise FeatureError("need at least 5 frames for spatio-temporal detection")

    points = [np.empty((0, 5))]
    for sigma_s, sigma_t in SPACETIME_SCALES:
        response = _harris_response(frames, (sigma_t, sigma_s, sigma_s), HARRIS_K)
        for p, plane in enumerate(response.reshape(-1, *response.shape[-3:])):
            threshold = max(float(plane.mean() + 3.0 * plane.std()), 1e-18)
            ts, ys, xs = _harris_maxima(plane, threshold)
            points.append(np.column_stack((xs, ys, ts + p * n_frames,
                                           np.full((ts.size, 2), (sigma_s, sigma_t)))))
    return np.concatenate(points)


def _harris_maxima(response, threshold):
    """(t, y, x) indices, in row-major order, of the pixels of a (T, H, W)
    response off the 2-pixel (y, x) border that reach the threshold, are
    positive and equal the maximum of their 27 neighbours, t clamped as
    mode="nearest" does.

    The response is padded in t with its first and last frames, so every
    neighbour is one flat offset away. A maximum of the 27 is one of its 6
    face neighbours too, so the 27 are gathered only for pixels at or above
    their faces' maximum."""
    _, h, w = response.shape
    # flat indices into the padded response, one frame on
    flat = _flat_off_border((response >= threshold) & (response > 0)) + h * w
    values = np.concatenate((response[:1], response, response[-1:])).ravel()
    offsets = np.dot((h * w, w, 1), _NEIGHBOURS)
    maybe = flat[values[flat] >= values[flat[:, None] + offsets[_FACES]].max(axis=1)]
    kept = maybe[values[maybe] == values[maybe[:, None] + offsets].max(axis=1)]
    return np.unravel_index(kept - h * w, response.shape)


def _harris_response(frames, sigmas, k):
    """det(mu) - k * trace(mu)^3 of the structure tensor mu at one scale, over
    the trailing (t, y, x) axes of one stack or of each of a batch of them.

    The six gradient products are formed and filtered one at a time: stacking
    them keeps all six and their filter passes alive at once, which raised the
    process's peak RSS by 5-15% at desk scale for no speed gain.
    """
    gt, gy, gx = np.gradient(_gaussian_nearest(frames, sigmas), axis=(-3, -2, -1))
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


def describe_spacetime(grads, points):
    """192-D descriptors of (n, 5) point rows (x, y, t, sigma_s, sigma_t) of
    a (T, H, W) stack, T >= 2, from its frame_gradients triple `grads`:
    2x2x2 spatio-temporal grid x 24-bin 3D orientation histogram over a
    (6 sigma_s, 6 sigma_s, 6 sigma_t) window.

    Gradient bins are computed only inside the (y, x) box that holds every
    window, clipped to the frame, over all T frames: each box edge is a frame
    edge or lies beyond every window, so the windows read the same samples.
    Points whose windows share a shape are described together, in blocks
    whose gathers stay within SPACETIME_BLOCK_BYTES."""
    stack, gy, gx = grads
    vals = np.zeros((len(points), SPACETIME_DESCRIPTOR_DIM))
    ok = np.zeros(len(points), dtype=bool)
    if len(points) == 0:
        return _records(vals, ok)
    x, y, t, sigma_s, sigma_t = np.asarray(points, dtype=np.float64).T
    radii = np.maximum(np.rint(3.0 * np.column_stack((sigma_t, sigma_s))), (1, 2)).astype(int)
    centres = np.rint(np.column_stack((t, y, x))).astype(int)
    reach = radii[:, [0, 1, 1]]
    if np.any((centres + reach < 0) | (centres - reach >= stack.shape)):
        raise FeatureError("spacetime window fully outside the sequence")

    start = np.maximum((centres - reach)[:, 1:].min(axis=0), 0)
    stop = np.minimum((centres + reach)[:, 1:].max(axis=0) + 1, stack.shape[1:])
    box = (slice(None), slice(start[0], stop[0]), slice(start[1], stop[1]))
    mag, code = _gradient_bins(np.gradient(stack[box], axis=0),
                               np.ascontiguousarray(gy[box]), np.ascontiguousarray(gx[box]))
    centres[:, 1:] -= start
    for rt, rs in np.unique(radii, axis=0):
        group = np.flatnonzero((radii[:, 0] == rt) & (radii[:, 1] == rs))
        span = min(2 * rt + 1, stack.shape[0])
        per_point = (8 + mag.itemsize + code.itemsize) * span * (2 * rs + 1) ** 2
        step = max(1, SPACETIME_BLOCK_BYTES // per_point)
        for lo in range(0, group.size, step):
            block = group[lo:lo + step]
            vals[block], ok[block] = _spacetime_histograms(mag, code, centres[block], rt, rs)
    return _records(vals, ok)


def _gradient_bins(gt, gy, gx):
    """Each voxel's gradient magnitude and uint8 bin ebin * N_AZIMUTH + abin.
    Where r2 is normal, sqrt(r2) is a few ulps from np.hypot, which moves the
    elevation bin coordinate v under 1e-14, so v is taken again with np.hypot
    only within 1e-9 of an integer (a bin edge) and where r2 is not normal."""
    r2 = gx ** 2 + gy ** 2
    mag = np.sqrt(r2 + gt ** 2)
    azim = _mod_turn(np.arctan2(gy, gx))
    v = (np.arctan2(gt, np.sqrt(r2)) + math.pi / 2) / math.pi * N_ELEVATION
    odd = np.nonzero((np.abs(v - np.rint(v)) < 1e-9) | (r2 < 2.0 ** -1022) | (r2 == np.inf))
    v[odd] = ((np.arctan2(gt[odd], np.hypot(gx[odd], gy[odd])) + math.pi / 2)
              / math.pi * N_ELEVATION)
    abin = np.minimum((azim / (2.0 * math.pi) * N_AZIMUTH).astype(int), N_AZIMUTH - 1)
    ebin = np.minimum(v.astype(int), N_ELEVATION - 1)
    return mag, (ebin * N_AZIMUTH + abin).astype(np.uint8)


def _spacetime_histograms(mag, code, centres, rt, rs):
    """Unit-length descriptors of the points at centres (n, 3) of (t, y, x)
    whose windows have radii (rt, rs, rs), and which are not degenerate, from
    the run of min(2 rt + 1, T) frames holding each window's part of the
    sequence. Only mag and code, each voxel's magnitude and bin, are gathered."""
    n = len(centres)
    shape = mag.shape
    span = min(2 * rt + 1, shape[0])
    ct = centres[:, 0, None]
    dt = np.clip(-rt, -ct, shape[0] - span - ct) + np.arange(span)
    y, x = (centres[:, axis, None] + np.arange(-rs, rs + 1) for axis in (1, 2))
    t, y, x = (ct + dt)[:, :, None, None], y[:, None, :, None], x[:, None, None, :]
    inside = ((x >= 0) & (x < shape[2]) & (y >= 0) & (y < shape[1])
              & (np.abs(dt) <= rt)[:, :, None, None])
    flat = np.ravel_multi_index((t, y, x), shape, mode="clip")
    mag = np.where(inside, mag.reshape(-1)[flat], 0.0)
    ok = ~((mag ** 2).reshape(n, -1).sum(axis=1) < DEGENERATE_ENERGY)

    # a zero-magnitude sample would add +0.0 to its bin, which changes no
    # sum, so only the others are binned, in (t, y, x) order; samples outside
    # the frame or the window are such samples
    live = mag != 0
    cell_t = np.arange(n)[:, None] * 2 + (dt + rt) * 2 // (2 * rt + 1)
    cy = cx = np.minimum(np.arange(2 * rs + 1) * 2 // (2 * rs + 1), 1)
    cell = (cell_t[:, :, None, None] * 2 + cy[:, None]) * 2 + cx
    cell, flat = (np.broadcast_to(a, live.shape)[live] for a in (cell, flat))
    hist = np.bincount(cell * N_AZIMUTH * N_ELEVATION + code.reshape(-1)[flat],
                       weights=mag[live], minlength=n * SPACETIME_DESCRIPTOR_DIM)
    hist = hist.reshape(n, SPACETIME_DESCRIPTOR_DIM)
    out = np.zeros_like(hist)
    out[ok] = _unit_rows(hist[ok])
    return out, ok
