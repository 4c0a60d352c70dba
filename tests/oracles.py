"""Reference implementations the tests check the product against.

Each is the direct, one-item-at-a-time form of something the product
computes in bulk: the pairwise kernel and label similarity behind the Gram
and similarity matrices, one SVM machine's decision values without a
scaler, the code width the labels allow, the objectives
the closed-form solves maximize, the per-frame plane sampler, the
bag-of-words rows from a zero-filled output,
the phantom's pattern coordinates from meshgrids, the L0 loop with every step solved (and one
screened-Poisson solve, also as a step with a complex division), the
space-time orientation bins with np.mod and np.hypot, the DoG contrast
screen and the Harris3D maxima over strided views with every neighbour
gathered, the space-time describer over the whole stack, the feature path
with a float64 copy per describer, the PGM header tokenized byte by byte,
and the synthetic timing workload of criterion 7.
"""

import math
import time
import warnings

import numpy as np
from scipy import ndimage
from scipy.fft import ifft, irfft, rfft2

from planefinder.classifier import ClassifierError, _fit_svm, kernel_matrix
from planefinder.codebook import (CodebookWarning, _assign, _descriptor_matrix,
                                  _kmeanspp_seed, _nearest)
from planefinder.embedding import EmbeddingError
from planefinder.features import (SPACETIME_BLOCK_BYTES, SPACETIME_DESCRIPTOR_DIM, _NEIGHBOURS,
                                  FeatureError, _gradient_bins, _records,
                                  _spacetime_histograms, describe_static,
                                  detect_spacetime_points, detect_static_keypoints)
from planefinder.phantom import NORMAL_SIGMA, PATTERN_EXTENT
from planefinder.pipeline import _plane_sequence
from planefinder.smoothing import (BETA_MAX, KAPPA, _laplacian_symbol, _poisson_solve,
                                   divergence, forward_diff, threshold_gradients)
from planefinder.smoothing import smooth_sequence
from planefinder.volume import VolumeError, _plane_coords


def hik(a, b):
    """Histogram intersection kernel sum_i min(a_i, b_i)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ClassifierError("length mismatch")
    if a.min() < 0 or b.min() < 0:
        raise ClassifierError("HIK requires nonnegative inputs")
    return float(np.minimum(a, b).sum())


def dual_objective(model_or_alpha, gram=None, y=None):
    """Dual value sum(alpha) - 1/2 sum alpha_i alpha_j y_i y_j K_ij."""
    alpha = np.asarray(model_or_alpha, dtype=np.float64)
    ay = alpha * y
    return float(alpha.sum() - 0.5 * ay @ gram @ ay)


def semantic_similarity(a, b):
    """0 for different plane types, else 1 + diagnosis agreement, between two
    (plane one-hot, diagnosis one-hot) pairs."""
    (plane_a, diag_a), (plane_b, diag_b) = a, b
    if len(plane_a) != len(plane_b) or len(diag_a) != len(diag_b):
        raise EmbeddingError("label dimension mismatch")
    if plane_a.index(1) != plane_b.index(1):
        return 0.0
    return 2.0 if diag_a.index(1) == diag_b.index(1) else 1.0


def label_rank(labels):
    """Rank of the centered label similarity H S H, H = I - 11^T / n, with S
    built pair by pair from (plane one-hot, diagnosis one-hot) labels: the
    most code columns that the labels determine."""
    s = np.array([[semantic_similarity(a, b) for b in labels] for a in labels])
    h = np.eye(len(labels)) - 1.0 / len(labels)
    return int(np.linalg.matrix_rank(h @ s @ h))


def embedding_objective(x, y, w_x, w_y, s, c):
    """Frobenius objective || (1/c) (X Wx)(Y Wy)^T - S ||_F^2, verbatim."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    zx = x @ w_x
    zy = y @ w_y
    if zx.shape[1] != zy.shape[1]:
        raise EmbeddingError("code lengths of the two views differ")
    resid = (zx @ zy.T) / c - s
    return float((resid ** 2).sum())


def trace_objective(x, y, w_x, w_y, s):
    """tr(Wx^T X^T S Y Wy), the quantity the closed-form solve maximizes."""
    return float(np.trace(w_x.T @ x.T @ s @ y @ w_y))


def kmeans_inertia(descriptors, cb):
    data = _descriptor_matrix([descriptors], cb.centroids.shape[1])
    _, min_d2 = _assign(data, cb.centroids, cb._sq_norms)
    return float(min_d2.sum())


def lloyd_every_row(descriptors, k, seed=0, max_iter=100):
    """train_codebook's Lloyd loop without bounds: every pass searches every
    row. Returns the centroids and the last pass's assignment."""
    data = _descriptor_matrix([descriptors])
    d = data.shape[1]
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(data, k, rng)
    assign = np.full(data.shape[0], -1)
    for _ in range(max_iter):
        c2 = (centroids ** 2).sum(axis=1)
        new_assign = _nearest(data, centroids, c2)[0]
        counts = np.bincount(new_assign, minlength=k)
        empty = list(np.flatnonzero(counts == 0))
        if empty:
            min_d2 = _assign(data, centroids, c2)[1]
        while empty:
            j = empty.pop(0)
            far = int(np.argmax(min_d2))
            old = new_assign[far]
            counts[old] -= 1
            if counts[old] == 0:
                empty.append(old)
            new_assign[far] = j
            counts[j] = 1
            min_d2[far] = -np.inf
        cell = (new_assign[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(cell, weights=data.ravel(), minlength=k * d).reshape(k, d)
        centroids = sums / counts[:, None]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    else:
        warnings.warn("k-means did not converge in max_iter=%d passes" % max_iter,
                      CodebookWarning, stacklevel=2)
    return centroids, new_assign


def plane_histograms_zero_fill(assign, sizes, k):
    """codebook.plane_histograms as first written: a zero-filled output, each
    row's counts divided by their own sum where that sum is positive."""
    hist = np.zeros((len(sizes), k))
    plane = np.repeat(np.arange(len(sizes), dtype=np.int64), np.asarray(sizes, dtype=np.int64))
    counts = np.bincount(plane * k + assign, minlength=len(sizes) * k).reshape(-1, k)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=hist, where=totals > 0)


def kmeanspp_seed_allocating(data, k, first, choose):
    """_kmeanspp_seed's direct expressions, with its first row `first` and
    each later uniform choose(cdf), given the step's cdf."""
    n = data.shape[0]
    x2 = (data ** 2).sum(axis=1)
    single = data.astype(np.float32)
    centroids = np.empty((k, data.shape[1]))
    d2 = np.full(n, np.inf)
    idx = first
    for j in range(k):
        if j:
            cdf = np.cumsum(d2 / d2.sum())
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(choose(cdf), side="right"))
        centroids[j] = data[idx]
        dj = x2 - 2.0 * (single @ single[idx]) + x2[idx]
        np.maximum(dj, 0.0, out=dj)
        dj[idx] = 0.0
        np.minimum(d2, dj, out=d2)
    return centroids


def pattern_coords_meshgrid(shape, plane, shift, jitter):
    """phantom._pattern_coords as first written: the box's voxel offsets from
    the pattern centre from three int64 meshgrids, stacked."""
    nz, ny, nx = shape
    c = (np.asarray(plane.center) + shift[0] * np.asarray(plane.axis_u)
         + shift[1] * np.asarray(plane.axis_v))
    r = PATTERN_EXTENT + 4.0 * NORMAL_SIGMA
    x0, x1 = max(0, int(c[0] - r)), min(nx, int(c[0] + r) + 1)
    y0, y1 = max(0, int(c[1] - r)), min(ny, int(c[1] + r) + 1)
    z0, z1 = max(0, int(c[2] - r)), min(nz, int(c[2] + r) + 1)
    zz, yy, xx = np.meshgrid(np.arange(z0, z1), np.arange(y0, y1), np.arange(x0, x1),
                             indexing="ij")
    rel = np.stack([xx - c[0], yy - c[1], zz - c[2]], axis=-1)
    box = (slice(z0, z1), slice(y0, y1), slice(x0, x1))
    return (box, rel @ np.asarray(plane.axis_u) - jitter[0],
            rel @ np.asarray(plane.axis_v) - jitter[1], rel @ plane.normal)


def gradient_count(img, tol=1e-6):
    """Number of pixels with a nonzero (above tol) forward gradient."""
    dx, dy = forward_diff(img)
    return int(np.count_nonzero(np.abs(dx) + np.abs(dy) > tol))


def solve_screened_poisson(img, h, v, beta):
    """Exact periodic solve of min_S ||S-I||^2 + beta(||dxS-h||^2+||dyS-v||^2)."""
    f_img = rfft2(img)
    return _poisson_solve(f_img, h, v, beta, _laplacian_symbol(*img.shape[-2:], f_img.real.dtype))


def l0_smooth_every_step(imgs, lam):
    """The L0 beta loop over a (T, H, W) stack with a transform of h and v
    at every step, also where the step keeps no gradient."""
    f_img = rfft2(imgs)
    lap = _laplacian_symbol(*imgs.shape[-2:], f_img.real.dtype)
    s = imgs
    beta = 2.0 * lam
    while beta <= BETA_MAX:
        h, v, _ = threshold_gradients(s, lam, beta)
        s = _poisson_solve(f_img, h, v, beta, lap)
        beta *= KAPPA
    return s


def poisson_solve_dividing(f_img, h, v, beta, lap):
    """The L0 loop's screened-Poisson step as first written: the right-hand
    side built out of place and divided, as complex numbers, by the real
    symbol 1 + beta * lap."""
    numer = f_img + beta * rfft2(divergence(h, v))
    return irfft(ifft(numer / (1.0 + beta * lap), axis=-2), n=h.shape[-1], axis=-1)


def sample_plane(vol, params, frame):
    """Resample one frame on the plane's pixel grid by trilinear interpolation.

    Coordinates outside the voxel grid contribute zero: "grid-constant" pads
    the volume with cval and interpolates toward it.
    """
    if frame < 0 or frame >= vol.n_frames:
        raise VolumeError("frame %d out of range [0, %d)" % (frame, vol.n_frames))
    return ndimage.map_coordinates(vol.voxels[frame], _plane_coords(params), order=1,
                                   mode="grid-constant", cval=0.0)


def gradient_bins_hypot(gt, gy, gx):
    """features._gradient_bins as first written: the azimuth wrapped by
    np.mod, the elevation taken against np.hypot(gx, gy) at every voxel."""
    mag = np.sqrt(gx ** 2 + gy ** 2 + gt ** 2)
    azim = np.mod(np.arctan2(gy, gx), 2.0 * math.pi)
    elev = np.arctan2(gt, np.hypot(gx, gy))  # in [-pi/2, pi/2]
    abin = np.minimum((azim / (2.0 * math.pi) * 8).astype(int), 7)
    ebin = np.minimum(((elev + math.pi / 2) / math.pi * 3).astype(int), 2)
    return mag, (ebin * 8 + abin).astype(np.uint8)


def contrast_pixels_nonzero(dogs, contrast_threshold):
    """features._contrast_pixels as first written: np.nonzero over the
    strided view of the inner levels off the 2-pixel border, raveled back
    into flat indices of dogs."""
    ts, ls, ys, xs = np.nonzero(np.abs(dogs[:, 1:-1, 2:-2, 2:-2]) >= contrast_threshold)
    return np.ravel_multi_index((ts, ls + 1, ys + 2, xs + 2), dogs.shape)


def harris_maxima_clipped(response, threshold):
    """features._harris_maxima as first written: np.nonzero over the strided
    view off the 2-pixel border, then all 27 neighbours of every screened
    pixel gathered, t clipped into the stack."""
    inner = response[:, 2:-2, 2:-2]
    ts, ys, xs = np.nonzero((inner >= threshold) & (inner > 0))
    ys, xs = ys + 2, xs + 2
    near = response[(np.clip(ts[:, None] + _NEIGHBOURS[0], 0, len(response) - 1),
                     ys[:, None] + _NEIGHBOURS[1], xs[:, None] + _NEIGHBOURS[2])]
    keep = response[ts, ys, xs] == near.max(axis=1)
    return ts[keep], ys[keep], xs[keep]


def describe_spacetime_full_stack(frames, points):
    """features.describe_spacetime as first written: its own float64 copy of
    the frames, and gradient bins at every voxel of the stack."""
    frames = np.asarray(frames, dtype=np.float64)
    vals = np.zeros((len(points), SPACETIME_DESCRIPTOR_DIM))
    ok = np.zeros(len(points), dtype=bool)
    if len(points) == 0:
        return _records(vals, ok)
    mag, code = _gradient_bins(*np.gradient(frames))
    x, y, t, sigma_s, sigma_t = np.asarray(points, dtype=np.float64).T
    radii = np.maximum(np.rint(3.0 * np.column_stack((sigma_t, sigma_s))), (1, 2)).astype(int)
    centres = np.rint(np.column_stack((t, y, x))).astype(int)
    reach = radii[:, [0, 1, 1]]
    if np.any((centres + reach < 0) | (centres - reach >= frames.shape)):
        raise FeatureError("spacetime window fully outside the sequence")
    for rt, rs in np.unique(radii, axis=0):
        group = np.flatnonzero((radii[:, 0] == rt) & (radii[:, 1] == rs))
        span = min(2 * rt + 1, frames.shape[0])
        per_point = (8 + mag.itemsize + code.itemsize) * span * (2 * rs + 1) ** 2
        step = max(1, SPACETIME_BLOCK_BYTES // per_point)
        for lo in range(0, group.size, step):
            block = group[lo:lo + step]
            vals[block], ok[block] = _spacetime_histograms(mag, code, centres[block], rt, rs)
    return _records(vals, ok)


def sequence_descriptors_per_describer(vol, params):
    """pipeline.sequence_descriptors as first composed: each describer runs
    right after its detector on a float64 copy of its own, the space-time
    one over the whole stack."""
    frames = smooth_sequence(_plane_sequence(vol, params)).frames
    stack = np.asarray(frames, dtype=np.float64)
    static = describe_static((stack, *np.gradient(stack, axis=(1, 2))),
                             detect_static_keypoints(frames))
    pts = detect_spacetime_points(frames) if len(frames) >= 5 else np.empty((0, 5))
    spacetime = describe_spacetime_full_stack(frames, pts)
    return static[~static.degenerate], spacetime[~spacetime.degenerate]


def pgm_header_tokens(data):
    """Up to four PGM header tokens, read one byte at a time, and the offset
    just past the last one read. Whitespace separates tokens, and a '#' that
    does not continue a token starts a comment running to the next newline."""
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
    return tokens, i


def benchmark_representations(n_train=200, n_test=2000, d_static=5000,
                              d_spacetime=1000, c=32, seed=0, svm_c=1.0):
    """Paper-scale synthetic timing comparison: classify a fixed candidate
    feature set with the compact embedded codes vs the concatenated BoW."""
    rng = np.random.default_rng(seed)
    d_cat = d_static + d_spacetime

    def random_hist(n, d):
        h = rng.random((n, d))
        return h / h.sum(axis=1, keepdims=True)

    labels = rng.integers(0, 2, size=n_train)
    z_cat_train = random_hist(n_train, d_cat)
    z_cat_train[labels == 1, :10] += 0.05
    z_cat_train /= z_cat_train.sum(axis=1, keepdims=True)
    z_cat_test = random_hist(n_test, d_cat)
    z_emb_train = rng.random((n_train, c))
    z_emb_train[labels == 1, 0] += 0.5
    z_emb_test = rng.random((n_test, c))

    y = np.where(labels == 1, 1.0, -1.0)
    timings = {}
    models = {}
    for name, z_train in (("concat", z_cat_train), ("embedded", z_emb_train)):
        t0 = time.perf_counter()
        models[name] = _fit_svm(z_train, kernel_matrix(z_train, z_train, "hik"), y, svm_c,
                                class_weights=(1.0, 1.0))
        timings[(name, "train")] = time.perf_counter() - t0
    for name, z_test in (("concat", z_cat_test), ("embedded", z_emb_test)):
        t0 = time.perf_counter()
        svm_decision(models[name], z_test, "hik")
        timings[(name, "test")] = time.perf_counter() - t0
    return timings


def svm_decision(machine, z, kernel):
    """Decision values of one machine on rows z as given (no scaler), verbatim."""
    return kernel_matrix(z, machine.support_vectors, kernel) @ machine.dual_coefs + machine.bias
