"""K-means visual vocabularies and bag-of-words quantization."""

import warnings
from dataclasses import dataclass

import numpy as np


# descriptors one block measures against every centroid: _nearest screens a
# block in one reused (ASSIGN_BLOCK, k) float32 buffer (5 MB at k = 5,000),
# and _assign, which decides the rows the screen leaves unsure, every row
# when float32 could overflow, and every row of a Lloyd pass that left a
# cluster empty, fills one float64 buffer of at most that shape
ASSIGN_BLOCK = 256

# _nearest's float32 screen holds |x|², |c|² and their sum below this, far
# from float32's 2^128 overflow; unit descriptors have norms near 1
SCREEN_LIMIT = 2.0 ** 100


class CodebookError(Exception):
    pass


class CodebookWarning(UserWarning):
    pass


@dataclass(frozen=True)
class Codebook:
    centroids: np.ndarray
    descriptor_kind: str = "static"

    def __post_init__(self):
        c = np.asarray(self.centroids, dtype=np.float64)
        if c.ndim != 2 or c.shape[0] == 0 or not np.isfinite(c).all():
            raise CodebookError("centroids must be a finite 2-D matrix with at least "
                                "one row, got shape %s" % (c.shape,))
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)
        # squared centroid norms for the search, computed once; not a field, so
        # equality, repr and the bundle hash see only the centroids
        c2 = (c ** 2).sum(axis=1)
        c2.flags.writeable = False
        object.__setattr__(self, "_sq_norms", c2)

    def __eq__(self, other):
        if not isinstance(other, Codebook):
            return NotImplemented
        return (self.descriptor_kind == other.descriptor_kind
                and np.array_equal(self.centroids, other.centroids))

    @property
    def k(self):
        return self.centroids.shape[0]


@dataclass(frozen=True)
class BoWHistogram:
    values: np.ndarray
    descriptor_kind: str = "static"
    empty: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _descriptor_matrix(descriptors, dim=None):
    """Stack descriptors (arrays or objects with `.values`) into a float64
    matrix; CodebookError on ragged, non-finite or (given `dim`)
    wrong-dimension rows. An empty input gives a (0, 0) matrix."""
    if len(descriptors) == 0:
        return np.zeros((0, 0))
    try:
        data = np.array([getattr(d, "values", d) for d in descriptors], dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CodebookError("descriptors are not equal-length numeric vectors: %s"
                            % exc) from exc
    if data.ndim != 2:
        raise CodebookError("descriptors must be vectors, got shape %s" % (data.shape,))
    if dim is not None and data.shape[1] != dim:
        raise CodebookError("descriptor dim %d does not match codebook dim %d"
                            % (data.shape[1], dim))
    if not np.isfinite(data).all():
        raise CodebookError("non-finite descriptor value")
    return data


def _distinct_rows(data):
    """np.unique(data, axis=0)'s row count for finite data, from one in-place
    sort of byte-string rows; adding 0.0 turns -0.0 into the +0.0 it equals."""
    rows = (data + 0.0).view(np.dtype((np.void, data.shape[1] * data.itemsize))).ravel()
    rows.sort()
    return 1 + np.count_nonzero(rows[1:] != rows[:-1])


def _assign(data, centroids, c2):
    """Nearest-centroid assignment (ties -> lowest index) and min distances;
    `c2` holds the squared centroid norms. Every block's squared distances
    are computed in place in one buffer, allocated once per call."""
    n = data.shape[0]
    assign = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n)
    # near-equal blocks, none under ASSIGN_BLOCK / 2 rows once n exceeds it:
    # BLAS takes other kernels, rounded differently, for products of few rows
    nblocks = -(-n // ASSIGN_BLOCK)
    buf = np.empty((min(n, ASSIGN_BLOCK), centroids.shape[0]))
    for b in range(nblocks):
        lo, hi = b * n // nblocks, (b + 1) * n // nblocks
        block = data[lo:hi]
        d2 = buf[:hi - lo]
        # x2 - 2 (block @ C.T) + c2: doubling and negation are exact and the
        # additions commute, so this is bit-equal to x2 - (2 block) @ C.T + c2
        np.matmul(block, centroids.T, out=d2)
        d2 *= -2.0
        d2 += (block ** 2).sum(axis=1)[:, None]
        d2 += c2[None, :]
        # clamping the minimum, not every entry, selects the same near-ties:
        # best >= 0, so a negative entry passes the test either way
        best = np.maximum(d2.min(axis=1), 0.0)
        # lowest index among near-ties, stable across float noise
        assign[lo:hi] = np.argmax(d2 <= best[:, None] + 1e-12, axis=1)
        min_d2[lo:hi] = best
    return assign, min_d2


def _nearest(data, centroids, c2):
    """_assign's assignments (ties -> lowest index), screened in single
    precision and decided in double.

    Each block's y = c2 - 2 x·c, the squared distance less the row's own
    |x|², is computed by one float32 GEMM into one reused buffer, each block
    cast on the fly. A row whose minimum y is the only entry within `band`
    of it is decided there; the rest, all near-ties, go to _assign, which
    keeps the tie rule in one place.

    The band is twice a bound on |x2 + y - d2| per entry, d2 being _assign's
    float64 x2 - 2 x·c + c2 for d-dimensional rows, plus _assign's 1e-12 tie
    band. With u = 2^-24 and sum |x_i c_i| <= (x2 + c2) / 2, the float32 error
    of y is at most (d + 5) u (x2 + c2) to first order:
      - casting x and -2c to float32 (-2c is exact): 2u;
      - the d-term float32 dot in any summation order, FMA or not: d u;
      - casting c2 to float32, and adding it: u + 2u.
    One more u each covers second-order terms, d2's own float64 rounding (a
    2^-29 part of these) and the float64 threshold, and 2^-100 absolute covers
    float32 underflow (under 3d 2^-150 per entry). Hence
    err = (d + 8) u (x2 + max c2) + 2^-100. If y's minimum, at centroid j, is
    the only entry within 2 err + 1e-12 of it, every other centroid's d2
    exceeds both d2[j] and 0 by more than 1e-12, so _assign picks j too.
    """
    n, d = data.shape
    x2 = np.einsum("ij,ij->i", data, data)
    if np.max(x2, initial=0.0) + c2.max() >= SCREEN_LIMIT:
        return _assign(data, centroids, c2)[0]
    cm2 = centroids.astype(np.float32)
    cm2 *= -2.0
    c2_32 = c2.astype(np.float32)
    band = 2.0 * ((d + 8) * 2.0 ** -24 * (x2 + c2.max()) + 2.0 ** -100) + 1e-12
    assign = np.empty(n, dtype=np.int64)
    sure = np.empty(n, dtype=bool)
    buf = np.empty((min(n, ASSIGN_BLOCK), centroids.shape[0]), dtype=np.float32)
    for lo in range(0, n, ASSIGN_BLOCK):
        hi = min(lo + ASSIGN_BLOCK, n)
        y = buf[:hi - lo]
        np.matmul(data[lo:hi].astype(np.float32), cm2.T, out=y)
        y += c2_32
        rows = np.arange(hi - lo)
        best = y.argmin(axis=1)
        # the threshold stays float64: rounded to float32 it could shrink the band
        limit = y[rows, best] + band[lo:hi]
        y[rows, best] = np.inf
        sure[lo:hi] = y.min(axis=1) > limit
        assign[lo:hi] = best
    del buf  # _assign allocates its own
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        assign[unsure] = _assign(data[unsure], centroids, c2)[0]
    return assign


def train_codebook(descriptors, k, seed=0, max_iter=100, descriptor_kind="static"):
    """Lloyd's k-means with k-means++ seeding and farthest-point re-seeding
    of empty clusters. Deterministic for a fixed seed. Emits CodebookWarning
    if the assignment still changes on the last of `max_iter` passes; the
    codebook is returned all the same."""
    data = _descriptor_matrix(descriptors)
    if data.shape[0] < k or _distinct_rows(data) < k:
        raise CodebookError("need at least k=%d distinct descriptors" % k)
    d = data.shape[1]
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(data, k, rng)
    assign = np.full(data.shape[0], -1)
    for _ in range(max_iter):
        c2 = (centroids ** 2).sum(axis=1)
        new_assign = _nearest(data, centroids, c2)
        counts = np.bincount(new_assign, minlength=k)
        empty = list(np.flatnonzero(counts == 0))
        if empty:
            # re-seeding reads every row's distance: _assign's exact one, with
            # the same assignments
            min_d2 = _assign(data, centroids, c2)[1]
        # each empty cluster, in ascending index, takes the current farthest
        # point; a cluster that this leaves empty is re-seeded in turn. A
        # re-seeded point is never taken again, so each cluster is re-seeded
        # at most once and the loop ends.
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
        # each cell summed in row order from 0.0, as np.add.at would
        cell = (new_assign[:, None] * d + np.arange(d)).ravel()
        sums = np.bincount(cell, weights=data.ravel(), minlength=k * d).reshape(k, d)
        centroids = sums / counts[:, None]
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    else:
        warnings.warn("k-means did not converge in max_iter=%d passes" % max_iter,
                      CodebookWarning, stacklevel=2)
    return Codebook(centroids=centroids, descriptor_kind=descriptor_kind)


def _kmeanspp_seed(data, k, rng):
    """k-means++ seeding: k rows of `data`, each drawn with probability
    proportional to its squared distance D² to the nearest row drawn before.

    The weights are single precision: each step's dot products come from a
    float32 copy of `data` (0.5 KB per 128-D row, freed on return), while the
    squared norms, the running minimum D², the cdf and the copied centroid
    rows stay float64. k-means++ needs weights only proportional to D², and
    single precision halves the bytes each step's dot products read. A draw
    differs from the float64 formula's when its uniform falls between the
    two cdfs, so the rows drawn can differ from that formula's.
    """
    n = data.shape[0]
    x2 = (data ** 2).sum(axis=1)
    single = data.astype(np.float32)
    centroids = np.empty((k, data.shape[1]))
    d2 = np.full(n, np.inf)
    idx = int(rng.integers(n))
    for j in range(k):
        if j:
            total = d2.sum()
            if total <= 0:
                idx = int(rng.integers(n))
            else:
                # the draw of rng.choice(n, p=d2 / total), without its
                # validation passes over p: the same uniform, the same index
                cdf = np.cumsum(d2 / total)
                cdf /= cdf[-1]
                idx = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[j] = data[idx]
        # squared distance to the new centroid by the expansion _assign uses,
        # its dot products in single precision
        dj = x2 - 2.0 * (single @ single[idx]) + x2[idx]
        np.maximum(dj, 0.0, out=dj)
        dj[idx] = 0.0
        np.minimum(d2, dj, out=d2)
    return centroids


def quantize_planes(planes, cb):
    """One L1-normalized histogram row per plane, from one nearest-centroid
    search over every plane's descriptors: a (len(planes), k) float64 matrix.

    Ties go to the lowest centroid index; a plane without descriptors gets
    an all-zero row.
    """
    k = cb.k
    hist = np.zeros((len(planes), k))
    data = _descriptor_matrix([d for plane in planes for d in plane], cb.centroids.shape[1])
    if data.shape[0] == 0:
        return hist
    assign = _nearest(data, cb.centroids, cb._sq_norms)
    plane = np.repeat(np.arange(len(planes)), [len(p) for p in planes])
    counts = np.bincount(plane * k + assign, minlength=len(planes) * k).reshape(-1, k)
    totals = counts.sum(axis=1, keepdims=True)
    return np.divide(counts, totals, out=hist, where=totals > 0)


def quantize(descriptors, cb):
    """The one-plane case of quantize_planes, as a histogram flagged empty
    when there are no descriptors."""
    values = quantize_planes([descriptors], cb)[0]
    return BoWHistogram(values=values, descriptor_kind=cb.descriptor_kind,
                        empty=not values.any())
