"""K-means visual vocabularies and bag-of-words quantization."""

import warnings
from dataclasses import dataclass

import numpy as np


# descriptors one _assign block measures against every centroid; the block's
# distances fill one (ASSIGN_BLOCK, k) float64 buffer
ASSIGN_BLOCK = 256


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
        # squared centroid norms for _assign, computed once; not a field, so
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
        new_assign, min_d2 = _assign(data, centroids, (centroids ** 2).sum(axis=1))
        counts = np.bincount(new_assign, minlength=k)
        # each empty cluster, in ascending index, takes the current farthest
        # point; a cluster that this leaves empty is re-seeded in turn. A
        # re-seeded point is never taken again, so each cluster is re-seeded
        # at most once and the loop ends.
        empty = list(np.flatnonzero(counts == 0))
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
    these are close to the float64 formula's: on the `fit` benchmark's
    seed-1 pools, max |d2_32 - d2_64| is 2.4e-7, and the L1 distance between
    the two normalized weight vectors, summed over all draws, is 5.2e-4
    (static, k = 2,000) and 2.4e-5 (space-time, k = 200). A draw differs from
    the float64 formula's only when its uniform falls between the two cdfs:
    none did on the benchmark's seeds, and 2 of 320 trainings over `fit`
    pools parted from it, after draw 1,756 or later of 2,000.
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
    assign, _ = _assign(data, cb.centroids, cb._sq_norms)
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
