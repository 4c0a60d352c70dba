"""K-means visual vocabularies and bag-of-words quantization."""

import warnings
from dataclasses import dataclass

import numpy as np


# descriptors one block measures against every centroid: _nearest gathers a
# block into one reused (ASSIGN_BLOCK, d + 1) float32 buffer and screens it
# in one reused (ASSIGN_BLOCK, k) float32 buffer (5 MB at k = 5,000), and
# _assign, which decides the rows the screen leaves unsure, every row when
# float32 could overflow, and every row of a Lloyd pass that left a cluster
# empty, fills one float64 buffer of at most that shape
ASSIGN_BLOCK = 256

# _nearest's float32 screen holds |x|², |c|² and their sum below this, so the
# terms of its dot sum to under 2^101, far from float32's 2^128 overflow;
# unit descriptors have norms near 1
SCREEN_LIMIT = 2.0 ** 100


class CodebookError(Exception):
    pass


class CodebookWarning(UserWarning):
    pass


@dataclass(frozen=True, eq=False)
class Codebook:
    centroids: np.ndarray

    def __post_init__(self):
        # a view: freezing it leaves the caller's array writeable
        c = np.asarray(self.centroids, dtype=np.float64).view()
        if c.ndim != 2 or c.shape[0] == 0 or not np.isfinite(c).all():
            raise CodebookError("centroids must be a finite 2-D matrix with at least "
                                "one row, got shape %s" % (c.shape,))
        c.flags.writeable = False
        object.__setattr__(self, "centroids", c)
        # squared centroid norms for the search, computed once; not a field, so
        # repr and the bundle hash see only the centroids
        c2 = (c ** 2).sum(axis=1)
        c2.flags.writeable = False
        object.__setattr__(self, "_sq_norms", c2)
        # train_codebook's converged assignment of its pool, None for a
        # codebook built from centroids alone; not a field either
        object.__setattr__(self, "pool_assignment", None)

    @property
    def k(self):
        return self.centroids.shape[0]


@dataclass(frozen=True)
class BoWHistogram:
    values: np.ndarray
    empty: bool = False

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64).view()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def _descriptor_matrix(planes, dim=None):
    """Every plane's descriptors, each plane an (n_i, d) matrix of them, in
    order in one C-contiguous float64 matrix (a lone plane that is one is
    not copied); CodebookError on planes of unequal width, non-finite values
    or (given `dim`) rows of another width. No rows give a (0, dim) matrix."""
    try:
        data = planes[0] if len(planes) == 1 else np.concatenate(planes or [[]])
        data = np.ascontiguousarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise CodebookError("descriptors are not equal-length numeric vectors: %s"
                            % exc) from exc
    if data.size == 0:
        return np.zeros((0, dim or 0))
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


def _blocks(n):
    """(lo, hi) bounds of near-equal blocks of at most ASSIGN_BLOCK rows, none
    under ASSIGN_BLOCK / 2 once n exceeds it: BLAS takes other kernels,
    rounded differently, for products of few rows."""
    nblocks = -(-n // ASSIGN_BLOCK)
    return [(b * n // nblocks, (b + 1) * n // nblocks) for b in range(nblocks)]


def _error64(x2, c2max, d):
    """A bound on |d2 - D| for _assign's float64 d2 = x2 - 2 x·c + c2 of
    d-dimensional rows with squared norms `x2`, against centroids with squared
    norms at most `c2max`, D being the exact squared distance.

    With u = 2^-53 and sum |x_i c_i| <= (x2 + c2) / 2, to first order: the
    dot in any summation order, FMA or not, d u (x2 + c2) once doubled; the
    norms x2 and c2 (squares, then sums) (d + 1) u each; the two additions,
    whose results stay under 2 (x2 + c2), 4 u (x2 + c2). That is
    (2 d + 5) u (x2 + c2); (d + 8) 2^-52 leaves 11 u spare for second-order
    terms and for rounding where the bound is used, and 2^-1000 absolute
    covers underflow (under 3 d 2^-1075 per entry).
    """
    return (d + 8) * 2.0 ** -52 * (x2 + c2max) + 2.0 ** -1000


def _assign(data, centroids, c2):
    """Nearest-centroid assignment (ties -> lowest index) and min distances;
    `c2` holds the squared centroid norms. Every block's squared distances
    are computed in place in one buffer, allocated once per call."""
    n = data.shape[0]
    assign = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n)
    buf = np.empty((min(n, ASSIGN_BLOCK), centroids.shape[0]))
    for lo, hi in _blocks(n):
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


def _nearest(data, centroids, c2, rows=None):
    """_assign's assignments (ties -> lowest index) of the rows of `data`
    that `rows` indexes (every row by default), in that order, screened in
    single precision and decided in double, and a lower bound on each row's
    distance to every centroid but its own.

    Each block's y = c2 - 2 x·c, the squared distance less the row's own
    |x|², is one float32 GEMM: the block's rows, gathered and cast into one
    reused buffer whose last column is 1, times the (k, d + 1) matrix
    [-2c, c2], built once per call. A row whose minimum y is the only entry
    within `band` of it is decided there; the rest, all near-ties, go to
    _assign, which keeps the tie rule in one place.

    The band is twice a bound on |x2 + y - d2| per entry, d2 being _assign's
    float64 x2 - 2 x·c + c2 for d-dimensional rows, plus _assign's 1e-12 tie
    band. With u = 2^-24 and sum |x_i c_i| <= (x2 + c2) / 2, the (d + 1)
    terms of the dot sum to at most (x2 + c2) + c2 in magnitude, and the
    float32 error of y is at most (2 d + 5) u (x2 + c2) to first order:
      - casting x and -2c to float32 (-2c is exact): 2u (x2 + c2);
      - casting c2 to float32: u c2;
      - the (d + 1)-term float32 dot in any summation order, FMA or not:
        (d + 1) u of the terms' magnitudes, 2 (d + 1) u (x2 + c2).
    Three more u cover second-order terms, d2's own float64 rounding (a
    2^-29 part of these) and the float64 threshold, and 2^-100 absolute covers
    float32 underflow (under 3 (d + 1) 2^-150 per entry). Hence
    err = (2 d + 8) u (x2 + max c2) + 2^-100. If y's minimum, at centroid j,
    is the only entry within 2 err + 1e-12 of it, every other centroid's d2
    exceeds both d2[j] and 0 by more than 1e-12, so _assign picks j too.

    For a row decided here the bound is the square root of x2 plus y's
    second smallest entry, less the band: every other centroid's exact
    squared distance exceeds that by err, which covers rounding the bound in
    float64. A row left to _assign gets 0, as does every row of a block whose
    largest x2 + max c2 reaches SCREEN_LIMIT.
    """
    n = data.shape[0] if rows is None else rows.size
    k, d = centroids.shape
    c2max = c2.max()
    screen = np.empty((k, d + 1), dtype=np.float32)
    # centroids past SCREEN_LIMIT overflow here, but then no block is screened
    with np.errstate(over="ignore"):
        screen[:, :d] = centroids
        screen[:, d] = c2
    screen[:, :d] *= -2.0
    x1 = np.empty((min(n, ASSIGN_BLOCK), d + 1), dtype=np.float32)
    x1[:, d] = 1.0
    buf = np.empty((min(n, ASSIGN_BLOCK), k), dtype=np.float32)
    assign = np.empty(n, dtype=np.int64)
    lower = np.empty(n)
    sure = np.zeros(n, dtype=bool)
    for lo, hi in _blocks(n):
        block = data[lo:hi] if rows is None else data[rows[lo:hi]]
        x2 = np.einsum("ij,ij->i", block, block)
        if x2.max() + c2max >= SCREEN_LIMIT:
            continue
        x1[:hi - lo, :d] = block
        y = np.matmul(x1[:hi - lo], screen.T, out=buf[:hi - lo])
        band = 2.0 * ((2 * d + 8) * 2.0 ** -24 * (x2 + c2max) + 2.0 ** -100) + 1e-12
        at = np.arange(hi - lo)
        best = y.argmin(axis=1)
        # the threshold stays float64: rounded to float32 it could shrink the band
        limit = y[at, best] + band
        y[at, best] = np.inf
        second = y.min(axis=1)
        sure[lo:hi] = second > limit
        assign[lo:hi] = best
        lower[lo:hi] = np.sqrt(np.maximum(x2 + second - band, 0.0))
    del buf  # _assign allocates its own
    unsure = np.flatnonzero(~sure)
    if unsure.size:
        assign[unsure] = _assign(data[unsure if rows is None else rows[unsure]],
                                 centroids, c2)[0]
        lower[unsure] = 0.0
    return assign, lower


def _distance_above(a, b):
    """An upper bound on each row's distance |a_i - b_i|: the float64 norm of
    the difference is within (d + 3) 2^-53 of it, relative, for d columns,
    and 2^-500 absolute covers underflow."""
    diff = a - b
    return (np.sqrt(np.einsum("ij,ij->i", diff, diff)) * (1.0 + (a.shape[1] + 8) * 2.0 ** -52)
            + 2.0 ** -500)


def _rows_to_search(data, centroids, assign, lower, margin):
    """The rows of a Lloyd pass whose Hamerly bound leaves their nearest
    centroid open, in ascending order.

    `lower` bounds each row's distance to every centroid but its own, a,
    from below, and `margin` is 2 E + 1e-12, E being the row's _error64.
    With upper the row's _distance_above to a, it keeps a when
    lower² - upper² > margin: then every other centroid's _assign d2 is at
    least lower² - E > upper² + E + 1e-12 >= d2[a] + 1e-12, and above 1e-12,
    so _assign picks a alone, and so does _nearest. lower² and upper² stay
    under 2 (x2 + max c2) when the test passes, so E's spare covers rounding
    them and their difference.
    """
    upper = np.empty(len(data))
    for lo, hi in _blocks(len(data)):
        upper[lo:hi] = _distance_above(data[lo:hi], centroids[assign[lo:hi]])
    return np.flatnonzero(~(lower * lower - upper * upper > margin))


def train_codebook(descriptors, k, seed=0, max_iter=100, descriptor_kind="static"):
    """Lloyd's k-means with k-means++ seeding and farthest-point re-seeding
    of empty clusters. Deterministic for a fixed seed. Emits CodebookWarning
    if the assignment still changes on the last of `max_iter` passes; the
    codebook is returned all the same.

    A pass searches only the rows whose Hamerly bound (Hamerly, SDM 2010)
    leaves their nearest centroid open (see _rows_to_search); the others
    provably keep theirs, so the result is that of searching every row. A
    zero bound opens every centroid: rows start with one, re-seeded rows get one.

    When Lloyd converges with no re-seed in its final pass, the final
    centroids are the means of the final assignment, as were the centroids
    that assignment was searched against: the codebook carries it as
    `pool_assignment`, _nearest's answer for every descriptor.
    """
    data = _descriptor_matrix([descriptors])
    distinct = _distinct_rows(data) if data.size else 0
    if distinct < k:
        raise CodebookError("%s pool has %d distinct descriptors, need at least k=%d"
                            % (descriptor_kind, distinct, k))
    n, d = data.shape
    rng = np.random.default_rng(seed)
    centroids = _kmeanspp_seed(data, k, rng)
    x2 = np.einsum("ij,ij->i", data, data)
    assign = np.full(n, -1)
    lower = np.zeros(n)
    pool_assignment = None
    for _ in range(max_iter):
        c2 = (centroids ** 2).sum(axis=1)
        new_assign = assign.copy()
        margin = 2.0 * _error64(x2, c2.max(), d) + 1e-12
        # the first pass measures each row against centroid -1, unused: its bound is 0
        rows = _rows_to_search(data, centroids, assign, lower, margin)
        new_assign[rows], lower[rows] = _nearest(data, centroids, c2, rows)
        counts = np.bincount(new_assign, minlength=k)
        empty = list(np.flatnonzero(counts == 0))
        reseeded = bool(empty)
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
            lower[far] = 0.0  # the bound left out the old centroid, not j
        # each cell summed in row order from 0.0, as np.add.at would; the
        # index and the sums are freed before the drift below is taken
        moved, centroids = centroids, np.bincount(
            (new_assign[:, None] * d + np.arange(d)).ravel(), weights=data.ravel(),
            minlength=k * d).reshape(k, d) / counts[:, None]
        if np.array_equal(new_assign, assign):
            if not reseeded:
                pool_assignment = new_assign
            break
        assign = new_assign
        # the bound follows the centroids (triangle inequality), rounded
        # down by one ulp
        lower -= _distance_above(centroids, moved).max()
        np.nextafter(lower, -np.inf, out=lower)
        np.maximum(lower, 0.0, out=lower)
    else:
        warnings.warn("k-means did not converge in max_iter=%d passes" % max_iter,
                      CodebookWarning, stacklevel=2)
    cb = Codebook(centroids=centroids)
    object.__setattr__(cb, "pool_assignment", pool_assignment)
    return cb


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
    """One L1-normalized histogram row per plane, an (n_i, d) descriptor matrix
    each, from one nearest-centroid search: a (len(planes), k) float64 matrix.

    Ties go to the lowest centroid index; a plane without descriptors gets
    an all-zero row.
    """
    data = _descriptor_matrix(planes, cb.centroids.shape[1])
    return plane_histograms(_nearest(data, cb.centroids, cb._sq_norms)[0],
                            [len(p) for p in planes], cb.k)


def plane_histograms(assign, sizes, k):
    """quantize_planes' rows from the centroid index of every descriptor,
    the planes' descriptors in order, `sizes` giving each plane's count."""
    plane = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(plane * k + assign, minlength=len(sizes) * k).reshape(-1, k)
    # each plane's size is its counts' sum; an empty plane's zeros stay +0.0
    return counts / np.maximum(sizes, 1)[:, None]


def quantize(descriptors, cb):
    """The one-plane case of quantize_planes, as a histogram flagged empty
    when there are no descriptors."""
    values = quantize_planes([descriptors], cb)[0]
    return BoWHistogram(values=values, empty=not values.any())
