import contextlib
import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from oracles import (kmeans_inertia, kmeanspp_seed_allocating, lloyd_every_row,
                     plane_histograms_zero_fill)
import planefinder
from planefinder import codebook
from planefinder.codebook import (BoWHistogram, Codebook, CodebookError, CodebookWarning,
                                  plane_histograms, quantize, quantize_planes, train_codebook)


def clustered_data(rng, centers, n_per=40, noise=0.05):
    rows = []
    for c in centers:
        rows.append(c + noise * rng.normal(size=(n_per, len(c))))
    return np.vstack(rows)


def test_too_few_descriptors():
    with pytest.raises(CodebookError):
        train_codebook(np.zeros((3, 4)), k=5)


def test_duplicate_descriptors_rejected():
    data = np.tile(np.arange(4.0), (10, 1))
    with pytest.raises(CodebookError):
        train_codebook(data, k=3)


def test_distinct_rows_counts_as_unique_does():
    data = np.random.default_rng(11).normal(size=(50, 6))
    data[10] = data[3]
    # equal as floats, not as bytes
    data[20, 2] = 0.0
    data[21] = data[20]
    data[21, 2] = -0.0
    # one ulp apart: distinct
    data[30] = data[31]
    data[30, 5] = np.nextafter(data[31, 5], np.inf)
    assert codebook._distinct_rows(data) == np.unique(data, axis=0).shape[0] == 48
    signed_zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    assert codebook._distinct_rows(signed_zeros) == np.unique(signed_zeros, axis=0).shape[0] == 1


def test_distinct_row_check_memory_is_bounded():
    # fit's static pool shape with one row repeated, so that k = n fails the
    # check before any k-means work; np.unique(axis=0) holds about 2.5 pools
    data = np.random.default_rng(4).random((2488, 128))
    data[1] = data[0]
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        with pytest.raises(CodebookError, match="distinct"):
            train_codebook(data, k=len(data))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # train_codebook's own copy of the pool, and at most 1.25 pools for the check
    assert peak <= 2.25 * data.nbytes


def test_deterministic_for_seed():
    rng = np.random.default_rng(0)
    data = rng.random((200, 8))
    a = train_codebook(data, k=10, seed=3)
    b = train_codebook(data, k=10, seed=3)
    assert np.array_equal(a.centroids, b.centroids)


def test_recovers_separated_clusters():
    rng = np.random.default_rng(1)
    centers = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [5.0, 5.0]])
    data = clustered_data(rng, centers)
    cb = train_codebook(data, k=4, seed=0)
    d = cdist(centers, cb.centroids)
    assert d.min(axis=1).max() < 0.1
    # each true center claims a distinct centroid
    assert len(set(d.argmin(axis=1))) == 4


def test_centroids_are_member_means():
    rng = np.random.default_rng(2)
    data = rng.random((300, 6))
    cb = train_codebook(data, k=12, seed=5)
    assign = cdist(data, cb.centroids).argmin(axis=1)
    for j in range(cb.k):
        members = data[assign == j]
        assert members.shape[0] > 0
        assert np.abs(members.mean(axis=0) - cb.centroids[j]).max() <= 1e-9


def _kmeanspp_direct(data, k, rng):
    """k-means++ seeding with distances from explicit differences, each index
    drawn by rng.choice."""
    n = data.shape[0]
    centroids = np.empty((k, data.shape[1]))
    centroids[0] = data[rng.integers(n)]
    d2 = ((data - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=d2 / total))
        centroids[j] = data[idx]
        d2 = np.minimum(d2, ((data - centroids[j]) ** 2).sum(axis=1))
    return centroids


@pytest.mark.parametrize("seed", range(5))
def test_kmeanspp_seed_picks_rows_of_direct_formula(seed):
    data = np.random.default_rng(20 + seed).random((600, 32))
    got = codebook._kmeanspp_seed(data, 100, np.random.default_rng(seed))
    want = _kmeanspp_direct(data, 100, np.random.default_rng(seed))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_kmeanspp_seed_with_duplicate_rows_picks_rows_of_direct_formula(seed):
    # 120 distinct rows, each about five times: once a row is taken, its
    # copies have no chance of being drawn
    rows = np.random.default_rng(30 + seed).random((120, 32))
    data = rows[np.random.default_rng(seed).integers(120, size=600)]
    got = codebook._kmeanspp_seed(data, 100, np.random.default_rng(seed))
    want = _kmeanspp_direct(data, 100, np.random.default_rng(seed))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(5))
def test_kmeanspp_seed_on_unit_rows_near_k_distinct_picks_rows_of_direct_formula(seed):
    # single-precision weights are least exact here: every squared norm is
    # 1, a taken row's copies have D² = 0 only up to float32 rounding, and
    # with k close to the 150 distinct rows the last draws share a small total
    rows = np.random.default_rng(40 + seed).normal(size=(150, 128))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    data = rows[np.random.default_rng(seed).permutation(np.repeat(np.arange(150), 4))]
    got = codebook._kmeanspp_seed(data, 145, np.random.default_rng(seed))
    want = _kmeanspp_direct(data, 145, np.random.default_rng(seed))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("seed", range(3))
def test_kmeanspp_seed_draws_on_cdf_values_as_the_allocating_oracle(seed):
    # every uniform is exactly one of the oracle's cdf values, so a draw
    # moves if the weights' bits differ from the oracle's at that entry
    rng = np.random.default_rng(50 + seed)
    data = rng.normal(size=(500, 128))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    uniforms = []

    def choose(cdf):
        uniforms.append(cdf[rng.choice(np.flatnonzero(cdf < 1.0))])
        return uniforms[-1]

    want = kmeanspp_seed_allocating(data, 200, 7, choose)

    class Replay:
        def integers(self, n):
            return 7

        def random(self):
            return uniforms.pop(0)

    assert codebook._kmeanspp_seed(data, 200, Replay()).tobytes() == want.tobytes()


# fit's pool shapes: 2,488 static descriptors at k = 2,000 (seeding, and a
# few Lloyd passes) and 600 space-time descriptors at k = 200; prints a
# digest of both codebooks' centroids
CODEBOOK_THREAD_PROBE = """
import hashlib
import warnings
import numpy as np
from planefinder.codebook import CodebookWarning, train_codebook
warnings.simplefilter("ignore", CodebookWarning)
rng = np.random.default_rng(0)
h = hashlib.sha256()
for shape, k, max_iter in (((2488, 128), 2000, 3), ((600, 192), 200, 100)):
    h.update(train_codebook(rng.random(shape), k, seed=1, max_iter=max_iter).centroids.tobytes())
print(h.hexdigest())
"""


def test_codebook_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(planefinder.__file__)))
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        runs[threads] = subprocess.run([sys.executable, "-c", CODEBOOK_THREAD_PROBE],
                                       env=env, check=True, capture_output=True, text=True,
                                       timeout=120).stdout.split()
    assert runs["1"] == runs["2"]


def _seeded_with(monkeypatch, rows):
    monkeypatch.setattr(codebook, "_kmeanspp_seed",
                        lambda data, k, rng: np.array(rows, dtype=np.float64))


def test_empty_cluster_takes_farthest_point(monkeypatch):
    rng = np.random.default_rng(8)
    data = rng.random((200, 4))
    seeds = data[[0, 0, 1, 2, 3, 4, 5, 6]]  # cluster 1 starts empty
    _seeded_with(monkeypatch, seeds)
    far = int(cdist(data, seeds).min(axis=1).argmax())
    with pytest.warns(CodebookWarning):
        once = train_codebook(data, k=8, max_iter=1)
    assert np.array_equal(once.centroids[1], data[far])
    cb = train_codebook(data, k=8)
    assign = cdist(data, cb.centroids).argmin(axis=1)
    for j in range(cb.k):
        members = data[assign == j]
        assert members.shape[0] > 0
        assert np.abs(members.mean(axis=0) - cb.centroids[j]).max() <= 1e-9


def test_lloyd_update_matches_add_at_oracle(monkeypatch):
    # signed data with -0.0 entries: a group whose first column is -0.0 in
    # every row, and a farthest point, re-seeded into the empty cluster 1,
    # with -0.0 in two columns
    rng = np.random.default_rng(13)
    data = rng.normal(size=(300, 6))
    data[::7, 2] = -0.0
    group = rng.normal(size=(25, 6)) + [0.0, 40.0, 0.0, 0.0, 0.0, 0.0]
    group[:, 0] = -0.0
    far = np.array([-0.0, -90.0, 3.0, -0.0, 1.0, -2.0])
    data = np.vstack([data, group, far])
    seeds = np.vstack([data[[0, 0, 1, 2, 3]], [0.0, 40.0, 0.0, 0.0, 0.0, 0.0]])
    _seeded_with(monkeypatch, seeds)
    assign = cdist(data, seeds).argmin(axis=1)
    assert np.bincount(assign, minlength=6)[1] == 0
    assign[-1] = 1
    counts = np.bincount(assign, minlength=6)
    sums = np.zeros_like(seeds)
    np.add.at(sums, assign, data)
    want = sums / counts[:, None]
    with pytest.warns(CodebookWarning):
        once = train_codebook(data, k=6, max_iter=1)
    assert once.centroids.tobytes() == want.tobytes()
    assert np.array_equal(once.centroids[1], far)
    # sums start from +0.0, so a cell summing only -0.0 entries reads +0.0
    zeros = once.centroids[[1, 1, 5], [0, 3, 0]]
    assert not zeros.any() and not np.signbit(zeros).any()


def test_reseed_that_empties_a_cluster_reseeds_it(monkeypatch):
    # the farthest point is the only member of cluster 2; moving it into the
    # empty cluster 1 empties cluster 2, which takes the next farthest point
    data = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.3], [10.0, 10.0]])
    _seeded_with(monkeypatch, [[0.0, 0.0], [0.0, 0.0], [6.0, 6.0]])
    with pytest.warns(CodebookWarning):
        cb = train_codebook(data, k=3, max_iter=1)
    assert np.array_equal(cb.centroids[1], data[3])
    assert np.array_equal(cb.centroids[2], data[2])
    assert np.allclose(cb.centroids[0], data[:2].mean(axis=0))


def test_inertia_beats_random_codebooks():
    rng = np.random.default_rng(3)
    data = rng.random((300, 5))
    cb = train_codebook(data, k=8, seed=0)
    trained = kmeans_inertia(data, cb)
    for s in range(5):
        pick = np.random.default_rng(100 + s).choice(300, size=8, replace=False)
        rand = Codebook(centroids=data[pick])
        assert trained <= kmeans_inertia(data, rand) + 1e-9


def test_quantize_matches_bruteforce_counts():
    rng = np.random.default_rng(4)
    data = rng.random((150, 7))
    cb = train_codebook(data, k=9, seed=1)
    hist = quantize(data, cb)
    counts = np.zeros(9)
    np.add.at(counts, cdist(data, cb.centroids).argmin(axis=1), 1.0)
    assert np.allclose(hist.values, counts / counts.sum(), atol=1e-12)
    assert hist.values.sum() == pytest.approx(1.0, abs=1e-12)
    assert not hist.empty


def test_quantize_empty_flagged():
    cb = Codebook(centroids=np.eye(4))
    hist = quantize([], cb)
    assert hist.empty
    assert np.all(hist.values == 0.0)
    assert hist.values.shape == (4,)


def test_quantize_dim_mismatch():
    cb = Codebook(centroids=np.eye(4))
    with pytest.raises(CodebookError, match="dim"):
        quantize(np.zeros((3, 5)), cb)


def test_tie_breaks_to_lowest_index():
    cb = Codebook(centroids=np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    hist = quantize(np.array([[1.0, 0.0], [1.0, 0.0]]), cb)
    assert np.allclose(hist.values, [1.0, 0.0, 0.0])


def test_single_descriptor_histogram():
    cb = Codebook(centroids=np.array([[0.0, 0.0], [2.0, 2.0]]))
    hist = quantize(np.array([[1.9, 2.1]]), cb)
    assert np.allclose(hist.values, [0.0, 1.0])


def test_descriptor_kind_carried_through():
    # the view names the pool in errors; a codebook is its centroids alone
    rng = np.random.default_rng(6)
    data = rng.random((50, 3))
    cb = train_codebook(data, k=4, seed=0, descriptor_kind="spacetime")
    assert np.array_equal(cb.centroids, train_codebook(data, k=4, seed=0).centroids)
    with pytest.raises(CodebookError, match="^spacetime pool has 50 distinct"):
        train_codebook(data, k=51, descriptor_kind="spacetime")


@pytest.mark.parametrize("rows, k, kind, message", [
    (30, 64, "static", "static pool has 12 distinct descriptors, need at least k=64"),
    (30, 13, "spacetime", "spacetime pool has 12 distinct descriptors, need at least k=13"),
    (0, 2, "static", "static pool has 0 distinct descriptors, need at least k=2")])
def test_too_few_distinct_descriptors_names_the_pool_and_its_count(rows, k, kind, message):
    # `rows` rows, each of 12 distinct ones at least twice when rows = 30:
    # fewer rows than k, or enough rows but too few distinct, or none
    base = np.random.default_rng(9).random((12, 8))
    with pytest.raises(CodebookError) as info:
        train_codebook(base[np.arange(rows) % 12], k=k, descriptor_kind=kind)
    assert str(info.value) == message


def test_quantize_planes_rows_are_per_plane_histograms():
    # desk's static shape: planes of a few descriptors, one without any
    rng = np.random.default_rng(12)
    cb = Codebook(centroids=rng.random((64, 128)))
    planes = [rng.random((n, 128)) for n in (5, 0, 17, 1, 300)]
    hist = quantize_planes(planes, cb)
    assert hist.shape == (5, 64) and hist.dtype == np.float64
    assert np.array_equal(hist, np.stack([quantize(p, cb).values for p in planes]))
    assert not hist[1].any()


def test_quantize_planes_without_descriptors():
    cb = Codebook(centroids=np.eye(4))
    assert np.array_equal(quantize_planes([[], []], cb), np.zeros((2, 4)))
    assert quantize_planes([], cb).shape == (0, 4)


@pytest.mark.parametrize("sizes", [[3, 0, 5], [0, 0], [], [1], [7, 0, 0, 2, 0]])
def test_plane_histograms_match_the_zero_fill_oracle(sizes):
    # an empty plane between two others, all planes empty, and no planes
    assign = np.random.default_rng(len(sizes)).integers(6, size=sum(sizes))
    got = plane_histograms(assign, sizes, 6)
    want = plane_histograms_zero_fill(assign, sizes, 6)
    assert got.shape == (len(sizes), 6) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()
    # every empty plane's row is +0.0, bit for bit
    empty = [i for i, n in enumerate(sizes) if n == 0]
    assert got[empty].tobytes() == np.zeros((len(empty), 6)).tobytes()


@pytest.mark.parametrize("bad_plane", [0, 1, 2])
def test_quantize_planes_rejects_a_wrong_dimension_in_any_plane(bad_plane):
    cb = Codebook(centroids=np.eye(3))
    planes = [np.ones((1, 3)), np.eye(2, 3), np.ones((1, 3))]
    planes[bad_plane] = np.ones((1, 4))
    with pytest.raises(CodebookError, match="equal-length"):
        quantize_planes(planes, cb)
    # the only descriptors, all of the wrong dimension
    with pytest.raises(CodebookError, match="dim 4 does not match codebook dim 3"):
        quantize_planes([p if i == bad_plane else np.empty((0, 4))
                         for i, p in enumerate(planes)], cb)


def _assign_recomputing_norms(data, centroids, chunk=2048):
    """The assignment as first written: squared centroid norms on each call."""
    n = data.shape[0]
    assign = np.empty(n, dtype=np.int64)
    min_d2 = np.empty(n)
    c2 = (centroids ** 2).sum(axis=1)
    for lo in range(0, n, chunk):
        block = data[lo:lo + chunk]
        d2 = ((block ** 2).sum(axis=1)[:, None]
              - 2.0 * block @ centroids.T + c2[None, :])
        np.maximum(d2, 0.0, out=d2)
        best = d2.min(axis=1)
        assign[lo:lo + chunk] = np.argmax(d2 <= best[:, None] + 1e-12, axis=1)
        min_d2[lo:lo + chunk] = best
    return assign, min_d2


def _reference_quantize(data, centroids):
    assign, min_d2 = _assign_recomputing_norms(data, centroids)
    counts = np.zeros(centroids.shape[0])
    np.add.at(counts, assign, 1.0)
    return counts / counts.sum(), float(min_d2.sum())


def _oracle_case(name):
    """(centroids list, descriptors) for one oracle input."""
    rng = np.random.default_rng(30)
    if name == "random":
        # two codebooks of one shape, so norms carried over from another
        # codebook would show
        return ([np.random.default_rng(seed).random((40, 16)) for seed in (0, 1)],
                rng.random((500, 16)))
    if name == "duplicated":
        cents = rng.random((6, 5))
        cents = np.vstack([cents, cents[[1, 3]], cents[[1]]])
        return [cents], np.vstack([cents, rng.random((200, 5))])
    # descriptors halfway between centroids 1 and 0
    a, b = rng.random((2, 8)) * 4.0
    return [np.vstack([b, a, rng.random((3, 8)) + 10.0])], np.tile((a + b) / 2.0, (7, 1))


@pytest.mark.parametrize("name", ["random", "duplicated", "equidistant"])
def test_quantize_matches_norm_recomputing_oracle(name):
    cents_list, data = _oracle_case(name)
    for cents in cents_list:
        cb = Codebook(centroids=cents)
        want_hist, want_inertia = _reference_quantize(data, cents)
        assert np.array_equal(quantize(data, cb).values, want_hist)
        assert np.array_equal(quantize(list(data), cb).values, want_hist)
        assert kmeans_inertia(data, cb) == want_inertia
    if name == "duplicated":
        assert not want_hist[6:].any()
    if name == "equidistant":
        assert want_hist[0] == 1.0


@pytest.mark.parametrize("n", [1, codebook.ASSIGN_BLOCK - 1, codebook.ASSIGN_BLOCK,
                               3 * codebook.ASSIGN_BLOCK + 17])
def test_assign_matches_unblocked_oracle(n):
    # desk's static shape (k = 64, 128-D), where a product of a few rows
    # takes another BLAS kernel than a product of many
    rng = np.random.default_rng(31)
    cents = rng.random((64, 128))
    cents[7] = cents[3]
    data = rng.random((n, 128))
    data[1::5] = data[0]                          # exact duplicate rows
    data[2::5] = cents[7]                         # tied between centroids 3 and 7
    data[3::5] = (cents[10] + cents[20]) / 2.0    # equidistant from 10 and 20
    assign, min_d2 = codebook._assign(data, cents, (cents ** 2).sum(axis=1))
    want_assign, want_d2 = _assign_recomputing_norms(data, cents, chunk=n)
    assert np.array_equal(assign, want_assign)
    assert np.array_equal(min_d2, want_d2)
    assert (assign[2::5] == 3).all() and (assign[3::5] == 10).all()
    # the screen defers every tied row to _assign and decides the rest itself
    with _deferred_rows() as deferred:
        assert np.array_equal(codebook._nearest(data, cents, (cents ** 2).sum(axis=1))[0],
                              assign)
    ties = len(data[2::5]) + len(data[3::5])
    assert ties <= sum(deferred) <= ties + n // 10


@contextlib.contextmanager
def _deferred_rows():
    """The row count of each _assign call made inside the block."""
    with mock.patch.object(codebook, "_assign", wraps=codebook._assign) as spy:
        rows = []
        yield rows
        rows.extend(call.args[0].shape[0] for call in spy.call_args_list)


@pytest.mark.parametrize("name", ["random", "duplicated", "equidistant"])
def test_nearest_matches_assign_on_oracle_cases(name):
    cents_list, data = _oracle_case(name)
    for cents in cents_list:
        c2 = (cents ** 2).sum(axis=1)
        assert np.array_equal(codebook._nearest(data, cents, c2)[0],
                              codebook._assign(data, cents, c2)[0])


@settings(max_examples=300, deadline=None)
@given(dim=st.sampled_from([2, 16, 128, 192]), scale=st.floats(-7.0, 3.0),
       gap=st.floats(-3.0, 3.0), far=st.sampled_from([1.0, 1e3]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_nearest_decides_a_second_centroid_near_the_band_as_assign_does(dim, scale, gap,
                                                                       far, seed):
    # one row, a nearest centroid at squared distance r², a second one at
    # r² + gap·band, and three far ones, in a random order; `band` is that of
    # _nearest (twice its float32 error bound, plus _assign's 1e-12). At
    # far = 1e3 the centroids lie 10³ times further from the row than it lies
    # from the origin, so max c2 ≫ |x|² and the norms' term dominates the band
    def band_of(x, c2_max):
        return 2.0 * ((2 * dim + 8) * 2.0 ** -24 * (x @ x + c2_max) + 2.0 ** -100) + 1e-12

    rng = np.random.default_rng(seed)
    s = 10.0 ** scale
    x = s * rng.normal(size=dim)
    units = rng.normal(size=(5, dim))
    units /= np.linalg.norm(units, axis=1, keepdims=True)
    band = band_of(x, (np.linalg.norm(x) + 10.0 * far * s) ** 2)
    r2 = (far * s) ** 2 + 4.0 * band
    radii = np.sqrt([r2, r2 + gap * band, 100.0 * r2, 100.0 * r2, 100.0 * r2])
    cents = (x + radii[:, None] * units)[rng.permutation(5)]
    c2 = (cents ** 2).sum(axis=1)
    with _deferred_rows() as deferred:
        got, lower = codebook._nearest(x[None], cents, c2)
    assert np.array_equal(got, codebook._assign(x[None], cents, c2)[0])
    # the bound on the distance to every other centroid holds; a row the
    # screen decides gets one within the band of it, a row left to _assign 0
    exact = np.sqrt(((x.astype(np.longdouble) - cents) ** 2).sum(axis=1))
    second = np.delete(exact, got[0]).min()
    assert lower[0] <= second
    if deferred:
        assert lower[0] == 0.0
    else:
        assert second ** 2 - 2.0 * band_of(x, c2.max()) <= lower[0] ** 2
    if far > 1.0:
        assert c2.max() > 1e4 * (x @ x)
    # the gap in bands of the centroids as built
    offset = abs(gap) * band / band_of(x, c2.max())
    if offset <= 0.75:
        assert deferred == [1]
    if offset >= 1.25:
        assert deferred == []


@pytest.mark.parametrize("data_scale, cent_scale, screened", [
    (1e20, 1.0, False), (1.0, 1e20, False), (1e60, 1e60, False), (2.0 ** 49, 2.0 ** 49, False),
    (1e13, 1e13, True)])
def test_nearest_defers_every_row_when_float32_could_overflow(data_scale, cent_scale,
                                                              screened):
    # 16-D rows at 2^49 have squared norms near 2^102, past the guard's 2^100,
    # though each float32 product would still be finite; at 1e13 they are
    # far below it and the screen runs
    rng = np.random.default_rng(7)
    cents = cent_scale * rng.normal(size=(40, 16))
    data = data_scale * rng.normal(size=(300, 16))
    c2 = (cents ** 2).sum(axis=1)
    want = codebook._assign(data, cents, c2)[0]
    with _deferred_rows() as deferred:
        got, lower = codebook._nearest(data, cents, c2)
    assert np.array_equal(got, want)
    assert (sum(deferred) < 300) if screened else deferred == [300]
    # every row left to _assign gets a lower bound of 0, and every row one
    assert lower.shape == (300,) and not np.isnan(lower).any()
    assert (lower == 0.0).all() or screened


def test_lloyd_past_the_screen_limit_searches_every_row_in_every_pass(monkeypatch):
    # 16-D rows at 2^49 have squared norms near 2^102: _nearest's fallback
    # decides every row in float64 and bounds each by 0, so no pass of Lloyd
    # skips a row, and the result is still the every-row oracle's
    data = 2.0 ** 49 * np.random.default_rng(7).normal(size=(300, 16))
    cents = data[:40]
    got, lower = codebook._nearest(data, cents, (cents ** 2).sum(axis=1))
    assert lower.dtype == np.float64 and lower.tobytes() == np.zeros(300).tobytes()
    with monkeypatch.context() as m:
        passes = _record_passes(m, data)
        cb = train_codebook(data, k=40, seed=3)
    assert len(passes) > 2
    assert all(sorted(p["searched"]) == list(range(300)) for p in passes)
    centroids, assign = lloyd_every_row(data, 40, seed=3)
    assert cb.centroids.tobytes() == centroids.tobytes()
    assert cb.pool_assignment.tobytes() == assign.tobytes()


@pytest.mark.filterwarnings("ignore::planefinder.codebook.CodebookWarning")
def test_lloyd_memory_is_bounded(monkeypatch):
    # fit's static pool: 2,488 descriptors against k = 2,000 centroids
    data = np.random.default_rng(4).random((2488, 128))
    bound = 16 << 20
    passes = _record_passes(monkeypatch, data)

    def peak():
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            train_codebook(data, k=2000, max_iter=3)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak() < bound
    # the first pass searches every row and the second a subset
    first, second = (len(p["searched"]) for p in passes[:2])
    assert first == len(data) and 0 < second < len(data)
    # measuring every descriptor against every centroid at once breaks the bound
    monkeypatch.setattr(codebook, "ASSIGN_BLOCK", 1 << 30)
    assert peak() > bound


def _record_passes(monkeypatch, data):
    """Lloyd's passes as train_codebook makes them on `data`: each pass's
    starting assignment, and the pool index of each row searched with its
    result."""
    rows_to_search, nearest = codebook._rows_to_search, codebook._nearest
    passes = []

    def counted_rows_to_search(data, centroids, assign, lower, margin):
        passes.append({"assign": assign.copy(), "searched": [], "found": []})
        return rows_to_search(data, centroids, assign, lower, margin)

    def counted_nearest(data, centroids, c2, rows):
        got = nearest(data, centroids, c2, rows)
        passes[-1]["searched"].extend(rows.tolist())
        passes[-1]["found"].extend(got[0].tolist())
        return got

    monkeypatch.setattr(codebook, "_rows_to_search", counted_rows_to_search)
    monkeypatch.setattr(codebook, "_nearest", counted_nearest)
    return passes


def _lloyd_pool(name):
    if name == "reseeds mid-run":
        # this pool and seed leave a cluster empty in Lloyd's third pass
        return np.random.default_rng(53).random((300, 2)), 40, 53
    # fit's static shape, a third of the rows noisy copies of others, so
    # that the screen defers some rows in the first pass
    rng = np.random.default_rng(2)
    data = rng.random((2488, 128))
    data[-800:] = data[rng.integers(1688, size=800)] + 0.01 * rng.normal(size=(800, 128))
    return data, 2000, 0


@pytest.mark.parametrize("name", ["reseeds mid-run", "fit-shaped"])
def test_lloyd_matches_exact_search(monkeypatch, name):
    data, k, seed = _lloyd_pool(name)
    rows_to_search, assign = codebook._rows_to_search, codebook._assign
    passes, deferred = [], []

    def counted_rows_to_search(*args):
        passes.append(None)
        return rows_to_search(*args)

    def counted_assign(rows, *args):
        deferred.append((len(passes), rows.shape[0]))
        return assign(rows, *args)

    monkeypatch.setattr(codebook, "_rows_to_search", counted_rows_to_search)
    monkeypatch.setattr(codebook, "_assign", counted_assign)
    screened = train_codebook(data, k=k, seed=seed)
    if name == "reseeds mid-run":
        # a full-pool _assign for re-seeding, after a pass other than the first
        assert any(p > 1 and rows == len(data) for p, rows in deferred)
    else:
        # the screen leaves some rows of the first pass to _assign
        assert deferred[0][0] == 1
        assert 0 < sum(rows for p, rows in deferred if p == 1) < len(data)

    def exact_search(data, centroids, c2, rows):
        # every row decided in float64, with the bound of a row left to _assign
        return assign(data[rows], centroids, c2)[0], np.zeros(len(rows))

    monkeypatch.setattr(codebook, "_nearest", exact_search)
    exact = train_codebook(data, k=k, seed=seed)
    assert screened.centroids.tobytes() == exact.centroids.tobytes()


def _train_and_oracle(data, k, seed, max_iter):
    """train_codebook and lloyd_every_row on one pool, with whether each
    warned that it hit max_iter."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", CodebookWarning)
        cb = train_codebook(data, k=k, seed=seed, max_iter=max_iter)
        cb_warned = len(caught)
        centroids, assign = lloyd_every_row(data, k, seed=seed, max_iter=max_iter)
        oracle_warned = len(caught) - cb_warned
    return cb, cb_warned, centroids, assign, oracle_warned


def _check_against_oracle(data, k, seed, max_iter):
    cb, cb_warned, centroids, assign, oracle_warned = _train_and_oracle(data, k, seed,
                                                                        max_iter)
    assert cb.centroids.tobytes() == centroids.tobytes()
    assert cb_warned == oracle_warned <= 1
    if cb.pool_assignment is not None:
        assert not cb_warned
        assert cb.pool_assignment.tobytes() == assign.tobytes()
        # the assignment is the search of the pool against the final centroids
        assert np.array_equal(cb.pool_assignment,
                              codebook._nearest(data, cb.centroids, cb._sq_norms)[0])
    return cb, cb_warned


@settings(max_examples=150, deadline=None)
# pools on which an upper bound left where its centroid moved, and a skip
# test without its margin, each part from the oracle
@example(seed=136, n=297, dim=4, kind="uniform", max_iter=100)
@example(seed=113, n=92, dim=2, kind="clustered at 1e-6", max_iter=100)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(8, 300), dim=st.integers(1, 24),
       kind=st.sampled_from(["uniform", "clustered", "clustered at 1e-6",
                             "unit near-duplicates", "exact duplicates"]),
       max_iter=st.sampled_from([1, 2, 3, 100]))
def test_bounded_lloyd_matches_every_row_oracle(seed, n, dim, kind, max_iter):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        data = rng.random((n, dim))
    elif kind.startswith("clustered"):
        # at 1e-6, squared distances are near _assign's 1e-12 tie band
        centres = 10.0 * rng.normal(size=(rng.integers(2, 9), dim))
        data = centres[rng.integers(len(centres), size=n)] + rng.normal(size=(n, dim))
        if kind.endswith("1e-6"):
            data *= 1e-6
    else:
        # rows drawn again and again from a few, as copies (the screen
        # defers their near-ties to _assign) or exact duplicates
        base = rng.normal(size=(max(2, n // 4), dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        data = base[rng.integers(len(base), size=n)]
        if kind == "unit near-duplicates":
            data = data + 1e-4 * rng.normal(size=data.shape)
    distinct = len(np.unique(data, axis=0))
    if distinct < 2:
        return
    k = int(rng.integers(2, min(distinct, 40) + 1))
    _check_against_oracle(data, k, int(rng.integers(100)), max_iter)


@pytest.mark.parametrize("name", ["reseeds mid-run", "fit-shaped"])
def test_bounded_lloyd_skips_rows_and_matches_the_oracle(monkeypatch, name):
    data, k, seed = _lloyd_pool(name)
    _check_against_oracle(data, k, seed, 100)
    passes = _record_passes(monkeypatch, data)
    cb = train_codebook(data, k=k, seed=seed)
    assert cb.pool_assignment is not None
    # the first pass searches every row, and some later pass skips rows
    assert sorted(passes[0]["searched"]) == list(range(len(data)))
    assert any(len(p["searched"]) < len(data) for p in passes[1:])
    # the rows a pass re-seeds are those whose assignment changed after its
    # search; the next pass searches each of them
    reseeded = []
    for before, after in zip(passes, passes[1:]):
        found = before["assign"].copy()
        found[before["searched"]] = before["found"]
        rows = np.flatnonzero(after["assign"] != found)
        assert set(rows.tolist()) <= set(after["searched"])
        reseeded.extend(rows)
    assert bool(reseeded) == (name == "reseeds mid-run")


def test_rows_left_to_assign_are_searched_in_the_next_pass(monkeypatch):
    # the screen leaves some rows of this pool to _assign in the first pass;
    # their bound is 0, so the second pass searches each of them again
    data, k, seed = _lloyd_pool("fit-shaped")
    index = {row.tobytes(): i for i, row in enumerate(data)}
    assign, rows_to_search = codebook._assign, codebook._rows_to_search
    deferred, searched = [], []

    def counted_assign(rows, *args):
        if len(searched) == 1:  # the first pass
            deferred.extend(index[row.tobytes()] for row in rows)
        return assign(rows, *args)

    def counted_rows_to_search(*args):
        rows = rows_to_search(*args)
        searched.append(set(rows.tolist()))
        return rows

    monkeypatch.setattr(codebook, "_assign", counted_assign)
    monkeypatch.setattr(codebook, "_rows_to_search", counted_rows_to_search)
    cb = train_codebook(data, k=k, seed=seed)
    assert 0 < len(deferred) < len(data) and len(searched[0]) == len(data)
    assert set(deferred) <= searched[1] and len(searched[1]) < len(data)
    centroids, _ = lloyd_every_row(data, k, seed=seed)
    assert cb.centroids.tobytes() == centroids.tobytes()


def test_lloyd_after_the_cap_gives_no_pool_assignment():
    data, k, seed = _lloyd_pool("reseeds mid-run")
    cb, warned = _check_against_oracle(data, k, seed, 2)
    assert warned and cb.pool_assignment is None
    cb, warned = _check_against_oracle(data, k, seed, 100)
    assert not warned and cb.pool_assignment is not None
    assert Codebook(centroids=cb.centroids).pool_assignment is None


@pytest.mark.parametrize("n", [1, 255, 600])
def test_nearest_on_indexed_rows_matches_their_copy(n):
    # a Lloyd pass searches the rows it indexes, gathered a block at a time:
    # the same answer and bound as searching a copy of those rows
    rng = np.random.default_rng(n)
    data = rng.random((700, 24))
    # near-duplicate rows, which the screen leaves to _assign
    data[1::3] = data[::3][:233] + 1e-7 * rng.normal(size=(233, 24))
    cents = data[rng.choice(700, size=50, replace=False)]
    c2 = (cents ** 2).sum(axis=1)
    rows = np.sort(rng.choice(700, size=n, replace=False))
    with _deferred_rows() as deferred:
        got = codebook._nearest(data, cents, c2, rows)
    want = codebook._nearest(data[rows], cents, c2)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want, strict=True))
    assert np.array_equal(got[0], codebook._assign(data[rows], cents, c2)[0])
    # past one row, some are left to _assign, gathered by their index
    assert bool(deferred) == (n > 1)


def test_nearest_gathers_indexed_rows_a_block_at_a_time():
    # 4,000 of 8,000 rows of 128 doubles: a copy of the rows is 4 MB, the
    # search's own buffers at k = 500 under 1 MB
    rng = np.random.default_rng(5)
    data = rng.random((8000, 128))
    cents = rng.random((500, 128))
    c2 = (cents ** 2).sum(axis=1)
    rows = np.arange(0, 8000, 2)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        codebook._nearest(data, cents, c2, rows)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_quantize_planes_memory_is_bounded(monkeypatch):
    # a fit locate: 1,300 static descriptors over 100 planes against k = 2,000
    rng = np.random.default_rng(4)
    cb = Codebook(centroids=rng.random((2000, 128)))
    planes = [list(rows) for rows in np.array_split(rng.random((1300, 128)), 100)]
    bound = 7 << 20

    def peak():
        tracemalloc.start()
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            quantize_planes(planes, cb)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    assert peak() < bound
    # screening every descriptor against every centroid at once breaks the bound
    monkeypatch.setattr(codebook, "ASSIGN_BLOCK", 1 << 30)
    assert peak() > bound


def test_lloyd_warns_at_its_iteration_cap():
    data = np.random.default_rng(9).random((300, 5))
    with pytest.warns(CodebookWarning, match="max_iter=1"):
        once = train_codebook(data, k=8, max_iter=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        converged = train_codebook(data, k=8)
    # the cap cut Lloyd short: one pass is not the converged codebook
    assert once != converged


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_quantize_rejects_non_finite_descriptor(bad):
    with pytest.raises(CodebookError, match="non-finite"):
        quantize([np.array([bad, 0.0, 0.0])], Codebook(centroids=np.eye(3)))


def test_quantize_rejects_ragged_descriptors():
    with pytest.raises(CodebookError, match="equal-length"):
        quantize([np.ones(3), np.ones(2)], Codebook(centroids=np.eye(3)))


def test_kmeans_inertia_rejects_wrong_dimension():
    with pytest.raises(CodebookError, match="dim 4 does not match codebook dim 3"):
        kmeans_inertia(np.ones((5, 4)), Codebook(centroids=np.eye(3)))


@pytest.mark.parametrize("centroids", [np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2, 2)),
                                       np.array([[0.0, np.nan]])])
def test_codebook_rejects_bad_centroids(centroids):
    with pytest.raises(CodebookError, match="centroids"):
        Codebook(centroids=centroids)
