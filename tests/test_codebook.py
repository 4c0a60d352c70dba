import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from oracles import kmeans_inertia
import planefinder
from planefinder import codebook
from planefinder.codebook import (BoWHistogram, Codebook, CodebookError, CodebookWarning,
                                  quantize, quantize_planes, train_codebook)


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
    rng = np.random.default_rng(6)
    data = rng.random((50, 3))
    cb = train_codebook(data, k=4, seed=0, descriptor_kind="spacetime")
    assert cb.descriptor_kind == "spacetime"
    assert quantize(data, cb).descriptor_kind == "spacetime"


def test_quantize_planes_rows_are_per_plane_histograms():
    # desk's static shape: planes of a few descriptors, one without any
    rng = np.random.default_rng(12)
    cb = Codebook(centroids=rng.random((64, 128)))
    planes = [list(rng.random((n, 128))) for n in (5, 0, 17, 1, 300)]
    hist = quantize_planes(planes, cb)
    assert hist.shape == (5, 64) and hist.dtype == np.float64
    assert np.array_equal(hist, np.stack([quantize(p, cb).values for p in planes]))
    assert not hist[1].any()


def test_quantize_planes_without_descriptors():
    cb = Codebook(centroids=np.eye(4))
    assert np.array_equal(quantize_planes([[], []], cb), np.zeros((2, 4)))
    assert quantize_planes([], cb).shape == (0, 4)


@pytest.mark.parametrize("bad_plane", [0, 1, 2])
def test_quantize_planes_rejects_a_wrong_dimension_in_any_plane(bad_plane):
    cb = Codebook(centroids=np.eye(3))
    planes = [[np.ones(3)], [np.ones(3), np.zeros(3)], [np.ones(3)]]
    planes[bad_plane] = [np.ones(4)]
    with pytest.raises(CodebookError, match="equal-length"):
        quantize_planes(planes, cb)
    # the only descriptors, all of the wrong dimension
    with pytest.raises(CodebookError, match="dim 4 does not match codebook dim 3"):
        quantize_planes([p if i == bad_plane else [] for i, p in enumerate(planes)], cb)


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


@pytest.mark.filterwarnings("ignore::planefinder.codebook.CodebookWarning")
def test_lloyd_memory_is_bounded(monkeypatch):
    # fit's static pool: 2,488 descriptors against k = 2,000 centroids
    data = np.random.default_rng(4).random((2488, 128))
    bound = 16 << 20

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
    # measuring every descriptor against every centroid at once breaks the bound
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
