"""Acceptance suite: property-based checks plus calibrated phantom runs.

Each criterion prints its measured values so the run log doubles as a report.
"""

import itertools
import math
import time

import numpy as np
import pytest
from scipy.linalg import inv, sqrtm, subspace_angles
from scipy.optimize import minimize

from oracles import (benchmark_representations, dual_objective, embedding_objective,
                     gradient_count, solve_screened_poisson, svm_decision, trace_objective)
from planefinder.classifier import _fit_svm, hik_matrix, kernel_matrix
from planefinder.config import PipelineConfig
from planefinder.embedding import build_similarity_matrix, fit_embedding
from planefinder.manifest import read_manifest
from planefinder.pipeline import (VolumeFeatureCache, evaluate_synthetic,
                                  evaluate_volumes, locate_standard_planes,
                                  run_baselines, train_pipeline)
from planefinder.smoothing import divergence, forward_diff, l0_smooth, threshold_gradients
from planefinder.synth import build_phantom_dataset


def onehot(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


# ---------------------------------------------------------------------------
# criterion 1: label similarity unit suite


def test_criterion_1_similarity_cross_product():
    t0 = time.perf_counter()
    pairs = list(itertools.product(range(4), range(2)))
    s = build_similarity_matrix([onehot(p, 4) for p, _ in pairs],
                                [onehot(d, 2) for _, d in pairs])
    values = set()
    for (i, (pi, di)), (j, (pj, dj)) in itertools.product(enumerate(pairs), repeat=2):
        got = float(s[i, j])
        direct = 0.0 if pi != pj else 1.0 + (1.0 if di == dj else 0.0)
        assert got == direct
        values.add(got)
    elapsed = time.perf_counter() - t0
    print("criterion 1: values=%s runtime=%.3fs" % (sorted(values), elapsed))
    assert values == {0.0, 1.0, 2.0}
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# criterion 2: embedding oracle equivalence


def _cca_oracle(x, y, c, eps):
    n = x.shape[0]
    xc = x - x.mean(axis=0)
    yc = y - y.mean(axis=0)
    cxx = xc.T @ xc / n + eps * np.eye(x.shape[1])
    cyy = yc.T @ yc / n + eps * np.eye(y.shape[1])
    isx = np.real(sqrtm(inv(cxx)))
    isy = np.real(sqrtm(inv(cyy)))
    u, _, vt = np.linalg.svd(isx @ (xc.T @ yc / n) @ isy)
    return isx @ u[:, :c], isy @ vt[:c].T


def test_criterion_2_cca_subspaces_and_gradient_ascent():
    t0 = time.perf_counter()
    eps, c = 1e-6, 4
    worst = 0.0
    for seed in range(3):
        rng = np.random.default_rng(seed)
        x = rng.random((40, 10))
        y = rng.random((40, 8))
        s = np.eye(40)
        m = fit_embedding(x, y, s, c=c, epsilon=eps)
        wx_o, wy_o = _cca_oracle(x, y, c, eps)
        ax = subspace_angles(m.w_x, wx_o).max()
        ay = subspace_angles(m.w_y, wy_o).max()
        worst = max(worst, ax, ay)
    assert worst <= 1e-4

    # n=6 label-derived S: closed form vs 100-restart projected gradient ascent
    worst_gap = 0.0
    for seed in range(3):
        rng = np.random.default_rng(100 + seed)
        x = rng.random((6, 4))
        y = rng.random((6, 3))
        s = build_similarity_matrix([onehot(i % 2, 3) for i in range(6)],
                                    [onehot(i % 2, 2) for i in range(6)])
        m = fit_embedding(x, y, s, c=1, epsilon=eps)
        xc = x - m.mean_x
        yc = y - m.mean_y
        cxx = xc.T @ xc / 6 + eps * np.eye(4)
        cyy = yc.T @ yc / 6 + eps * np.eye(3)
        a = xc.T @ s @ yc
        t_fit = trace_objective(xc, yc, m.w_x, m.w_y, s)
        # whitened coordinates: p = C^{1/2} w turns the ellipsoid constraints
        # into unit spheres; projected gradient = step + renormalize
        isx = np.real(sqrtm(inv(cxx)))
        isy = np.real(sqrtm(inv(cyy)))
        b = isx @ a @ isy
        step = 0.5 / np.linalg.norm(b, 2)
        best = -np.inf
        for restart in range(100):
            r = np.random.default_rng(1000 * seed + restart)
            px = r.normal(size=(4, 1))
            py = r.normal(size=(3, 1))
            px /= np.linalg.norm(px)
            py /= np.linalg.norm(py)
            for _ in range(500):
                px = px + step * (b @ py)
                px /= np.linalg.norm(px)
                py = py + step * (b.T @ px)
                py /= np.linalg.norm(py)
            best = max(best, abs((px.T @ b @ py).item()))
        worst_gap = max(worst_gap, abs(t_fit - best) / max(1.0, abs(best)))
    elapsed = time.perf_counter() - t0
    print("criterion 2: max principal angle=%.2e, max ascent gap=%.2e, %.1fs"
          % (worst, worst_gap, elapsed))
    assert worst_gap <= 1e-5
    assert elapsed < 30.0


# ---------------------------------------------------------------------------
# criterion 3: whitening constraints and objective identity


def test_criterion_3_constraints_and_identity():
    worst_resid = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, dx, dy, c = 50, 8, 7, 4
        x = rng.random((n, dx))
        y = rng.random((n, dy))
        s = np.eye(n)
        m = fit_embedding(x, y, s, c=c, epsilon=0.0)
        zx = (x - m.mean_x) @ m.w_x
        zy = (y - m.mean_y) @ m.w_y
        rx = np.linalg.norm(zx.T @ zx / n - np.eye(c))
        ry = np.linalg.norm(zy.T @ zy / n - np.eye(c))
        worst_resid = max(worst_resid, rx, ry)
    assert worst_resid <= 1e-6

    # || (1/c) Zx Zy' - S ||^2 = n^2/c + ||S||^2 - (2/c) tr(Zx' S Zy)
    # for any pair satisfying Zx'Zx = Zy'Zy = n I
    worst_gap = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, dx, dy, c = 30, 6, 5, 3
        x = rng.normal(size=(n, dx))
        y = rng.normal(size=(n, dy))
        s = rng.normal(size=(n, n))

        def feasible(mat, d):
            w = rng.normal(size=(d, c))
            z = mat @ w
            return w @ np.real(sqrtm(inv(z.T @ z / n)))

        wx = feasible(x, dx)
        wy = feasible(y, dy)
        lhs = embedding_objective(x, y, wx, wy, s, c)
        rhs = n * n / c + (s ** 2).sum() - 2.0 / c * trace_objective(x, y, wx, wy, s)
        worst_gap = max(worst_gap, abs(lhs - rhs) / max(1.0, abs(rhs)))
    print("criterion 3: max whitening residual=%.2e, max identity gap=%.2e"
          % (worst_resid, worst_gap))
    assert worst_gap <= 1e-8


# ---------------------------------------------------------------------------
# criterion 4: smoothing suite


def test_criterion_4_smoothing_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    img = rng.random((32, 32))
    # lambda -> 0 identity
    out = l0_smooth(img, 1e-12)
    assert np.abs(out - img).max() <= 1e-6
    # per-pixel (h, v) optimality against the only two candidates
    lam, beta = 0.02, 0.08
    h, v, _ = threshold_gradients(img, lam, beta)
    dx, dy = forward_diff(img)
    chosen = beta * ((dx - h) ** 2 + (dy - v) ** 2) + lam * ((np.abs(h) + np.abs(v)) > 0)
    assert np.all(chosen <= beta * (dx ** 2 + dy ** 2) + 1e-12)
    assert np.all(chosen <= lam + 1e-12)
    # Fourier solve normal equations at 32x32
    s = solve_screened_poisson(img, h, v, 4.0)
    sx, sy = forward_diff(s)
    resid = np.abs((s + 4.0 * divergence(sx, sy))
                   - (img + 4.0 * divergence(h, v))).max()
    assert resid <= 1e-8
    # monotone gradient-count sweep on a fixed noisy step image
    step = np.full((64, 64), 0.2)
    step[:, 32:] = 0.8
    noisy = np.clip(step + np.random.default_rng(42).normal(0, 0.05, step.shape), 0, 1)
    counts = [gradient_count(l0_smooth(noisy, lam), tol=1e-3)
              for lam in (0.005, 0.01, 0.02, 0.04, 0.08)]
    elapsed = time.perf_counter() - t0
    print("criterion 4: solve residual=%.2e, sweep counts=%s, %.1fs"
          % (resid, counts, elapsed))
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# criterion 5: SVM oracle equivalence


def _qp_oracle(gram, y, box):
    n = y.shape[0]
    q = (y[:, None] * y[None, :]) * gram
    cons = {"type": "eq", "fun": lambda a: a @ y, "jac": lambda a: y}
    res = minimize(lambda a: 0.5 * a @ q @ a - a.sum(), np.zeros(n),
                   jac=lambda a: q @ a - np.ones(n), method="SLSQP",
                   bounds=[(0.0, b) for b in box], constraints=[cons],
                   options={"maxiter": 1000, "ftol": 1e-14})
    return -res.fun


def test_criterion_5_svm_oracles():
    rng = np.random.default_rng(0)
    worst = 0.0
    cases = 0
    for kernel in ("hik", "linear"):
        for trial in range(5):
            n = int(rng.integers(10, 21))
            z = rng.random((n, 4))
            y = np.where(rng.random(n) > 0.5, 1.0, -1.0)
            if np.all(y > 0) or np.all(y < 0):
                y[0] = -y[0]
            c = float(rng.choice([0.5, 1.0, 2.0]))
            gram = kernel_matrix(z, z, kernel)
            m = _fit_svm(z, gram, y, c, class_weights=(1.0, 1.0), tol=1e-10)
            alpha = np.zeros(n)
            for sv, coef in zip(m.support_vectors, m.dual_coefs):
                idx = int(np.argmin(((z - sv) ** 2).sum(axis=1)))
                alpha[idx] += abs(coef)
            ours = dual_objective(alpha, gram=gram, y=y)
            oracle = _qp_oracle(gram, y, np.full(n, c))
            worst = max(worst, abs(ours - oracle) / max(1.0, abs(oracle)))
            cases += 1
            # KKT suite on the trained model
            f = svm_decision(m, z, kernel)
            margin = y * f
            for i in range(n):
                if alpha[i] <= 1e-8:
                    assert margin[i] >= 1.0 - 1e-3
                elif alpha[i] >= c - 1e-8:
                    assert margin[i] <= 1.0 + 1e-3
                else:
                    assert abs(margin[i] - 1.0) <= 1e-3
    assert cases == 10
    assert worst <= 1e-6

    # analytic two-point case
    z = np.array([[1.0], [-1.0]])
    m = _fit_svm(z, kernel_matrix(z, z, "linear"), np.array([1.0, -1.0]), 10.0,
                 class_weights=(1.0, 1.0), tol=1e-10)
    alphas = np.abs(m.dual_coefs)
    assert np.allclose(sorted(alphas), [0.5, 0.5], atol=1e-9)
    assert abs(m.bias) <= 1e-9

    # HIK Gram positive semidefiniteness
    min_eig = np.inf
    for seed in range(20):
        data = np.random.default_rng(seed).random((30, 10))
        g = hik_matrix(data, data)
        min_eig = min(min_eig, float(np.linalg.eigvalsh(0.5 * (g + g.T)).min()))
    print("criterion 5: max dual gap=%.2e, min HIK eigenvalue=%.2e"
          % (worst, min_eig))
    assert min_eig >= -1e-10


# ---------------------------------------------------------------------------
# criterion 6: end-to-end phantom at desk scale


DESK = dict(class_count=3, n_negatives=-1, noise_sigma=0.005,
            dims=(64, 64, 64), n_frames=8)


def desk_config():
    return PipelineConfig(k_static=64, k_spacetime=32, embed_c=8,
                          candidates_n=60, plane_size=64)


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("desk")
    cfg = desk_config()
    train_path, test_path = build_phantom_dataset(str(root / "data"), 16, 5, cfg,
                                                  **DESK)
    train_m = read_manifest(train_path)
    test_m = read_manifest(test_path)
    cache = VolumeFeatureCache(cfg)
    t0 = time.perf_counter()
    bundle = train_pipeline(train_m, cfg, cache=cache)
    train_seconds = time.perf_counter() - t0
    return dict(cfg=cfg, cache=cache, bundle=bundle, train=train_m, test=test_m,
                train_seconds=train_seconds)


def test_criterion_6_training_time(desk_run):
    print("criterion 6: training time %.1fs" % desk_run["train_seconds"])
    assert desk_run["train_seconds"] < 600.0


def test_criterion_6_synthetic_accuracy(desk_run):
    rep = evaluate_synthetic(desk_run["bundle"], desk_run["test"],
                             cache=desk_run["cache"])
    mean_accuracy = np.mean(list(rep.accuracy.values()))
    print("criterion 6: synthetic accuracy %s mean %.3f"
          % ({k: round(v, 3) for k, v in sorted(rep.accuracy.items())}, mean_accuracy))
    assert mean_accuracy >= 0.9


def test_criterion_6_volume_f1(desk_run):
    rep = evaluate_volumes(desk_run["bundle"], desk_run["test"],
                           cache=desk_run["cache"])
    print("criterion 6: volume F1 %s" % {k: round(v, 3) for k, v in rep.f1.items()})
    for cid, f1 in rep.f1.items():
        assert f1 >= 0.6, "class %d volume F1 %.3f below 0.6" % (cid, f1)


def test_criterion_6_baselines(desk_run):
    results = run_baselines(desk_run["train"], desk_run["test"], desk_run["cfg"],
                            methods=("concat", "cca", "proposed"),
                            cache=desk_run["cache"])
    concat_f1, cca_f1, prop_f1 = (np.mean(list(results[m].f1.values()))
                                  for m in ("concat", "cca", "proposed"))
    print("criterion 6: mean volume F1 concat=%.3f cca=%.3f proposed=%.3f"
          % (concat_f1, cca_f1, prop_f1))
    # chance level for retrieving 1 ground truth among 60 candidates is ~0.017
    assert concat_f1 > 0.1
    assert prop_f1 >= cca_f1 - 0.05


# ---------------------------------------------------------------------------
# criterion 7: timing at paper-scale dimensions


def test_criterion_7_compact_codes_speedup():
    table = benchmark_representations(n_train=200, n_test=2000, d_static=5000,
                                      d_spacetime=1000, c=32, seed=0)
    concat_t = table[("concat", "test")]
    embed_t = table[("embedded", "test")]
    ratio = concat_t / embed_t
    print("criterion 7: concat test %.4fs, embedded test %.4fs, speedup %.1fx "
          "(train: concat %.2fs, embedded %.2fs)"
          % (concat_t, embed_t, ratio, table[("concat", "train")],
             table[("embedded", "train")]))
    assert ratio >= 10.0


# ---------------------------------------------------------------------------
# criterion 8: determinism


def test_criterion_8_determinism(tmp_path):
    cfg = PipelineConfig(k_static=8, k_spacetime=6, embed_c=3, candidates_n=15,
                         plane_size=32, kmeans_max_iter=30)
    train_path, test_path = build_phantom_dataset(
        str(tmp_path / "data"), 4, 1, cfg, class_count=2, n_negatives=4,
        dims=(48, 48, 48), n_frames=6)
    train_m = read_manifest(train_path)
    cache = VolumeFeatureCache(cfg)
    b1 = train_pipeline(train_m, cfg, cache=cache)
    b2 = train_pipeline(train_m, cfg, cache=cache)
    assert b1.content_hash == b2.content_hash

    test_m = read_manifest(test_path)
    vol = cache.volume(test_m.volumes[0])
    descs = cache.all_descriptors(test_m.volumes[0])
    r1 = locate_standard_planes(vol, b1, 0, top_k=5, cache_descs=descs)
    r2 = locate_standard_planes(vol, b2, 0, top_k=5, cache_descs=descs)
    print("criterion 8: bundle hash %s, rankings identical=%s"
          % (b1.content_hash[:16], r1 == r2))
    assert r1 == r2
