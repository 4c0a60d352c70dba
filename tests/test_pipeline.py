import os

import numpy as np
import pytest

from oracles import benchmark_representations
from planefinder import codebook, pipeline
from planefinder.bundle import BundleError, load_bundle, save_bundle
from planefinder.classifier import decision_values
from planefinder.codebook import quantize
from planefinder.config import PipelineConfig
from planefinder.manifest import read_manifest
from planefinder.phantom import PhantomSpec, synth_phantom
from planefinder.pipeline import (PipelineError, VolumeFeatureCache, bow_features,
                                  candidate_codes, compute_codes,
                                  dump_keypoint_overlays, evaluate_synthetic,
                                  evaluate_volumes, locate_standard_planes,
                                  prepare_training_data, run_baselines,
                                  sequence_descriptors, train_from_data,
                                  train_pipeline, _f1)
from planefinder.synth import build_phantom_dataset

TINY = dict(class_count=2, n_negatives=4, dims=(48, 48, 48), n_frames=6)


def tiny_config():
    return PipelineConfig(k_static=8, k_spacetime=6, embed_c=3, candidates_n=15,
                          plane_size=32, kmeans_max_iter=30)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    cfg = tiny_config()
    train_path, test_path = build_phantom_dataset(str(root / "data"), 4, 1, cfg, **TINY)
    cache = VolumeFeatureCache(cfg)
    train_m = read_manifest(train_path)
    test_m = read_manifest(test_path)
    bundle = train_pipeline(train_m, cfg, cache=cache)
    return dict(root=root, cfg=cfg, cache=cache, train=train_m, test=test_m,
                bundle=bundle)


def test_dataset_layout(workspace):
    train_m, test_m = workspace["train"], workspace["test"]
    assert len(train_m.volumes) == 2 and len(test_m.volumes) == 2
    assert not set(train_m.volumes) & set(test_m.volumes)
    for m in (train_m, test_m):
        m.validate(candidate_count=15)
        assert m.plane_classes == [0, 1]
        conds = {r.condition for r in m.records}
        assert conds == {"normal", "abnormal"}
    for vol in train_m.volumes:
        assert os.path.exists(vol)
        assert os.path.exists(vol.replace(".vol4", ".planes"))


def test_dataset_ground_truth_unique_per_class(workspace):
    for m in (workspace["train"], workspace["test"]):
        for vol in m.volumes:
            for cls in (0, 1):
                assert len(m.ground_truth(vol, cls)) == 1


def test_training_deterministic(workspace):
    again = train_pipeline(workspace["train"], workspace["cfg"],
                           cache=workspace["cache"])
    assert again.content_hash == workspace["bundle"].content_hash


def test_bundle_roundtrip(workspace, tmp_path):
    bundle = workspace["bundle"]
    out = str(tmp_path / "bundle")
    save_bundle(bundle, out)
    back = load_bundle(out)
    assert back.content_hash == bundle.content_hash
    assert back.config == bundle.config
    assert np.array_equal(back.cb_static.centroids, bundle.cb_static.centroids)
    rng = np.random.default_rng(0)
    z = rng.random((4, bundle.embedding.c))
    for cid in bundle.classifier.class_ids:
        assert np.allclose(decision_values(back.classifier.machines[cid], z),
                           decision_values(bundle.classifier.machines[cid], z),
                           atol=1e-12)


def test_bundle_tamper_detected(workspace, tmp_path):
    out = str(tmp_path / "bundle")
    save_bundle(workspace["bundle"], out)
    path = os.path.join(out, "embed_wx.mat")
    data = bytearray(open(path, "rb").read())
    data[-1] ^= 0xFF
    open(path, "wb").write(bytes(data))
    with pytest.raises(BundleError, match="hash"):
        load_bundle(out)


def test_bundle_missing_dir(tmp_path):
    with pytest.raises(BundleError):
        load_bundle(str(tmp_path / "nothing"))


def test_locate_ranking(workspace):
    bundle = workspace["bundle"]
    vol_path = workspace["test"].volumes[0]
    cache = workspace["cache"]
    vol = cache.volume(vol_path)
    descs = cache.all_descriptors(vol_path)
    ranked = locate_standard_planes(vol, bundle, 0, top_k=5, cache_descs=descs)
    assert len(ranked) == 5
    scores = [s for _, s in ranked]
    assert scores == sorted(scores, reverse=True)
    assert all(0 <= i < 15 for i, _ in ranked)
    with pytest.raises(PipelineError):
        locate_standard_planes(vol, bundle, 0, top_k=0, cache_descs=descs)
    with pytest.raises(PipelineError):
        locate_standard_planes(vol, bundle, 9, top_k=1, cache_descs=descs)


def test_evaluate_synthetic_report(workspace):
    rep = evaluate_synthetic(workspace["bundle"], workspace["test"],
                             cache=workspace["cache"])
    assert set(rep.accuracy) == {(c, cond) for c in (0, 1)
                                 for cond in ("normal", "abnormal")}
    for v in rep.accuracy.values():
        assert 0.0 <= v <= 1.0
    assert 0.0 <= np.mean(list(rep.accuracy.values())) <= 1.0


def test_evaluate_volumes_report(workspace):
    rep = evaluate_volumes(workspace["bundle"], workspace["test"],
                           cache=workspace["cache"])
    assert set(rep.f1) == {0, 1}
    for v in rep.f1.values():
        assert 0.0 <= v <= 1.0


def test_baseline_proposed_scores_like_product_evaluation(workspace):
    # the baseline comparison and product evaluation share one scoring path,
    # so the proposed method reproduces the trained bundle's reports exactly
    cache = workspace["cache"]
    proposed = run_baselines(workspace["train"], workspace["test"], workspace["cfg"],
                             methods=("proposed",), cache=cache)["proposed"]
    bundle = workspace["bundle"]
    assert proposed.accuracy == evaluate_synthetic(bundle, workspace["test"],
                                                   cache=cache).accuracy
    assert proposed.f1 == evaluate_volumes(bundle, workspace["test"], cache=cache).f1


def test_f1_definition():
    assert _f1(set(), {1}) == 0.0
    assert _f1({1}, {1}) == 1.0
    assert _f1({1, 2}, {1}) == pytest.approx(2 / 3)
    assert _f1({2}, {1}) == 0.0


def test_codes_views_consistent(workspace):
    td = prepare_training_data(workspace["train"], workspace["cfg"],
                               cache=workspace["cache"])
    emb = workspace["bundle"].embedding
    zs = compute_codes(td.x, td.y, emb, "static")
    zt = compute_codes(td.x, td.y, emb, "spacetime")
    zf = compute_codes(td.x, td.y, emb, "fused")
    assert zs.shape == zt.shape == zf.shape == (len(td.labels), emb.c)
    assert np.allclose(zf, 0.5 * (zs + zt), atol=1e-12)
    with pytest.raises(PipelineError):
        compute_codes(td.x, td.y, emb, "both")


def test_bow_feature_shapes(workspace):
    bundle = workspace["bundle"]
    descs = [workspace["cache"].descriptors(workspace["test"].volumes[0], i)
             for i in range(3)]
    x, y = bow_features(descs, bundle.cb_static, bundle.cb_spacetime)
    assert x.shape == (3, 8) and y.shape == (3, 6)
    assert np.all(x >= 0) and np.all(y >= 0)
    sums = x.sum(axis=1)
    assert np.all((np.abs(sums - 1.0) <= 1e-9) | (sums == 0.0))


def test_bow_features_searches_once_per_view(workspace, monkeypatch):
    bundle = workspace["bundle"]
    descs = workspace["cache"].all_descriptors(workspace["test"].volumes[0])
    calls = []
    assign = codebook._assign

    def counted(data, *args):
        calls.append(data.shape[0])
        return assign(data, *args)

    monkeypatch.setattr(codebook, "_assign", counted)
    bow_features(descs, bundle.cb_static, bundle.cb_spacetime)
    # one search per view, over every plane's descriptors
    assert calls == [sum(len(s) for s, _ in descs), sum(len(t) for _, t in descs)]
    # a view without any descriptor needs no search
    calls.clear()
    x, y = bow_features([(static, []) for static, _ in descs[:3]],
                        bundle.cb_static, bundle.cb_spacetime)
    assert len(calls) == 1 and not y.any()


def test_four_frame_volume_gives_an_empty_spacetime_row(workspace):
    # pins the current policy: a view with no descriptors is a flagged empty
    # histogram, and bow_features gives it an all-zero row
    cfg, bundle = workspace["cfg"], workspace["bundle"]
    vol, gt = synth_phantom(PhantomSpec(class_count=1, seed=4, dims=(48, 48, 48),
                                        n_frames=4))
    static, spacetime = sequence_descriptors(vol, gt[0], cfg)
    assert static and spacetime == []
    assert quantize(spacetime, bundle.cb_spacetime).empty
    x, y = bow_features([(static, spacetime)], bundle.cb_static, bundle.cb_spacetime)
    assert x.sum() == pytest.approx(1.0)
    assert y.shape == (1, 6) and not y.any()


def test_candidate_codes_cover_all_candidates(workspace, monkeypatch):
    vol_path = workspace["test"].volumes[1]
    cache = workspace["cache"]
    descs = cache.all_descriptors(vol_path)

    def no_candidates(*args, **kwargs):
        raise AssertionError("cached descriptors need no candidate generation")

    monkeypatch.setattr(pipeline, "generate_candidates", no_candidates)
    codes = candidate_codes(cache.volume(vol_path), workspace["bundle"], cache_descs=descs)
    assert codes.shape[0] == 15
    assert codes.shape == (15, workspace["bundle"].embedding.c)


def test_benchmark_representations_smoke():
    table = benchmark_representations(n_train=30, n_test=100, d_static=400,
                                      d_spacetime=100, c=8)
    assert set(table) == {("concat", "train"), ("concat", "test"),
                          ("embedded", "train"), ("embedded", "test")}
    assert all(v > 0 for v in table.values())
    assert table[("embedded", "test")] < table[("concat", "test")]


def test_keypoint_overlays_written(workspace, tmp_path):
    vol = workspace["cache"].volume(workspace["test"].volumes[0])
    written, counts = dump_keypoint_overlays(vol, workspace["bundle"],
                                             str(tmp_path / "ov"))
    assert len(written) == 2 * vol.n_frames
    assert all(os.path.exists(p) for p in written)
    assert counts["original"] >= 0 and counts["smoothed"] >= 0


def test_train_rejects_bad_config(workspace):
    cfg = PipelineConfig(kernel="rbf")
    with pytest.raises(Exception):
        train_pipeline(workspace["train"], cfg)
