import os
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from oracles import (benchmark_representations, label_rank, semantic_similarity,
                     sequence_descriptors_per_describer)
from planefinder import cli, codebook, features, pipeline
from planefinder.bundle import BundleError, load_bundle, save_bundle
from planefinder.classifier import decision_values
from planefinder.codebook import quantize
from planefinder.config import PipelineConfig
from planefinder.features import detect_static_keypoints
from planefinder.manifest import DatasetManifest, read_manifest
from planefinder.pgm import read_pgm
from planefinder.phantom import PhantomSpec, synth_phantom
from planefinder.pipeline import (PipelineError, VolumeFeatureCache, bow_features,
                                  candidate_codes, compute_codes,
                                  dump_keypoint_overlays, evaluate_synthetic,
                                  evaluate_volumes, locate_standard_planes,
                                  prepare_training_data, run_baselines,
                                  sequence_descriptors, train_from_data,
                                  train_pipeline, _f1)
from planefinder.smoothing import smooth_sequence
from planefinder.synth import build_phantom_dataset
from planefinder.volume import (PlaneParams, PlaneSequence, Volume4D, VolumeError,
                                extract_plane_sequence, load_volume, plane_from_center)

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


def test_sidecar_planes_are_the_ground_truth_candidates(tmp_path):
    # non-cubic dims: candidates built from (nz, ny, nx) or any other axis
    # order would differ from the ones the sidecar was written from
    cfg = PipelineConfig(candidates_n=16, plane_size=64)
    paths = build_phantom_dataset(str(tmp_path), 2, 1, cfg, dims=(64, 56, 72), n_frames=5)
    checked = 0
    for rec in (r for path in paths for r in read_manifest(path).records):
        if rec.plane_class < 0:
            continue
        with open(rec.volume.replace(".vol4", ".planes")) as fh:
            rows = [[float(s) for s in line.split()] for line in fh]
        sidecar = {int(r[0]): PlaneParams(origin=tuple(r[1:4]), axis_u=tuple(r[4:7]),
                                          axis_v=tuple(r[7:10]), width=cfg.plane_size,
                                          height=cfg.plane_size)
                   for r in rows}
        cands = pipeline.candidate_planes(load_volume(rec.volume).dims, cfg)
        assert cands[rec.cand_index] == sidecar[rec.plane_class]
        checked += 1
    assert checked == 6


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
    assert back.classifier.kernel == bundle.classifier.kernel == bundle.config.kernel
    for cid in bundle.classifier.class_ids:
        assert np.allclose(decision_values(back.classifier, z, cid),
                           decision_values(bundle.classifier, z, cid),
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
    # the top-1 hit rate is the share of volumes that locate's first
    # candidate hits
    test_m, cache = workspace["test"], workspace["cache"]
    for cid in (0, 1):
        hits = [locate_standard_planes(cache.volume(v), workspace["bundle"], cid, 1,
                                       cache_descs=cache.all_descriptors(v))[0][0]
                in test_m.ground_truth(v, cid) for v in test_m.volumes]
        assert rep.top1[cid] == np.mean(hits)


def test_top1_hit_breaks_ties_to_the_lower_index(workspace, monkeypatch):
    # every ground-truth candidate of any volume and class shares the top
    # score, so the lowest of them is each volume's best
    test_m = workspace["test"]
    truth = {(v, cid): test_m.ground_truth(v, cid) for v in test_m.volumes for cid in (0, 1)}
    tied = sorted(set().union(*truth.values()))
    assert len(tied) > 1

    def tied_scores(clf, codes):
        scores = np.zeros(len(codes))
        scores[tied] = 1.0
        return {cid: scores for cid in clf.class_ids}

    monkeypatch.setattr(pipeline, "_machine_scores", tied_scores)
    rep = evaluate_volumes(workspace["bundle"], test_m, cache=workspace["cache"])
    for cid in (0, 1):
        assert rep.top1[cid] == np.mean([tied[0] in truth[v, cid] for v in test_m.volumes])


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
    assert zs.shape == zt.shape == zf.shape == (len(td.x), emb.c)
    assert np.allclose(zf, 0.5 * (zs + zt), atol=1e-12)
    with pytest.raises(PipelineError):
        compute_codes(td.x, td.y, emb, "both")


def test_training_similarity_from_manifest_labels(workspace):
    td = prepare_training_data(workspace["train"], workspace["cfg"],
                               cache=workspace["cache"])
    labs = [(r.plane_onehot, r.diag_onehot) for r in workspace["train"].records]
    assert td.similarity.shape == (len(labs), len(labs))
    for i, a in enumerate(labs):
        for j, b in enumerate(labs):
            assert td.similarity[i, j] == semantic_similarity(a, b)


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
    nearest = codebook._nearest

    def counted(data, *args):
        calls.append(data.shape[0])
        return nearest(data, *args)

    monkeypatch.setattr(codebook, "_nearest", counted)
    bow_features(descs, bundle.cb_static, bundle.cb_spacetime)
    # one search per view, over every plane's descriptors
    assert calls == [sum(len(s) for s, _ in descs), sum(len(t) for _, t in descs)]
    # a view without any descriptor searches no row and gets all-zero rows
    calls.clear()
    x, y = bow_features([(static, spacetime[:0]) for static, spacetime in descs[:3]],
                        bundle.cb_static, bundle.cb_spacetime)
    assert calls == [sum(len(s) for s, _ in descs[:3]), 0]
    assert y.shape == (3, 6) and not y.any()


@pytest.mark.parametrize("capped", [False, True])
def test_training_histograms_equal_a_search(workspace, monkeypatch, capped):
    # an uncapped pool's training assignment gives X and Y without a search;
    # a pool capped by DESCRIPTOR_CAP is quantized by one search per view
    descs = [workspace["cache"].descriptors(r.volume, r.cand_index)
             for r in workspace["train"].records]
    sizes = [sum(len(s) for s, _ in descs), sum(len(t) for _, t in descs)]
    if capped:
        monkeypatch.setattr(pipeline, "DESCRIPTOR_CAP", min(sizes) - 5)
    searched = []
    quantize_planes = pipeline.quantize_planes

    def counted(planes, cb):
        searched.append(cb)
        return quantize_planes(planes, cb)

    monkeypatch.setattr(pipeline, "quantize_planes", counted)
    td = prepare_training_data(workspace["train"], workspace["cfg"], cache=workspace["cache"])
    assert searched == ([td.cb_static, td.cb_spacetime] if capped else [])
    for cb, pool in ((td.cb_static, sizes[0]), (td.cb_spacetime, sizes[1])):
        assert (cb.pool_assignment is not None
                and len(cb.pool_assignment) == (pipeline.DESCRIPTOR_CAP if capped else pool))
    x, y = bow_features(descs, td.cb_static, td.cb_spacetime)
    assert td.x.tobytes() == x.tobytes() and td.y.tobytes() == y.tobytes()


def test_training_histograms_from_a_fit_shaped_assignment_equal_quantize_planes(
        monkeypatch):
    # fit's static shape: 2,488 unit descriptors, a third of them noisy copies,
    # over 200 planes (some without any), at k = 2,000
    rng = np.random.default_rng(5)
    data = rng.normal(size=(2488, 128))
    data[-800:] = data[rng.integers(1688, size=800)] + 0.01 * rng.normal(size=(800, 128))
    data /= np.linalg.norm(data, axis=1, keepdims=True)
    cuts = np.sort(rng.integers(0, len(data) + 1, size=199))
    planes = np.split(data, cuts)
    assert any(len(p) == 0 for p in planes)
    cb = codebook.train_codebook(data, 2000, seed=7)
    assert cb.pool_assignment is not None
    want = codebook.quantize_planes(planes, cb)

    def no_search(*args):
        raise AssertionError("the training assignment needs no search")

    monkeypatch.setattr(codebook, "_nearest", no_search)
    got = pipeline._training_histograms(planes, cb)
    assert got.tobytes() == want.tobytes()


def test_four_frame_volume_gives_an_empty_spacetime_row(workspace):
    # pins the current policy: a view with no descriptors is a flagged empty
    # histogram, and bow_features gives it an all-zero row
    bundle = workspace["bundle"]
    vol, gt = synth_phantom(PhantomSpec(class_count=1, seed=4, dims=(48, 48, 48),
                                        n_frames=4))
    static, spacetime = sequence_descriptors(vol, [gt[0]])[0]
    assert len(static) and spacetime.values.shape == (0, 192)
    assert quantize(spacetime.values, bundle.cb_spacetime).empty
    x, y = bow_features([(static, spacetime)], bundle.cb_static, bundle.cb_spacetime)
    assert x.sum() == pytest.approx(1.0)
    assert y.shape == (1, 6) and not y.any()


def test_cached_descriptors_read_one_at_a_time(workspace):
    # perfbench.workloads.pool_shortfall stacks `d.values` of each cached
    # descriptor, and perfbench.probes._described reads `d.degenerate`
    rec = workspace["train"].records[0]
    for descs in workspace["cache"].descriptors(rec.volume, rec.cand_index):
        assert len(descs) and not any(d.degenerate for d in descs)
        assert np.array_equal(np.array([d.values for d in descs]), descs.values)


def _padding(descs):
    """The bytes of each record that no field covers."""
    raw = np.frombuffer(descs.tobytes(), np.uint8).reshape(len(descs), descs.itemsize)
    covered = np.zeros(descs.itemsize, bool)
    for name in descs.dtype.names:
        dtype, offset = descs.dtype.fields[name][:2]
        covered[offset:offset + dtype.itemsize] = True
    return raw[:, ~covered]


@pytest.mark.parametrize("degenerate", [False, True])
def test_sequence_descriptors_bytes_are_reproducible(monkeypatch, degenerate):
    # a desk plane described twice: the same bytes, padding all zero, also
    # when a degenerate row is dropped, which copies the rows that are kept
    vol, gt = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0))
    if degenerate:
        describe = pipeline.describe_static

        def with_a_degenerate_row(grads, points):
            descs = describe(grads, points)
            return features._records(np.vstack([np.zeros((1, descs.values.shape[1])),
                                                descs.values]),
                                     np.append(False, ~descs.degenerate))

        monkeypatch.setattr(pipeline, "describe_static", with_a_degenerate_row)
    first = sequence_descriptors(vol, [gt[0]])[0]
    second = sequence_descriptors(vol, [gt[0]])[0]
    for a, b in zip(first, second, strict=True):
        assert len(a) and a.tobytes() == b.tobytes()
        assert _padding(a).size and not _padding(a).any()
        assert not a.flags.writeable and not a.degenerate.any()


@pytest.mark.parametrize("name", ["describe_static", "describe_spacetime"])
def test_sequence_descriptors_drop_a_degenerate_row(monkeypatch, name):
    # no benchmark workload describes a degenerate row, so one is put first
    vol, gt = synth_phantom(PhantomSpec(class_count=1, seed=4, dims=(48, 48, 48),
                                        n_frames=6))
    want = sequence_descriptors(vol, [gt[0]])[0]
    describe = getattr(pipeline, name)

    def with_a_degenerate_row(frames, points):
        descs = describe(frames, points)
        return features._records(np.vstack([np.zeros((1, descs.values.shape[1])), descs.values]),
                                 np.append(False, ~descs.degenerate))

    monkeypatch.setattr(pipeline, name, with_a_degenerate_row)
    got = sequence_descriptors(vol, [gt[0]])[0]
    for a, b in zip(got, want, strict=True):
        assert len(a) == len(b) and not a.flags.writeable and not a.degenerate.any()
        assert a.values.tobytes() == b.values.tobytes()


def test_candidate_codes_cover_all_candidates(workspace, monkeypatch):
    vol_path = workspace["test"].volumes[1]
    cache = workspace["cache"]
    descs = cache.all_descriptors(vol_path)

    def no_candidates(*args, **kwargs):
        raise AssertionError("cached descriptors need no candidate generation")

    monkeypatch.setattr(pipeline, "generate_candidates", no_candidates)
    ranking = locate_standard_planes(cache.volume(vol_path), workspace["bundle"], 0, top_k=15,
                                     cache_descs=descs)
    assert sorted(i for i, _ in ranking) == list(range(15))
    codes = candidate_codes(descs, workspace["bundle"])
    assert codes.shape == (15, workspace["bundle"].embedding.c)


def test_codes_are_as_wide_as_the_labels_determine(workspace, tmp_path):
    # the training records relabeled normal: with one diagnosis S = 2 P P^T,
    # whose centered rank is the plane types less one, below embed_c; every
    # matrix that the codes pass through is that wide
    train, cfg, cache = workspace["train"], workspace["cfg"], workspace["cache"]
    normal = next(r.diag_onehot for r in train.records if r.condition == "normal")
    one = DatasetManifest(records=tuple(replace(r, diag_onehot=normal, condition="normal")
                                        for r in train.records))
    labels = [(r.plane_onehot, r.diag_onehot) for r in one.records]
    r = label_rank(labels)
    assert len({d for _, d in labels}) == 1
    assert r == len(labels[0][0]) - 1 == cfg.embed_c - 1
    bundle = train_pipeline(one, cfg, cache=cache)
    emb = bundle.embedding
    assert emb.c == r and emb.w_x.shape[1] == emb.w_y.shape[1] == r
    assert bundle.classifier.scaler.mins.shape == bundle.classifier.scaler.maxs.shape == (r,)
    for m in bundle.classifier.machines.values():
        assert m.support_vectors.shape[1] == r
    descs = cache.all_descriptors(workspace["test"].volumes[0])
    assert candidate_codes(descs, bundle).shape == (cfg.candidates_n, r)
    out = str(tmp_path / "bundle")
    save_bundle(bundle, out)
    with open(os.path.join(out, "bundle.manifest")) as fh:
        assert "embed_c=%d\n" % r in fh.readlines()
    back = load_bundle(out)
    assert back.embedding.c == r and back.content_hash == bundle.content_hash


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


def test_keypoint_overlays_without_bundle_mark_the_central_axial_plane(tmp_path):
    # the CLI's `keypoints` without --bundle: default config, central axial
    # plane of a desk phantom at the u8 precision of a loaded volume
    vol, _ = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0))
    vol = Volume4D(voxels=np.round(vol.voxels * 255.0).astype(np.uint8))
    size = PipelineConfig().plane_size
    written, counts = dump_keypoint_overlays(vol, None, str(tmp_path))
    assert len(written) == 2 * vol.n_frames
    assert all(read_pgm(p).shape == (size, size) for p in written)
    plane = plane_from_center((31.5, 31.5, 31.5), (0.0, 0.0, 1.0), width=size, height=size)
    seq = PlaneSequence(extract_plane_sequence(vol, plane).frames.astype(np.float32))
    assert seq.frames.dtype == np.float32
    for label, frames in (("original", seq.frames), ("smoothed", smooth_sequence(seq).frames)):
        kps = detect_static_keypoints(frames)
        assert counts[label] == len(kps) > 0
        for t in (0, vol.n_frames - 1):
            want = np.round(np.clip(frames[t].astype(np.float64), 0.0, 1.0) * 255.0)
            for x, y in np.rint(kps[kps[:, 2] == t, :2]).astype(int):
                want[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 255.0
            got = read_pgm(os.path.join(str(tmp_path), "%s_%03d.pgm" % (label, t)))
            assert np.array_equal(np.round(got * 255.0), want)


def test_train_rejects_bad_config(workspace):
    cfg = PipelineConfig(kernel="rbf")
    with pytest.raises(Exception):
        train_pipeline(workspace["train"], cfg)


# Several candidate planes described in one pass: each must come out as
# the same bytes as when it is described alone.

@pytest.fixture(scope="module")
def batch_cases():
    """Per frame count: a 48^3 phantom whose x < 24 half is still in t, 17
    of its 32^2 planes and each one's descriptors described alone. Planes 1
    and 3 are a plane in the still half (static keypoints, no space-time
    point) and one outside the volume (no feature of either kind)."""
    cases = {}
    for n_frames in (5, 6, 8):
        vol, _ = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=2,
                                           dims=(48, 48, 48), n_frames=n_frames))
        voxels = vol.voxels.copy()
        voxels[..., :24] = voxels[:1, ..., :24]
        vol = Volume4D(voxels)
        planes = pipeline.candidate_planes(vol.dims, PipelineConfig(candidates_n=15,
                                                                    plane_size=32))
        planes[1:1] = [plane_from_center((11.0, 23.5, 23.5), (1.0, 0.0, 0.0), 32, 32)]
        planes[3:3] = [plane_from_center((500.0, 23.5, 23.5), (1.0, 0.0, 0.0), 32, 32)]
        cases[n_frames] = vol, planes, [sequence_descriptors(vol, [q])[0] for q in planes]
    return cases


def _assert_same_records(got, want):
    for a, b in zip(got, want, strict=True):
        assert a.tobytes() == b.tobytes()
        assert isinstance(a, np.recarray) and not a.flags.writeable
        assert not a.degenerate.any()


@pytest.mark.parametrize("n_frames", [5, 6, 8])
def test_alone_planes_cover_every_case(batch_cases, n_frames):
    vol, planes, alone = batch_cases[n_frames]
    static, spacetime = alone[1]
    assert len(static) and not len(spacetime)
    assert not len(alone[3][0]) and not len(alone[3][1])
    assert sum(len(s) > 0 and len(t) > 0 for s, t in alone) > 5
    # a plane described alone is the composition of its describers
    for got, plane in zip(alone[:5], planes):
        for a, b in zip(got, sequence_descriptors_per_describer(vol, plane), strict=True):
            assert a.values.tobytes() == b.values.tobytes()
            assert a.degenerate.tobytes() == b.degenerate.tobytes()


@pytest.mark.parametrize("n_planes", [1, 2, 7, 8, 9, 17])
@pytest.mark.parametrize("n_frames", [5, 6, 8])
def test_one_pass_equals_one_plane_at_a_time(batch_cases, n_frames, n_planes):
    vol, planes, alone = batch_cases[n_frames]
    got = pipeline.sequence_descriptors(vol, planes[:n_planes])
    assert len(got) == n_planes
    for pair, want in zip(got, alone):
        _assert_same_records(pair, want)


def test_describe_planes_equals_one_plane_at_a_time(batch_cases):
    # 17 planes of six 32^2 frames take passes of 8, 8 and 1
    vol, planes, alone = batch_cases[6]
    assert pipeline.plane_passes(vol, planes) == [slice(0, 8), slice(8, 16), slice(16, 24)]
    for pair, want in zip(pipeline.describe_planes(vol, planes), alone, strict=True):
        _assert_same_records(pair, want)


@pytest.mark.parametrize("size, n_frames, step", [(32, 6, 8), (32, 5, 9), (32, 8, 6),
                                                  (48, 8, 2), (64, 8, 1), (128, 8, 1)])
def test_plane_passes_hold_their_byte_budget(size, n_frames, step):
    vol = Volume4D(np.zeros((n_frames, 2, 2, 2)))
    planes = [plane_from_center((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), size, size)] * 20
    passes = pipeline.plane_passes(vol, planes)
    assert len(planes[passes[0]]) == step
    assert sum(len(planes[part]) for part in passes) == 20
    assert pipeline.plane_passes(vol, []) == []


def _flag_degenerate_rows(monkeypatch):
    # no benchmark workload describes a degenerate row, so every row whose
    # point lies on an x divisible by 3 is flagged, in any plane of a pass
    def flagging(describe):
        def with_degenerate_rows(grads, points):
            descs = describe(grads, points)
            ok = ~descs.degenerate & (np.asarray(points)[:, 0] % 3 != 0)
            return features._records(np.where(ok[:, None], descs.values, 0.0), ok)
        return with_degenerate_rows

    for name in ("describe_static", "describe_spacetime"):
        monkeypatch.setattr(pipeline, name, flagging(getattr(pipeline, name)))


def test_degenerate_rows_dropped_mid_pass(batch_cases, monkeypatch):
    vol, planes, whole = batch_cases[6]
    _flag_degenerate_rows(monkeypatch)
    alone = [sequence_descriptors(vol, [q])[0] for q in planes[:9]]
    got = pipeline.sequence_descriptors(vol, planes[:9])
    dropped = [len(a) - len(b) for pair, kept in zip(whole, alone) for a, b in zip(pair, kept)]
    # static and space-time rows both dropped past the pass's first plane
    assert any(dropped[2::2]) and any(dropped[3::2])
    for pair, want in zip(got, alone, strict=True):
        _assert_same_records(pair, want)
        for descs in pair:
            assert not _padding(descs).any()


def test_one_full_32px_pass_memory_is_bounded(batch_cases):
    # 8 planes of six 32^2 frames, 192 KiB of float32 frames, peaked at
    # 4.1 MiB; one such plane alone at 0.53 MiB
    vol, planes, alone = batch_cases[6]
    tracemalloc.start()
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    try:
        got = pipeline.sequence_descriptors(vol, planes[:8])
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(got) == 8
    assert peak < 5 << 20


def test_a_failing_pass_names_its_volume_and_candidates(workspace, tmp_path, monkeypatch,
                                                        capsys):
    # one training volume names all 15 candidates, which take passes of 8
    # and 7; a bad record in the middle of the second fails that pass alone
    cfg = tiny_config()
    train_path, _ = build_phantom_dataset(str(tmp_path), 2, 1, cfg,
                                          **dict(TINY, n_negatives=-1))
    manifest = read_manifest(train_path)
    path = manifest.volumes[0]
    assert sorted(r.cand_index for r in manifest.records) == list(range(15))
    cache = VolumeFeatureCache(cfg)
    bad = cache.candidates(path)[11]
    extract = pipeline.extract_plane_sequence

    def failing(vol, params):
        if params == bad:
            raise VolumeError("unreadable plane")
        return extract(vol, params)

    monkeypatch.setattr(pipeline, "extract_plane_sequence", failing)
    with pytest.raises(PipelineError) as err:
        prepare_training_data(manifest, cfg, cache=cache)
    message = ("feature extraction failed for volume %s candidates "
               "8, 9, 10, 11, 12, 13, 14: unreadable plane" % path)
    assert str(err.value) == message
    assert isinstance(err.value.__cause__, VolumeError)
    # the first pass was described and cached
    monkeypatch.setattr(pipeline, "extract_plane_sequence", extract)
    want = [sequence_descriptors(cache.volume(path), [q])[0] for q in cache.candidates(path)[:8]]
    monkeypatch.setattr(pipeline, "extract_plane_sequence", failing)
    for i in range(8):
        _assert_same_records(cache.descriptors(path, i), want[i])
    # the bad candidate alone fails as a pass of one
    with pytest.raises(PipelineError) as err:
        cache.descriptors(path, 11)
    assert str(err.value) == ("feature extraction failed for volume %s candidates 11: "
                              "unreadable plane" % path)
    assert isinstance(err.value.__cause__, VolumeError)
    # planefinder locate describes all 15 through a cache of its own
    bundle_dir = str(tmp_path / "bundle")
    save_bundle(workspace["bundle"], bundle_dir)
    capsys.readouterr()
    assert cli.main(["locate", "--bundle", bundle_dir, "--volume", path, "--class", "0"]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_every_path_describes_through_sequence_descriptors(workspace, tmp_path, monkeypatch):
    # the benchmark's traced runs time the feature pass by wrapping this
    # name, so each path must describe every candidate it needs through it
    cfg, bundle, test = workspace["cfg"], workspace["bundle"], workspace["test"]
    vol_path = test.volumes[0]
    bundle_dir = str(tmp_path / "bundle")
    save_bundle(bundle, bundle_dir)
    described = []
    describe = pipeline.sequence_descriptors

    def counted(vol, planes):
        described.extend(planes)
        return describe(vol, planes)

    monkeypatch.setattr(pipeline, "sequence_descriptors", counted)
    # a forked child's calls never reach this process's count
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    paths = [
        (lambda: prepare_training_data(workspace["train"], cfg), len(workspace["train"].records)),
        (lambda: evaluate_synthetic(bundle, test), len(test.records)),
        (lambda: evaluate_volumes(bundle, test), len(test.volumes) * cfg.candidates_n),
        (lambda: locate_standard_planes(load_volume(vol_path), bundle, 0, top_k=3),
         cfg.candidates_n),
        (lambda: VolumeFeatureCache(cfg).descriptors(vol_path, 4), 1),
        (lambda: cli.main(["locate", "--bundle", bundle_dir, "--volume", vol_path,
                           "--class", "0"]), cfg.candidates_n),
    ]
    for run, n in paths:
        described.clear()
        run()
        assert len(described) == n


def test_training_describes_only_the_named_candidates(workspace, monkeypatch):
    # the default manifest names 6 of each volume's 15 candidates
    cfg, manifest = workspace["cfg"], workspace["train"]
    cache = VolumeFeatureCache(cfg)
    described = []
    extract = pipeline.extract_plane_sequence

    def counting(vol, params):
        described.append(params)
        return extract(vol, params)

    monkeypatch.setattr(pipeline, "extract_plane_sequence", counting)
    # a forked child's calls never reach this process's count
    monkeypatch.setattr(pipeline, "_cpus", lambda: 1)
    td = prepare_training_data(manifest, cfg, cache=cache)
    assert len(described) == len(manifest.records) == 12
    want = prepare_training_data(manifest, cfg, cache=workspace["cache"])
    assert td.x.tobytes() == want.x.tobytes() and td.y.tobytes() == want.y.tobytes()


# describe_planes spreads its passes over the CPUs the process may use:
# pipeline._cpus() processes, the caller and forked children. Every case
# below sets that count itself, so it runs the same on one CPU or many.

def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _described_by(monkeypatch, processes, vol, planes):
    monkeypatch.setattr(pipeline, "_cpus", lambda: processes)
    got = pipeline.describe_planes(vol, planes)
    _no_child_left()
    return got


@pytest.mark.parametrize("case", ["desk", "small", "four_frames", "degenerate"])
def test_two_processes_describe_the_bytes_of_one(batch_cases, monkeypatch, case):
    if case == "desk":  # 5 passes of one 64^2 x 8 plane
        vol, _ = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=0))
        planes = pipeline.candidate_planes(vol.dims, PipelineConfig(candidates_n=5,
                                                                    plane_size=64))
    elif case == "four_frames":  # 25 planes of four 32^2 frames: passes of 12, 12, 1
        vol, _ = synth_phantom(PhantomSpec(class_count=3, noise_sigma=0.005, seed=2,
                                           dims=(48, 48, 48), n_frames=4))
        planes = pipeline.candidate_planes(vol.dims, PipelineConfig(candidates_n=25,
                                                                    plane_size=32))
    else:  # 17 planes of six 32^2 frames: passes of 8, 8 and 1
        vol, planes, _ = batch_cases[6]
    if case == "degenerate":
        _flag_degenerate_rows(monkeypatch)
    passes = pipeline.plane_passes(vol, planes)
    assert len(passes) % 2 == 1
    one = _described_by(monkeypatch, 1, vol, planes)
    two = _described_by(monkeypatch, 2, vol, planes)
    assert len(one) == len(planes)
    for pair, want in zip(two, one, strict=True):
        _assert_same_records(pair, want)
        for descs in pair:
            assert not _padding(descs).any()
    if case == "four_frames":
        assert not any(len(t) for _, t in two) and any(len(s) for s, _ in two)
    if case == "degenerate":
        unflagged = batch_cases[6][2]
        assert any(len(a) < len(b) for pair, whole in zip(two, unflagged)
                   for a, b in zip(pair, whole))


def _failing_candidates(monkeypatch, planes, bad, error=lambda: VolumeError("unreadable plane")):
    extract = pipeline.extract_plane_sequence

    def failing(vol, params):
        if params in [planes[i] for i in bad]:
            raise error()
        return extract(vol, params)

    monkeypatch.setattr(pipeline, "extract_plane_sequence", failing)


@pytest.mark.parametrize("bad, named", [([11], range(8, 15)), ([3], range(8)),
                                        ([3, 11], range(8))])
def test_cold_locate_names_the_first_failing_pass(workspace, monkeypatch, bad, named):
    # the tiny config's 15 candidates take passes of 8 and 7: the caller
    # describes the first, a child the second
    bundle = workspace["bundle"]
    vol = load_volume(workspace["test"].volumes[0])
    planes = pipeline.candidate_planes(vol.dims, bundle.config)
    _failing_candidates(monkeypatch, planes, bad)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    with pytest.raises(PipelineError) as err:
        locate_standard_planes(vol, bundle, 0, top_k=3)
    assert str(err.value) == ("feature extraction failed for volume (in memory) candidates "
                              "%s: unreadable plane" % ", ".join(map(str, named)))
    assert isinstance(err.value.__cause__, VolumeError)
    _no_child_left()


def test_a_childs_earlier_pass_is_named_before_the_callers_later_one(batch_cases,
                                                                     monkeypatch):
    # 17 planes take passes of 8, 8 and 1: the caller's last pass fails, and
    # so does the child's pass before it
    vol, planes, _ = batch_cases[6]
    _failing_candidates(monkeypatch, planes, [9, 16])
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    with pytest.raises(PipelineError, match="candidates 8, 9, 10, 11, 12, 13, 14, 15: "):
        pipeline.describe_planes(vol, planes)
    _no_child_left()


class _Unpicklable(Exception):
    def __init__(self, plane, reason):
        super().__init__("plane %s: %s" % (plane, reason))


def test_a_child_error_that_does_not_pickle_comes_back_as_its_text(workspace, monkeypatch):
    cfg, path = workspace["cfg"], workspace["test"].volumes[0]
    cache = VolumeFeatureCache(cfg)
    _failing_candidates(monkeypatch, cache.candidates(path), [9],
                        lambda: _Unpicklable(9, "unreadable"))
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    with pytest.raises(PipelineError) as err:
        cache.all_descriptors(path)
    assert str(err.value) == ("feature extraction failed for volume %s candidates "
                              "8, 9, 10, 11, 12, 13, 14: plane 9: unreadable" % path)
    assert type(err.value.__cause__) is PipelineError
    _no_child_left()
    # the caller's pass stayed cached
    monkeypatch.setattr(pipeline, "sequence_descriptors", None)
    assert len(cache.describe(path, range(8))) == 8


def test_a_child_that_ends_early_fails_its_first_pass(batch_cases, monkeypatch):
    vol, planes, _ = batch_cases[6]
    caller, describe = os.getpid(), pipeline.sequence_descriptors

    def ending_in_a_child(vol, planes):
        if os.getpid() != caller:
            os._exit(3)
        return describe(vol, planes)

    monkeypatch.setattr(pipeline, "sequence_descriptors", ending_in_a_child)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    with pytest.raises(PipelineError, match=r"candidates 8, 9, 10, 11, 12, 13, 14, 15: "
                                            r"describing process \d+ ended early"):
        pipeline.describe_planes(vol, planes)
    _no_child_left()


def test_children_are_killed_when_the_callers_share_raises(batch_cases, monkeypatch):
    vol, planes, _ = batch_cases[6]
    caller = os.getpid()

    class Stop(BaseException):
        pass

    def stopping(vol, planes):
        if os.getpid() == caller:
            raise Stop()
        time.sleep(60)

    monkeypatch.setattr(pipeline, "sequence_descriptors", stopping)
    monkeypatch.setattr(pipeline, "_cpus", lambda: 3)
    t0 = time.perf_counter()
    with pytest.raises(Stop):
        pipeline.describe_planes(vol, planes)
    assert time.perf_counter() - t0 < 30
    _no_child_left()


def test_cached_candidates_fork_nothing(workspace, monkeypatch):
    cfg, path = workspace["cfg"], workspace["test"].volumes[1]
    cache = VolumeFeatureCache(cfg)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(pipeline, "_cpus", lambda: 2)
    first = cache.all_descriptors(path)
    assert forks == [1]
    _no_child_left()
    again = cache.all_descriptors(path)
    assert forks == [1] and all(a is b for a, b in zip(again, first, strict=True))
    # one pass forks nothing either
    assert cache.describe(path, [2, 3]) == first[2:4] and forks == [1]
