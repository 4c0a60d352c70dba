"""End-to-end orchestration: training, plane localization, evaluation and
baselines."""

import os
from dataclasses import dataclass, field

import numpy as np

from . import pgm
from .bundle import ModelBundle, save_bundle
from .classifier import decision_values, fit_scaler, identity_scaler, train_multiclass
# quantize stays bound here: the benchmark's traced runs wrap pipeline.quantize
from .codebook import quantize, quantize_planes, train_codebook  # noqa: F401
from .config import PipelineConfig
from .embedding import (build_similarity_matrix, embed, embed_fused, fit_embedding)
from .features import (describe_spacetime, describe_static, detect_spacetime_points,
                       detect_static_keypoints)
from .smoothing import smooth_sequence
from .volume import (PlaneSequence, extract_plane_sequence, generate_candidates,
                     load_volume)

KMEANS_SEED = 7
POOL_SEED = 11  # the space-time pool draws with POOL_SEED + 1
DESCRIPTOR_CAP = 200000  # descriptors per codebook pool
CANDIDATE_SEED = 0


class PipelineError(Exception):
    pass


@dataclass
class EvaluationReport:
    accuracy: dict = field(default_factory=dict)  # (class_id, condition) -> value
    f1: dict = field(default_factory=dict)        # class_id -> mean F1 over volumes


def candidate_planes(vol, cfg):
    return generate_candidates(vol, cfg.candidates_n, CANDIDATE_SEED,
                               width=cfg.plane_size, height=cfg.plane_size)


def _plane_sequence(vol, params):
    """The plane resampled in float64 and held in float32: smoothing, DoG and
    Harris3D run in float32, the describers in float64."""
    seq = extract_plane_sequence(vol, params)
    return PlaneSequence(params=params, frames=seq.frames.astype(np.float32))


def sequence_descriptors(vol, params, cfg):
    """Full feature path for one candidate plane: resample, smooth, detect and
    describe both feature kinds. Degenerate descriptors are dropped."""
    seq = smooth_sequence(_plane_sequence(vol, params))
    kps = detect_static_keypoints(seq.frames)
    static = [d for d in describe_static(seq.frames, kps) if not d.degenerate]
    if seq.n_frames >= 5:
        pts = detect_spacetime_points(seq)
        spacetime = [d for d in describe_spacetime(seq, pts) if not d.degenerate]
    else:
        spacetime = []
    return static, spacetime


def bow_features(descs, cb_s, cb_t):
    """Quantize per-plane descriptor pairs into stacked (X, Y) matrices, one
    nearest-centroid search per view."""
    return (quantize_planes([static for static, _ in descs], cb_s),
            quantize_planes([spacetime for _, spacetime in descs], cb_t))


class VolumeFeatureCache:
    """Per-volume descriptor cache so repeated evaluations reuse the feature
    path (candidate generation is deterministic from the config)."""

    def __init__(self, cfg):
        self.cfg = cfg
        self._volumes = {}
        self._cands = {}
        self._descs = {}

    def volume(self, path):
        if path not in self._volumes:
            self._volumes[path] = load_volume(path)
        return self._volumes[path]

    def candidates(self, path):
        if path not in self._cands:
            self._cands[path] = candidate_planes(self.volume(path), self.cfg)
        return self._cands[path]

    def descriptors(self, path, cand_index):
        key = (path, cand_index)
        if key not in self._descs:
            vol = self.volume(path)
            params = self.candidates(path)[cand_index]
            self._descs[key] = sequence_descriptors(vol, params, self.cfg)
        return self._descs[key]

    def all_descriptors(self, path):
        return [self.descriptors(path, i) for i in range(self.cfg.candidates_n)]


@dataclass
class TrainData:
    x: np.ndarray
    y: np.ndarray
    labels: list
    plane_classes: np.ndarray
    conditions: list
    cb_static: object
    cb_spacetime: object


def prepare_training_data(manifest, cfg, cache=None):
    """Descriptor extraction, codebook training and quantization for every
    labeled training candidate."""
    manifest.validate(candidate_count=cfg.candidates_n)
    cache = cache or VolumeFeatureCache(cfg)
    descs = []
    for rec in manifest.records:
        try:
            descs.append(cache.descriptors(rec.volume, rec.cand_index))
        except Exception as exc:
            raise PipelineError(
                "feature extraction failed for volume %s candidate %d: %s"
                % (rec.volume, rec.cand_index, exc)) from exc
    pool_s = _pool([d for s, _ in descs for d in s], POOL_SEED)
    pool_t = _pool([d for _, t in descs for d in t], POOL_SEED + 1)
    cb_s = train_codebook(pool_s, cfg.k_static, seed=KMEANS_SEED,
                          max_iter=cfg.kmeans_max_iter, descriptor_kind="static")
    cb_t = train_codebook(pool_t, cfg.k_spacetime, seed=KMEANS_SEED,
                          max_iter=cfg.kmeans_max_iter, descriptor_kind="spacetime")
    x, y = bow_features(descs, cb_s, cb_t)
    return TrainData(
        x=x, y=y,
        labels=[rec.labels for rec in manifest.records],
        plane_classes=np.array([rec.plane_class for rec in manifest.records]),
        conditions=[rec.condition for rec in manifest.records],
        cb_static=cb_s, cb_spacetime=cb_t)


def _pool(descriptors, seed):
    if len(descriptors) <= DESCRIPTOR_CAP:
        return descriptors
    rng = np.random.default_rng(seed)
    idx = rng.choice(len(descriptors), size=DESCRIPTOR_CAP, replace=False)
    return [descriptors[i] for i in sorted(idx)]


def compute_codes(x, y, emb, view):
    if view == "static":
        return embed(x, emb, "static")
    if view == "spacetime":
        return embed(y, emb, "spacetime")
    if view == "fused":
        return embed_fused(x, y, emb)
    raise PipelineError("unknown view %r" % view)


def train_from_data(td, cfg):
    s = build_similarity_matrix(td.labels)
    emb = fit_embedding(td.x, td.y, s, cfg.embed_c)
    codes = compute_codes(td.x, td.y, emb, cfg.view)
    scaler = fit_scaler(codes)
    clf = train_multiclass(codes, td.plane_classes, c=cfg.svm_c,
                           kernel=cfg.kernel, scaler=scaler)
    return ModelBundle(config=cfg, cb_static=td.cb_static,
                       cb_spacetime=td.cb_spacetime, embedding=emb,
                       classifier=clf).with_hash()


def train_pipeline(manifest, cfg, cache=None):
    """Full training path; deterministic for a fixed manifest + config."""
    cfg.validate()
    td = prepare_training_data(manifest, cfg, cache=cache)
    return train_from_data(td, cfg)


def candidate_codes(vol, bundle, cache_descs=None):
    """Codes of every candidate plane of `vol`, one row per candidate. The
    candidates are generated and described only when `cache_descs` (one
    descriptor pair per candidate) is not given."""
    cfg = bundle.config
    if cache_descs is None:
        cache_descs = [sequence_descriptors(vol, p, cfg)
                       for p in candidate_planes(vol, cfg)]
    x, y = bow_features(cache_descs, bundle.cb_static, bundle.cb_spacetime)
    return compute_codes(x, y, bundle.embedding, cfg.view)


def locate_standard_planes(vol, bundle, plane_class, top_k, cache_descs=None):
    """Rank all candidate planes of a volume by one class's decision value.

    Ties break toward the lower candidate index.
    """
    if top_k < 1:
        raise PipelineError("top_k must be >= 1")
    if plane_class not in bundle.classifier.class_ids:
        raise PipelineError("no machine for plane class %r" % plane_class)
    codes = candidate_codes(vol, bundle, cache_descs=cache_descs)
    scores = decision_values(bundle.classifier.machines[plane_class], codes)
    order = np.lexsort((np.arange(len(scores)), -scores))
    return [(int(i), float(scores[i])) for i in order[:min(top_k, len(scores))]]


def _machine_scores(clf, codes):
    return {cid: decision_values(clf.machines[cid], codes) for cid in clf.class_ids}


def _record_features(manifest, cache, cb_s, cb_t):
    """BoW (X, Y) of the manifest's labeled candidates, one row per record."""
    descs = [cache.descriptors(r.volume, r.cand_index) for r in manifest.records]
    return bow_features(descs, cb_s, cb_t)


def _score(clf, manifest, record_codes=None, volume_codes=None):
    """The one scoring path of product evaluation and the baselines.

    `record_codes` (one row per manifest record) gives the per-class,
    per-condition binary accuracy; `volume_codes` ({volume path: one row per
    candidate}) gives the per-class retrieval F1 against the manifest's
    ground truth, averaged over volumes.
    """
    report = EvaluationReport()
    if record_codes is not None:
        scores = _machine_scores(clf, record_codes)
        plane = np.array([r.plane_class for r in manifest.records])
        cond = np.array([r.condition for r in manifest.records])
        for cid in clf.class_ids:
            pred_pos = scores[cid] > 0
            true_pos = plane == cid
            for condition in ("normal", "abnormal"):
                sel = cond == condition
                if sel.any():
                    report.accuracy[(cid, condition)] = float(
                        np.mean(pred_pos[sel] == true_pos[sel]))
    if volume_codes is not None:
        per_class = {cid: [] for cid in clf.class_ids}
        for vol_path, codes in volume_codes.items():
            scores = _machine_scores(clf, codes)
            for cid in clf.class_ids:
                truth = set(manifest.ground_truth(vol_path, cid))
                if not truth:
                    raise PipelineError(
                        "volume %s lacks ground truth for class %d" % (vol_path, cid))
                predicted = set(np.nonzero(scores[cid] > 0)[0].tolist())
                per_class[cid].append(_f1(predicted, truth))
        for cid, values in per_class.items():
            report.f1[cid] = float(np.mean(values))
    return report


def evaluate_synthetic(bundle, manifest, cache=None):
    """Per-class, per-condition binary accuracy over labeled candidates."""
    manifest.validate(candidate_count=bundle.config.candidates_n)
    cache = cache or VolumeFeatureCache(bundle.config)
    x, y = _record_features(manifest, cache, bundle.cb_static, bundle.cb_spacetime)
    codes = compute_codes(x, y, bundle.embedding, bundle.config.view)
    return _score(bundle.classifier, manifest, record_codes=codes)


def evaluate_volumes(bundle, manifest, cache=None):
    """Retrieval F1 per class: positives among all candidates of each volume
    against the manifest's ground-truth candidate indices, averaged over
    volumes."""
    manifest.validate(candidate_count=bundle.config.candidates_n)
    cache = cache or VolumeFeatureCache(bundle.config)
    codes = {v: candidate_codes(cache.volume(v), bundle,
                                cache_descs=cache.all_descriptors(v))
             for v in manifest.volumes}
    return _score(bundle.classifier, manifest, volume_codes=codes)


def _f1(predicted, truth):
    if not predicted:
        return 0.0
    tp = len(predicted & truth)
    precision = tp / len(predicted)
    recall = tp / len(truth)
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


# ---------------------------------------------------------------------------
# baselines


def _representations(td, cfg):
    """Feature matrices per method, shared across train and test."""
    s_sup = build_similarity_matrix(td.labels)
    s_id = np.eye(len(td.labels))
    emb_sup = fit_embedding(td.x, td.y, s_sup, cfg.embed_c)
    emb_cca = fit_embedding(td.x, td.y, s_id, cfg.embed_c)

    def make(x, y, method):
        if method == "static":
            return x
        if method == "spacetime":
            return y
        if method == "concat":
            return np.hstack([x, y])
        if method == "cca":
            return compute_codes(x, y, emb_cca, cfg.view)
        if method == "proposed":
            return compute_codes(x, y, emb_sup, cfg.view)
        raise PipelineError("unknown method %r" % method)

    return make


BASELINE_METHODS = ("static", "spacetime", "concat", "cca", "proposed")


def run_baselines(train_manifest, test_manifest, cfg, methods=BASELINE_METHODS,
                  cache=None):
    """Train and evaluate every method on identical features and SVM settings.

    Returns {method: EvaluationReport}.
    """
    cache = cache or VolumeFeatureCache(cfg)
    td = prepare_training_data(train_manifest, cfg, cache=cache)
    make = _representations(td, cfg)

    test_manifest.validate(candidate_count=cfg.candidates_n)
    tx, ty = _record_features(test_manifest, cache, td.cb_static, td.cb_spacetime)
    vol_feats = {v: bow_features(cache.all_descriptors(v), td.cb_static, td.cb_spacetime)
                 for v in test_manifest.volumes}

    results = {}
    for method in methods:
        z_train = make(td.x, td.y, method)
        scaler = (identity_scaler(z_train.shape[1])
                  if method in ("static", "spacetime", "concat")
                  else fit_scaler(z_train))
        clf = train_multiclass(z_train, td.plane_classes, c=cfg.svm_c,
                               kernel=cfg.kernel, scaler=scaler)
        results[method] = _score(
            clf, test_manifest, record_codes=make(tx, ty, method),
            volume_codes={v: make(vx, vy, method) for v, (vx, vy) in vol_feats.items()})
    return results


def dump_keypoint_overlays(vol, bundle, out_dir, plane=None):
    """Write original-frame and smoothed-frame overlays with detected static
    points marked, for the given plane (default: the central axial plane)."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = bundle.config if bundle is not None else PipelineConfig()
    if plane is None:
        from .volume import plane_from_center
        nx, ny, nz = vol.dims
        plane = plane_from_center(((nx - 1) / 2, (ny - 1) / 2, (nz - 1) / 2),
                                  (0.0, 0.0, 1.0), width=cfg.plane_size,
                                  height=cfg.plane_size)
    seq = _plane_sequence(vol, plane)
    smoothed = smooth_sequence(seq)
    written = []
    counts = {}
    for label, frames in (("original", seq.frames), ("smoothed", smoothed.frames)):
        kps = detect_static_keypoints(frames)
        counts[label] = len(kps)
        for t, frame in enumerate(frames):
            overlay = frame.copy()
            for x, y in np.rint(kps[kps[:, 2] == t, :2]).astype(int):
                overlay[max(0, y - 1):y + 2, max(0, x - 1):x + 2] = 1.0
            path = os.path.join(out_dir, "%s_%03d.pgm" % (label, t))
            pgm.write_pgm(path, overlay)
            written.append(path)
    return written, counts
