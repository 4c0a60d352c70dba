"""Model bundle: every trained component serialized into one directory."""

import hashlib
import os
from dataclasses import dataclass

import numpy as np

from . import matio
from .classifier import FeatureScaler, MulticlassModel, SvmModel
from .codebook import Codebook
from .config import (ConfigError, PipelineConfig, config_text, load_config, read_lines,
                     save_config)
from .embedding import EmbeddingModel


BUNDLE_FORMAT = "planefinder-bundle-2"


class BundleError(Exception):
    pass


@dataclass(frozen=True)
class ModelBundle:
    config: PipelineConfig
    cb_static: Codebook
    cb_spacetime: Codebook
    embedding: EmbeddingModel
    classifier: MulticlassModel
    content_hash: str = ""

    def with_hash(self):
        return ModelBundle(config=self.config, cb_static=self.cb_static,
                           cb_spacetime=self.cb_spacetime, embedding=self.embedding,
                           classifier=self.classifier,
                           content_hash=compute_hash(self))


def _matrices(bundle):
    mats = [
        ("codebook_static", bundle.cb_static.centroids),
        ("codebook_spacetime", bundle.cb_spacetime.centroids),
        ("embed_wx", bundle.embedding.w_x),
        ("embed_wy", bundle.embedding.w_y),
        ("embed_mean_x", bundle.embedding.mean_x),
        ("embed_mean_y", bundle.embedding.mean_y),
    ]
    any_machine = next(iter(bundle.classifier.machines.values()))
    mats.append(("scaler_mins", any_machine.scaler.mins))
    mats.append(("scaler_maxs", any_machine.scaler.maxs))
    for cid in bundle.classifier.class_ids:
        m = bundle.classifier.machines[cid]
        mats.append(("svm_%d_sv" % cid, m.support_vectors))
        mats.append(("svm_%d_coef" % cid, m.dual_coefs))
    return mats


def _meta_lines(bundle):
    emb = bundle.embedding
    lines = [
        "format=" + BUNDLE_FORMAT,
        "classes=%s" % ",".join(str(c) for c in bundle.classifier.class_ids),
        "embed_c=%d" % emb.c,
        "embed_epsilon=%.17g" % emb.epsilon,
        "embed_train_n=%d" % emb.train_n,
        "scaler_passthrough=%d"
        % int(next(iter(bundle.classifier.machines.values())).scaler.passthrough),
    ]
    for cid in bundle.classifier.class_ids:
        m = bundle.classifier.machines[cid]
        lines.append("svm_%d_bias=%.17g" % (cid, m.bias))
        lines.append("svm_%d_c=%.17g" % (cid, m.c))
        lines.append("svm_%d_weights=%.17g,%.17g" % (cid, *m.class_weights))
        lines.append("svm_%d_kernel=%s" % (cid, m.kernel))
    return lines


def compute_hash(bundle):
    h = hashlib.sha256()
    h.update(config_text(bundle.config).encode())
    for line in _meta_lines(bundle):
        h.update(line.encode())
    for name, arr in _matrices(bundle):
        h.update(name.encode())
        h.update(np.ascontiguousarray(np.atleast_2d(arr), dtype="<f8").tobytes())
    return h.hexdigest()


def save_bundle(bundle, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    bundle = bundle.with_hash() if not bundle.content_hash else bundle
    for name, arr in _matrices(bundle):
        matio.write_matrix(os.path.join(out_dir, name + ".mat"), arr)
    save_config(bundle.config, os.path.join(out_dir, "config.txt"))
    with open(os.path.join(out_dir, "bundle.manifest"), "w") as fh:
        for line in _meta_lines(bundle):
            fh.write(line + "\n")
        for name, arr in _matrices(bundle):
            shape = np.atleast_2d(arr).shape
            fh.write("matrix=%s %d %d\n" % (name, shape[0], shape[1]))
        fh.write("hash=%s\n" % bundle.content_hash)
    return bundle


def _csv(parse):
    return lambda text: tuple(parse(v) for v in text.split(","))


def load_bundle(path):
    mpath = os.path.join(path, "bundle.manifest")
    if not os.path.exists(mpath):
        raise BundleError("no bundle.manifest under %s" % path)
    meta = {}
    for lineno, line in enumerate(read_lines(mpath, BundleError, "bundle manifest"), 1):
        key, sep, val = line.rstrip("\n").partition("=")
        if not sep:
            raise BundleError("%s line %d: expected key=value" % (mpath, lineno))
        meta.setdefault(key, []).append(val)

    def one(key, parse=str):
        if key not in meta:
            raise BundleError("%s lacks key %r" % (mpath, key))
        if len(meta[key]) > 1:
            raise BundleError("%s key %r appears %d times" % (mpath, key, len(meta[key])))
        try:
            return parse(meta[key][0])
        except ValueError as exc:
            raise BundleError("%s key %r: %s" % (mpath, key, exc)) from exc

    def mat(name, flat=False):
        try:
            arr = matio.read_matrix(os.path.join(path, name + ".mat"))
        except matio.MatIOError as exc:
            raise BundleError("bundle matrix %s: %s" % (name, exc)) from exc
        return arr.ravel() if flat else arr

    fmt = one("format")
    if fmt != BUNDLE_FORMAT:
        raise BundleError("%s: format %r, expected %r" % (mpath, fmt, BUNDLE_FORMAT))
    try:
        cfg = load_config(os.path.join(path, "config.txt"))
    except ConfigError as exc:
        raise BundleError("bundle config: %s" % exc) from exc
    scaler = FeatureScaler(mins=mat("scaler_mins", flat=True),
                           maxs=mat("scaler_maxs", flat=True),
                           passthrough=bool(one("scaler_passthrough", int)))
    class_ids = one("classes", _csv(int))
    machines = {}
    for cid in class_ids:
        weights = one("svm_%d_weights" % cid, _csv(float))
        if len(weights) != 2:
            raise BundleError("%s key 'svm_%d_weights': expected two class weights"
                              % (mpath, cid))
        machines[cid] = SvmModel(
            support_vectors=mat("svm_%d_sv" % cid),
            dual_coefs=mat("svm_%d_coef" % cid, flat=True),
            bias=one("svm_%d_bias" % cid, float),
            c=one("svm_%d_c" % cid, float),
            class_weights=weights,
            kernel=one("svm_%d_kernel" % cid),
            scaler=scaler)
    emb = EmbeddingModel(
        w_x=mat("embed_wx"), w_y=mat("embed_wy"),
        mean_x=mat("embed_mean_x", flat=True), mean_y=mat("embed_mean_y", flat=True),
        c=one("embed_c", int), epsilon=one("embed_epsilon", float),
        train_n=one("embed_train_n", int))
    bundle = ModelBundle(
        config=cfg,
        cb_static=Codebook(centroids=mat("codebook_static"), descriptor_kind="static"),
        cb_spacetime=Codebook(centroids=mat("codebook_spacetime"),
                              descriptor_kind="spacetime"),
        embedding=emb,
        classifier=MulticlassModel(class_ids=class_ids, machines=machines),
        content_hash=one("hash"))
    if compute_hash(bundle) != bundle.content_hash:
        raise BundleError("bundle hash mismatch under %s" % path)
    return bundle
