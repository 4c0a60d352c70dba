"""Workload definitions, their set-up, and the measured train/locate loop.

Every workload is a single-process closed loop with one operation in flight:
an in-process `planefinder train` (read_manifest + train_pipeline +
save_bundle) followed by in-process `planefinder locate` calls (load_bundle +
load_volume + locate_standard_planes) in a held-out volume. Set-up
synthesizes the phantom dataset in a process of its own, so the measured
process's peak RSS is that of training and locating. Each operation is kept
short, so that a run holds several samples of it, and each is timed by
`hostspeed.timed`, which corrects its wall time for the shared host's speed.
"""

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field

import numpy as np
import scipy

from planefinder import bundle as bundle_io
from planefinder import manifest as manifest_io
from planefinder import pipeline, synth
from planefinder import volume as volume_io
from planefinder.bundle import BundleError
from planefinder.classifier import ClassifierError
from planefinder.codebook import CodebookError
from planefinder.config import ConfigError, PipelineConfig
from planefinder.embedding import EmbeddingError
from planefinder.features import FeatureError
from planefinder.manifest import ManifestError
from planefinder.matio import MatIOError
from planefinder.smoothing import SmoothingError
from planefinder.volume import VolumeError

from perfbench import hostspeed, probes
from perfbench.trace import Tracer

# Errors planefinder raises on its own account; anything else is a defect of
# the benchmark and ends the run.
PROGRAM_ERRORS = (BundleError, ClassifierError, CodebookError, ConfigError,
                  EmbeddingError, FeatureError, ManifestError, MatIOError,
                  pipeline.PipelineError, SmoothingError, VolumeError)

@dataclass(frozen=True)
class Workload:
    volumes: int            # phantom volumes; the first half trains, the rest is held out
    synth: dict             # build_phantom_dataset keywords
    config: dict            # PipelineConfig overrides
    warm: bool = False      # train and locate on a descriptor cache filled before timing
    setup_repeats: int = 3  # syntheses per run; setup_s takes their median
    locates: int = 1        # locates per cycle, all in the first held-out volume


# Why each workload exists is recorded in BENCHMARK.json. desk trains on one
# volume and locates in one: 16 candidates is the fewest for which every seed
# tried (0-299) places three well-separated ground-truth planes, and it keeps
# one train or locate at 2-4 s, so a run holds several of each. fit trains on
# two volumes, the fewest that give k_static=2000 distinct static
# descriptors; its set-up is dominated by the one cache fill per run, and its
# warm locates take a fraction of a second, so each cycle repeats them.
WORKLOADS = {
    "desk": Workload(
        volumes=2,
        synth=dict(class_count=3, noise_sigma=0.005, n_negatives=-1,
                   dims=(64, 64, 64), n_frames=8),
        config=dict(k_static=64, k_spacetime=32, embed_c=8, candidates_n=16,
                    plane_size=64)),
    "fit": Workload(
        volumes=4,
        synth=dict(class_count=3, noise_sigma=0.005, n_negatives=-1,
                   dims=(48, 48, 48), n_frames=6),
        config=dict(k_static=2000, k_spacetime=200, embed_c=32, candidates_n=100,
                    plane_size=32),
        warm=True, setup_repeats=1, locates=8),
}


@dataclass
class Dataset:
    train_manifest: str
    test: manifest_io.DatasetManifest
    cache: pipeline.VolumeFeatureCache = None


@dataclass
class Outcome:
    """Operations of one run and what they returned."""
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    train_s: list = field(default_factory=list)  # corrected seconds, see hostspeed
    locate_s: list = field(default_factory=list)
    slowdown: list = field(default_factory=list)  # mean host slowdown during each timed operation
    hashes: list = field(default_factory=list)
    rankings: dict = field(default_factory=dict)  # (volume, class) -> [ranking, ...]
    f1: list = field(default_factory=list)
    truth_rank: list = field(default_factory=list)  # rank of the ground-truth candidate
    problems: list = field(default_factory=list)  # failed output checks

    def fail(self, what, exc):
        self.failed += 1
        self.errors.append("%s: %s: %s" % (what, type(exc).__name__, exc))


def environment(root, seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
            "commit": git_commit(root), "seed": seed}


def git_commit(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = os.path.join(root, ".git", ref)
    if os.path.isfile(loose):
        with open(loose) as fh:
            return fh.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def load_dataset(wl, cfg, data_dir):
    """Manifests of a synthesized dataset; a warm workload also fills the
    descriptor cache with every training record and every candidate of the
    located held-out volume."""
    train_path = os.path.join(data_dir, "train_manifest.tsv")
    ds = Dataset(train_manifest=train_path,
                 test=manifest_io.read_manifest(os.path.join(data_dir, "test_manifest.tsv")))
    if wl.warm:
        ds.cache = pipeline.VolumeFeatureCache(cfg)
        for rec in manifest_io.read_manifest(train_path).records:
            ds.cache.descriptors(rec.volume, rec.cand_index)
        ds.cache.all_descriptors(ds.test.volumes[0])
    return ds


def pool_shortfall(ds, cfg):
    """CodebookError text when the cached training descriptors hold fewer
    distinct rows than a codebook needs, else None."""
    records = manifest_io.read_manifest(ds.train_manifest).records
    descs = [ds.cache.descriptors(r.volume, r.cand_index) for r in records]
    for kind, k, rows in (("static", cfg.k_static, [d.values for s, _ in descs for d in s]),
                          ("spacetime", cfg.k_spacetime,
                           [d.values for _, t in descs for d in t])):
        distinct = np.unique(np.array(rows), axis=0).shape[0] if rows else 0
        if distinct < k:
            return CodebookError("%s pool has %d distinct descriptors, need at least k=%d"
                                 % (kind, distinct, k))
    return None


def train_once(ds, cfg, bundle_dir):
    """In-process `planefinder train`; returns the bundle content hash."""
    trained = pipeline.train_pipeline(manifest_io.read_manifest(ds.train_manifest), cfg,
                                      cache=ds.cache)
    return bundle_io.save_bundle(trained, bundle_dir).content_hash


def locate_once(bundle_dir, volume_path, plane_class, top_k, cache=None):
    """In-process `planefinder locate`, on cached descriptors if `cache` is
    given; returns (bundle hash, ranking)."""
    loaded = bundle_io.load_bundle(bundle_dir)
    vol = volume_io.load_volume(volume_path)
    descs = cache.all_descriptors(volume_path) if cache else None
    return loaded.content_hash, pipeline.locate_standard_planes(vol, loaded, plane_class,
                                                                top_k, cache_descs=descs)


def cycle(wl, ds, cfg, bundle_dir, out):
    """One training, then `wl.locates` locates in the first held-out volume;
    the plane class rotates over the locates. Returns the seconds spent."""
    t0 = time.perf_counter()
    out.attempted += 1
    try:
        bundle_hash, seconds, factor = hostspeed.timed(train_once, ds, cfg, bundle_dir)
    except PROGRAM_ERRORS as exc:
        out.fail("train", exc)
        return time.perf_counter() - t0
    out.hashes.append(bundle_hash)
    out.train_s.append(seconds)
    out.slowdown.append(factor)
    classes = ds.test.plane_classes
    vol_path = ds.test.volumes[0]
    for i in range(wl.locates):
        plane_class = classes[i % len(classes)]
        out.attempted += 1
        try:
            (loaded_hash, ranking), seconds, factor = hostspeed.timed(
                locate_once, bundle_dir, vol_path, plane_class, cfg.candidates_n, ds.cache)
        except PROGRAM_ERRORS as exc:
            out.fail("locate", exc)
            continue
        out.locate_s.append(seconds)
        out.slowdown.append(factor)
        if loaded_hash != out.hashes[-1]:
            out.problems.append("loaded bundle hash differs from the trained one")
        check_ranking(ranking, cfg.candidates_n, out)
        key = (os.path.basename(vol_path), plane_class)
        out.rankings.setdefault(key, []).append(ranking)
        truth = set(ds.test.ground_truth(vol_path, plane_class))
        out.f1.append(f1_score({c for c, score in ranking if score > 0}, truth))
        out.truth_rank.append(min(r for r, (c, _) in enumerate(ranking, 1) if c in truth))
    return time.perf_counter() - t0


def check_ranking(ranking, n, out):
    """All n candidates, by decision value descending, ties to the lower index."""
    idx = [i for i, _ in ranking]
    if sorted(idx) != list(range(n)):
        out.problems.append("ranking is not a permutation of %d candidates" % n)
    for (i, a), (j, b) in zip(ranking, ranking[1:]):
        if a < b or (a == b and i > j):
            out.problems.append("ranking out of order at candidate %d" % j)
            break


def f1_score(predicted, truth):
    tp = len(predicted & truth)
    if tp == 0:
        return 0.0
    precision, recall = tp / len(predicted), tp / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def determinism_problems(out):
    """Repeated trainings must give one bundle hash and repeated locates of
    one (volume, class) one ranking."""
    found = []
    if len(set(out.hashes)) > 1:
        found.append("bundle hashes differ between trainings: %s" % sorted(set(out.hashes)))
    for (vol, cls), runs in sorted(out.rankings.items()):
        if any(r != runs[0] for r in runs[1:]):
            found.append("rankings of %s class %d differ between locates" % (vol, cls))
    return found


def source_digest(root):
    """sha256 over planefinder's sources and the BLAS/OpenMP thread caps, so
    recorded outputs of one program are never compared with those of another,
    nor with sums reduced over another number of threads."""
    h = hashlib.sha256()
    for key in sorted(k for k in os.environ if k.endswith("_NUM_THREADS")):
        h.update(("%s=%s\0" % (key, os.environ[key])).encode())
    src = os.path.join(root, "src", "planefinder")
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    return h.hexdigest()


def recorded_problems(root, name, seed, out):
    """Criterion 8 across runs: the first run of a seed records its bundle
    hash and rankings, and every later run of the same sources must match."""
    if not out.hashes:
        return []
    seen = {"bundle_hash": out.hashes[0],
            "rankings": {"%s class %d" % k: [list(p) for p in v[0]]
                         for k, v in sorted(out.rankings.items())}}
    path = os.path.join(root, ".bench_work", "outputs",
                        "%s-s%d-%s.json" % (name, seed, source_digest(root)[:16]))
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path + ".%d" % os.getpid(), "w") as fh:
            json.dump(seen, fh)
        os.replace(path + ".%d" % os.getpid(), path)
        return []
    with open(path) as fh:
        before = json.load(fh)
    found = []
    if before["bundle_hash"] != seen["bundle_hash"]:
        found.append("bundle hash differs from an earlier run of this seed")
    for key, ranking in seen["rankings"].items():
        if key in before["rankings"] and before["rankings"][key] != ranking:
            found.append("ranking of %s differs from an earlier run of this seed" % key)
    return found


def config(name):
    return PipelineConfig(**WORKLOADS[name].config).validate()


def trace_path(root, name, seed, stage):
    return os.path.join(root, ".bench_work", "trace-%s-s%d-%s.json" % (name, seed, stage))


def set_up(name, seed, trace, root, work):
    """Set-up stage: synthesize the dataset into work/data, `setup_repeats`
    times (once, traced, with --trace 1). Returns the corrected seconds and
    the host slowdown of each."""
    wl = WORKLOADS[name]
    cfg = config(name)
    tracer = Tracer() if trace else None
    data_dir = os.path.join(work, "data")
    seconds, slowdown = [], []
    for _ in range(1 if trace else wl.setup_repeats):
        shutil.rmtree(data_dir, ignore_errors=True)
        if tracer:
            probes.install(tracer)
        try:
            _, corrected, factor = hostspeed.timed(synth.build_phantom_dataset, data_dir,
                                                   wl.volumes, seed, cfg, **wl.synth)
        finally:
            if tracer:
                tracer.restore()
        seconds.append(corrected)
        slowdown.append(factor)
    result = {"setup_s": seconds, "slowdown": slowdown}
    if tracer:
        tracer.dump(trace_path(root, name, seed, "setup"))
        result.update(self_s=tracer.self_times(), counts=tracer.counts,
                      overhead_s=tracer.overhead_s)
    return result


def measure(name, seed, seconds, trace, root, work):
    """Measured stage on the dataset in work/data. Untraced, it runs an
    untimed warm-up cycle, then loops train and locate cycles for at most
    `seconds` (at least one timed cycle). Traced, it runs one untraced and
    one traced cycle, so every run repeats a training and its locates."""
    wl = WORKLOADS[name]
    cfg = config(name)
    out = Outcome()
    bundle_dir = os.path.join(work, "bundle")
    tracer = Tracer() if trace else None
    if tracer:
        probes.install(tracer)
    try:
        ds, fill_s, _ = hostspeed.timed(load_dataset, wl, cfg, os.path.join(work, "data"))
    finally:
        if tracer:
            tracer.restore()
    if not wl.warm:
        fill_s = 0.0

    shortfall = pool_shortfall(ds, cfg) if wl.warm else None
    spent = {}
    if shortfall is not None:
        out.attempted += 1
        out.fail("train", shortfall)
    elif trace:
        spent["untraced"] = cycle(wl, ds, cfg, bundle_dir, out)
        probes.install(tracer)
        try:
            spent["traced"] = cycle(wl, ds, cfg, bundle_dir, out)
        finally:
            tracer.restore()
    else:
        # The first cycle pays first-call costs (imports, FFT and BLAS set-up)
        # that later operations do not; its outputs are checked, not timed.
        cycle(wl, ds, cfg, bundle_dir, out)
        out.train_s.clear()
        out.locate_s.clear()
        out.slowdown.clear()
        start = time.perf_counter()
        while not out.failed:  # start another cycle only if it fits in `seconds`
            last = cycle(wl, ds, cfg, bundle_dir, out)
            if time.perf_counter() - start + last > seconds:
                break

    out.problems += determinism_problems(out) + recorded_problems(root, name, seed, out)
    result = {
        "attempted": out.attempted, "failed": out.failed, "problems": out.problems,
        "errors": out.errors, "fill_s": fill_s, "train_s": out.train_s,
        "locate_s": out.locate_s, "slowdown": out.slowdown, "peak_rss_mb": peak_rss_mb(),
        "bundle_hash": out.hashes[0] if out.hashes else None,
        "rankings": {"%s class %d" % k: [i for i, _ in v[0]]
                     for k, v in sorted(out.rankings.items())},
        "truth_rank": out.truth_rank,
        "volume_f1": statistics.fmean(out.f1) if out.f1 else None,
        "env": environment(root, seed),
    }
    if tracer:
        tracer.dump(trace_path(root, name, seed, "measure"))
        result.update(self_s=tracer.self_times(), counts=tracer.counts,
                      overhead_s=tracer.overhead_s,
                      traced_minus_untraced_s=spent["traced"] - spent["untraced"]
                      if spent else None)
    return result


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
