"""Command line interface for the plane localization pipeline."""

import argparse
import sys

import numpy as np

from . import pgm
from .bundle import load_bundle, save_bundle
from .config import PipelineConfig, load_config
from .manifest import read_manifest
from .pipeline import (VolumeFeatureCache, dump_keypoint_overlays, evaluate_synthetic,
                       evaluate_volumes, locate_standard_planes, train_pipeline)
from .smoothing import SmoothingConfig, l0_smooth
from .synth import build_phantom_dataset
from .volume import load_volume


def _add_config_arg(p):
    p.add_argument("--config", help="key=value config file")


def _load_cfg(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    return PipelineConfig()


def _write_report(rows, report_out):
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        print("  ".join(str(v).ljust(w) for v, w in zip(r, widths)))
    if report_out:
        with open(report_out, "w") as fh:
            for r in rows:
                fh.write("\t".join(str(v) for v in r) + "\n")


def cmd_synth(args):
    cfg = _load_cfg(args)
    train_path, test_path = build_phantom_dataset(
        args.out, args.volumes, args.seed, cfg,
        class_count=args.classes, n_negatives=args.negatives,
        noise_sigma=args.noise_sigma, dims=tuple(args.dims), n_frames=args.frames)
    print("wrote %s" % train_path)
    print("wrote %s" % test_path)


def cmd_train(args):
    cfg = _load_cfg(args)
    manifest = read_manifest(args.manifest)
    bundle = train_pipeline(manifest, cfg)
    save_bundle(bundle, args.out)
    print("bundle hash: %s" % bundle.content_hash)


def cmd_locate(args):
    bundle = load_bundle(args.bundle)
    vol = load_volume(args.volume)
    ranked = locate_standard_planes(vol, bundle, args.plane_class, args.top_k)
    rows = [("rank", "candidate", "decision")]
    for rank, (idx, score) in enumerate(ranked, 1):
        rows.append((rank, idx, "%.6f" % score))
    _write_report(rows, args.report_out)


def cmd_eval(args):
    bundle = load_bundle(args.bundle)
    manifest = read_manifest(args.manifest)
    cache = VolumeFeatureCache(bundle.config)
    if args.mode == "synthetic":
        report = evaluate_synthetic(bundle, manifest, cache=cache)
        rows = [("class", "condition", "accuracy")]
        for (cid, cond), acc in sorted(report.accuracy.items()):
            rows.append((cid, cond, "%.4f" % acc))
    else:
        report = evaluate_volumes(bundle, manifest, cache=cache)
        rows = [("class", "mean_f1")]
        for cid, f1 in sorted(report.f1.items()):
            rows.append((cid, "%.4f" % f1))
    _write_report(rows, args.report_out)


def cmd_keypoints(args):
    vol = load_volume(args.volume)
    bundle = load_bundle(args.bundle) if args.bundle else None
    written, counts = dump_keypoint_overlays(vol, bundle, args.overlay)
    print("wrote %d overlays (original points: %d, smoothed points: %d)"
          % (len(written), counts["original"], counts["smoothed"]))


def cmd_smooth(args):
    img = pgm.read_pgm(args.infile)
    out = l0_smooth(img, SmoothingConfig(lam=args.lam))
    pgm.write_pgm(args.outfile, np.clip(out, 0.0, 1.0))
    print("wrote %s" % args.outfile)


def build_parser():
    ap = argparse.ArgumentParser(prog="planefinder",
                                 description="Standard plane localization in 4D volumes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a phantom dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--volumes", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--noise-sigma", type=float, default=0.02)
    p.add_argument("--negatives", type=int, default=10,
                   help="labeled non-standard candidates per volume; -1 = all")
    p.add_argument("--dims", type=int, nargs=3, default=[64, 64, 64])
    p.add_argument("--frames", type=int, default=8)
    _add_config_arg(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model bundle")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    _add_config_arg(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("locate", help="rank candidate planes for one class")
    p.add_argument("--bundle", required=True)
    p.add_argument("--volume", required=True)
    p.add_argument("--class", dest="plane_class", type=int, required=True)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_locate)

    p = sub.add_parser("eval", help="evaluate a bundle on a manifest")
    p.add_argument("--bundle", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--mode", choices=("synthetic", "volume"), default="synthetic")
    p.add_argument("--report-out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("keypoints", help="dump keypoint overlay frames")
    p.add_argument("--volume", required=True)
    p.add_argument("--overlay", required=True)
    p.add_argument("--bundle")
    p.set_defaults(func=cmd_keypoints)

    p = sub.add_parser("smooth", help="L0-smooth one PGM image")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=0.02)
    p.set_defaults(func=cmd_smooth)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except Exception as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
