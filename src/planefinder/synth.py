"""Phantom dataset generation: volumes, ground-truth sidecars and manifests."""

import math
import os

import numpy as np

from .manifest import DatasetManifest, ManifestRecord, write_manifest
from .phantom import PhantomSpec, synth_phantom
from .pipeline import candidate_planes
from .volume import VolumeError, plane_angle, plane_offset, save_volume

GT_ANGLE_GUARD = math.radians(10.0)
GT_OFFSET_GUARD = 5.0


def _pick_class_planes(cands, class_count, rng, dims, min_angle=math.radians(25.0),
                       max_center_dist=5.0):
    """Well-separated ground-truth candidates whose centers sit near the
    volume middle, so the painted patterns are not clipped at the boundary."""
    mid = np.array([(d - 1) / 2.0 for d in dims])
    central = [i for i, p in enumerate(cands)
               if np.linalg.norm(np.asarray(p.center) - mid) <= max_center_dist]
    order = rng.permutation(len(central))
    chosen = []
    for o in order:
        idx = central[int(o)]
        if all(plane_angle(cands[idx], cands[j]) >= min_angle for j in chosen):
            chosen.append(idx)
        if len(chosen) == class_count:
            return chosen
    raise VolumeError("could not find %d well-separated candidate planes" % class_count)


def _near_ground_truth(cand, gt_planes):
    return any(plane_angle(cand, gt) <= GT_ANGLE_GUARD
               and plane_offset(cand, gt) <= GT_OFFSET_GUARD
               for gt in gt_planes.values())


def write_planes_sidecar(path, gt_planes):
    with open(path, "w") as fh:
        for cid in sorted(gt_planes):
            p = gt_planes[cid]
            fh.write(("%d" + " %.17g" * 9 + "\n") % ((cid,) + p.origin + p.axis_u + p.axis_v))


def build_phantom_dataset(out_dir, n_volumes, seed, cfg, class_count=3,
                          n_negatives=10, noise_sigma=0.02, dims=(64, 64, 64),
                          n_frames=8):
    """Generate phantom volumes with ground truth aligned to candidate planes
    and write train/test manifests (even split, alternating conditions).

    Returns (train_manifest_path, test_manifest_path).
    """
    os.makedirs(out_dir, exist_ok=True)
    cands = candidate_planes(dims, cfg)
    n_plane = class_count + 1
    train_records = []
    test_records = []
    for v in range(n_volumes):
        rng = np.random.default_rng(seed * 1000003 + v)
        abnormal = v % 2 == 1
        condition = "abnormal" if abnormal else "normal"
        diag = (1, 0) if abnormal else (0, 1)
        gt_idx = _pick_class_planes(cands, class_count, rng, dims)
        gt_planes = {k: cands[i] for k, i in enumerate(gt_idx)}
        spec = PhantomSpec(class_count=class_count, abnormal=abnormal,
                           noise_sigma=noise_sigma, seed=seed * 7919 + v,
                           dims=dims, n_frames=n_frames, gt_planes=gt_planes)
        vol, gt = synth_phantom(spec)
        name = "phantom_%03d" % v
        vol_path = os.path.join(out_dir, name + ".vol4")
        save_volume(vol, vol_path, dtype="u8")
        write_planes_sidecar(os.path.join(out_dir, name + ".planes"), gt)

        records = []
        for k, idx in enumerate(gt_idx):
            onehot = tuple(1 if j == k else 0 for j in range(n_plane))
            records.append(ManifestRecord(volume=name + ".vol4", cand_index=idx,
                                          plane_onehot=onehot, diag_onehot=diag,
                                          condition=condition))
        negatives = [i for i in range(len(cands))
                     if i not in gt_idx and not _near_ground_truth(cands[i], gt_planes)]
        if n_negatives < 0:  # label every non-guard candidate as non-standard
            picked = negatives
        else:
            neg_pick = rng.choice(len(negatives), size=min(n_negatives, len(negatives)),
                                  replace=False)
            picked = [int(negatives[j]) for j in neg_pick]
        none_hot = tuple(1 if j == n_plane - 1 else 0 for j in range(n_plane))
        for i in sorted(picked):
            records.append(ManifestRecord(volume=name + ".vol4", cand_index=i,
                                          plane_onehot=none_hot, diag_onehot=diag,
                                          condition=condition))
        (train_records if v < n_volumes // 2 else test_records).extend(records)

    train_path = os.path.join(out_dir, "train_manifest.tsv")
    test_path = os.path.join(out_dir, "test_manifest.tsv")
    write_manifest(DatasetManifest(records=tuple(train_records)), train_path)
    write_manifest(DatasetManifest(records=tuple(test_records)), test_path)
    return train_path, test_path
