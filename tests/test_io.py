import os
import struct

import numpy as np
import pytest

from planefinder import matio, pgm
from planefinder.bundle import BundleError, ModelBundle, load_bundle, save_bundle
from planefinder.classifier import FeatureScaler, MulticlassModel, SvmModel
from planefinder.codebook import Codebook
from planefinder.config import ConfigError, PipelineConfig, load_config, save_config
from planefinder.embedding import EmbeddingModel
from planefinder.manifest import (DatasetManifest, ManifestError, ManifestRecord,
                                  read_manifest, write_manifest)


def test_matrix_roundtrip_2d(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.normal(size=(5, 7))
    path = str(tmp_path / "a.mat")
    matio.write_matrix(path, arr)
    assert np.array_equal(matio.read_matrix(path), arr)


def test_matrix_roundtrip_1d_as_row(tmp_path):
    v = np.arange(4.0)
    path = str(tmp_path / "v.mat")
    matio.write_matrix(path, v)
    back = matio.read_matrix(path)
    assert back.shape == (1, 4)
    assert np.array_equal(back.ravel(), v)


def test_matrix_header_layout(tmp_path):
    path = str(tmp_path / "h.mat")
    matio.write_matrix(path, np.zeros((2, 3)))
    raw = (tmp_path / "h.mat").read_bytes()
    assert raw[:8] == b"PFMAT001"
    assert raw[8:16] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
    assert len(raw) == 16 + 2 * 3 * 8


def test_matrix_bad_magic(tmp_path):
    (tmp_path / "bad.mat").write_bytes(b"NOTMAGIC" + bytes(16))
    with pytest.raises(matio.MatIOError, match="magic"):
        matio.read_matrix(str(tmp_path / "bad.mat"))


def test_matrix_truncated(tmp_path):
    path = str(tmp_path / "t.mat")
    matio.write_matrix(path, np.zeros((4, 4)))
    data = (tmp_path / "t.mat").read_bytes()
    (tmp_path / "t.mat").write_bytes(data[:-8])
    with pytest.raises(matio.MatIOError, match="truncated"):
        matio.read_matrix(path)


def test_matrix_3d_rejected(tmp_path):
    with pytest.raises(matio.MatIOError):
        matio.write_matrix(str(tmp_path / "x.mat"), np.zeros((2, 2, 2)))


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    img = np.round(rng.random((9, 13)) * 255.0) / 255.0
    path = str(tmp_path / "img.pgm")
    pgm.write_pgm(path, img)
    assert np.allclose(pgm.read_pgm(path), img, atol=1e-12)


def test_pgm_comment_and_errors(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 64, 128, 255]))
    img = pgm.read_pgm(str(path))
    assert img.shape == (2, 2)
    assert img[1, 1] == pytest.approx(1.0)
    (tmp_path / "bad.pgm").write_bytes(b"P2\n2 2\n255\n")
    with pytest.raises(pgm.PgmError):
        pgm.read_pgm(str(tmp_path / "bad.pgm"))


def test_config_roundtrip(tmp_path):
    cfg = PipelineConfig(k_static=12, embed_c=4, view="static", svm_c=2.5)
    path = str(tmp_path / "cfg.txt")
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_unknown_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("k_static=10\nbogus_key=1\n")
    with pytest.raises(ConfigError, match="bogus_key"):
        load_config(str(path))


def test_config_partial_overrides_defaults(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("# comment\nk_static=10\n\nsvm_c=0.5\n")
    cfg = load_config(str(path))
    assert cfg.k_static == 10
    assert cfg.svm_c == 0.5
    assert cfg.k_spacetime == PipelineConfig().k_spacetime


def test_config_validate_rejects_bad_values():
    with pytest.raises(ConfigError):
        PipelineConfig(kernel="rbf").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(view="both").validate()
    with pytest.raises(ConfigError):
        PipelineConfig(plane_size=8).validate()


def _records(vol):
    return (
        ManifestRecord(volume=vol, cand_index=0, plane_onehot=(1, 0, 0),
                       diag_onehot=(0, 1), condition="normal"),
        ManifestRecord(volume=vol, cand_index=1, plane_onehot=(0, 1, 0),
                       diag_onehot=(0, 1), condition="normal"),
        ManifestRecord(volume=vol, cand_index=5, plane_onehot=(0, 0, 1),
                       diag_onehot=(0, 1), condition="normal"),
    )


def test_manifest_roundtrip_relative_paths(tmp_path):
    vol = tmp_path / "v.vol4"
    vol.write_text("")
    m = DatasetManifest(records=_records("v.vol4"))
    path = str(tmp_path / "m.tsv")
    write_manifest(m, path)
    back = read_manifest(path)
    assert len(back.records) == 3
    assert back.records[0].volume == str(vol)  # resolved against the manifest dir
    assert back.records[0].plane_class == 0
    assert back.records[2].plane_class == -1  # last slot = non-standard
    assert back.plane_classes == [0, 1]


def test_manifest_labels_property():
    r = _records("x")[1]
    labs = r.labels
    assert labs.plane.tolist() == [0.0, 1.0, 0.0]
    assert labs.diagnosis.tolist() == [0.0, 1.0]


def test_manifest_validate_errors(tmp_path):
    with pytest.raises(ManifestError, match="empty"):
        DatasetManifest(records=()).validate()
    vol = tmp_path / "v.vol4"
    vol.write_text("")
    recs = _records(str(vol))
    with pytest.raises(ManifestError, match="out of range"):
        DatasetManifest(records=recs).validate(candidate_count=3)
    bad = recs[:2] + (ManifestRecord(volume=str(vol), cand_index=2,
                                     plane_onehot=(0, 0, 1), diag_onehot=(0, 1),
                                     condition="weird"),)
    with pytest.raises(ManifestError, match="condition"):
        DatasetManifest(records=bad).validate()
    missing = (ManifestRecord(volume=str(tmp_path / "nope.vol4"), cand_index=0,
                              plane_onehot=(1, 0), diag_onehot=(0, 1),
                              condition="normal"),)
    with pytest.raises(ManifestError, match="missing"):
        DatasetManifest(records=missing).validate()


def test_manifest_ground_truth_lookup(tmp_path):
    m = DatasetManifest(records=_records("v"))
    assert m.ground_truth("v", 0) == [0]
    assert m.ground_truth("v", 1) == [1]
    assert m.ground_truth("v", 2) == []


def test_manifest_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only\tthree\tfields\n")
    with pytest.raises(ManifestError, match="5 tab-separated"):
        read_manifest(str(path))


def _saved_bundle(tmp_path):
    """A tiny hand-built two-class bundle written to disk; returns its dir."""
    rng = np.random.default_rng(7)
    scaler = FeatureScaler(mins=np.zeros(2), maxs=np.ones(2))
    machines = {cid: SvmModel(support_vectors=rng.random((3, 2)),
                              dual_coefs=rng.normal(size=3), bias=0.1 * cid, c=1.0,
                              class_weights=(1.0, 1.0), kernel="hik", scaler=scaler)
                for cid in (0, 1)}
    bundle = ModelBundle(
        config=PipelineConfig(),
        cb_static=Codebook(centroids=rng.random((4, 3)), descriptor_kind="static"),
        cb_spacetime=Codebook(centroids=rng.random((3, 3)), descriptor_kind="spacetime"),
        embedding=EmbeddingModel(w_x=rng.random((4, 2)), w_y=rng.random((3, 2)),
                                 mean_x=np.zeros(4), mean_y=np.zeros(3), c=2,
                                 epsilon=0.5, train_n=6),
        classifier=MulticlassModel(class_ids=(0, 1), machines=machines))
    out = str(tmp_path / "bundle")
    save_bundle(bundle, out)
    assert load_bundle(out).content_hash == bundle.with_hash().content_hash
    return out


def _rewrite_manifest(out, edit):
    path = os.path.join(out, "bundle.manifest")
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def test_bundle_manifest_line_without_equals(tmp_path):
    out = _saved_bundle(tmp_path)
    _rewrite_manifest(out, lambda lines: lines[:2] + ["no separator"] + lines[2:])
    with pytest.raises(BundleError, match="line 3"):
        load_bundle(out)


def test_bundle_manifest_missing_key(tmp_path):
    out = _saved_bundle(tmp_path)
    _rewrite_manifest(out, lambda lines: [l for l in lines if not l.startswith("embed_c=")])
    with pytest.raises(BundleError, match="embed_c"):
        load_bundle(out)


def test_bundle_manifest_non_numeric_value(tmp_path):
    out = _saved_bundle(tmp_path)
    _rewrite_manifest(out, lambda lines: [("embed_c=two" if l.startswith("embed_c=") else l)
                                          for l in lines])
    with pytest.raises(BundleError, match="embed_c") as info:
        load_bundle(out)
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("damage", ["missing", "corrupt"])
def test_bundle_matrix_file_unreadable(tmp_path, damage):
    out = _saved_bundle(tmp_path)
    path = os.path.join(out, "embed_wx.mat")
    if damage == "missing":
        os.remove(path)
    else:
        with open(path, "r+b") as fh:
            fh.write(b"GARBAGE!")
    with pytest.raises(BundleError, match="embed_wx") as info:
        load_bundle(out)
    assert isinstance(info.value.__cause__, matio.MatIOError)


def test_matrix_missing_file(tmp_path):
    with pytest.raises(matio.MatIOError, match="cannot open"):
        matio.read_matrix(str(tmp_path / "absent.mat"))


def test_matrix_short_header(tmp_path):
    (tmp_path / "s.mat").write_bytes(b"PFMAT001" + bytes(3))
    with pytest.raises(matio.MatIOError, match="truncated header"):
        matio.read_matrix(str(tmp_path / "s.mat"))


def test_matrix_forged_shape_checked_before_reading(tmp_path):
    # 2^20 x 2^20 doubles would be 8 TiB; the file holds one row
    (tmp_path / "f.mat").write_bytes(b"PFMAT001" + struct.pack("<II", 1 << 20, 1 << 20)
                                     + bytes(8))
    with pytest.raises(matio.MatIOError, match="truncated"):
        matio.read_matrix(str(tmp_path / "f.mat"))
