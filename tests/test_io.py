import os
import pathlib
import struct
import tempfile
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planefinder import matio, pgm
from planefinder.bundle import (BundleError, ModelBundle, compute_hash, load_bundle,
                               save_bundle)
from planefinder.classifier import FeatureScaler, MulticlassModel, SvmModel
from planefinder.codebook import Codebook, CodebookError, quantize
from planefinder.config import ConfigError, PipelineConfig, load_config, save_config
from planefinder.embedding import EmbeddingModel
from planefinder.manifest import (DatasetManifest, ManifestError, ManifestRecord,
                                  read_manifest, write_manifest)
from planefinder.volume import Volume4D, VolumeError, load_volume


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


def test_pgm_missing_file(tmp_path):
    with pytest.raises(pgm.PgmError, match="cannot read") as info:
        pgm.read_pgm(str(tmp_path / "absent.pgm"))
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_pgm_non_integer_header(tmp_path):
    (tmp_path / "x.pgm").write_bytes(b"P5\nx 4\n255")
    with pytest.raises(pgm.PgmError, match="bad PGM header") as info:
        pgm.read_pgm(str(tmp_path / "x.pgm"))
    assert isinstance(info.value.__cause__, ValueError)


def test_pgm_negative_dimensions(tmp_path):
    # -2 x -2 asks for 4 pixels, which the payload holds
    (tmp_path / "n.pgm").write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
    with pytest.raises(pgm.PgmError, match="positive"):
        pgm.read_pgm(str(tmp_path / "n.pgm"))


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


def test_config_non_numeric_value(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("k_static=ten\n")
    with pytest.raises(ConfigError, match="k_static") as info:
        load_config(str(path))
    assert isinstance(info.value.__cause__, ValueError)


def test_config_repeated_key(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_text("k_static=10\nsvm_c=0.5\nk_static=20\n")
    with pytest.raises(ConfigError, match=r"cfg.txt:3: config key 'k_static' given twice"):
        load_config(str(path))


def test_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read") as info:
        load_config(str(tmp_path / "absent.txt"))
    assert isinstance(info.value.__cause__, FileNotFoundError)


def test_config_not_utf8(tmp_path):
    path = tmp_path / "cfg.txt"
    path.write_bytes(b"kernel=\xff\xfe\n")
    with pytest.raises(ConfigError, match="cannot read") as info:
        load_config(str(path))
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


_CONFIG_KEYS = [f.name for f in fields(PipelineConfig)] + ["bogus"]


@settings(max_examples=200, deadline=None)
@example(b"k_static=10\nk_static=20\n")
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.sampled_from(_CONFIG_KEYS), st.sampled_from(["=", " = ", ""]),
                       st.text(max_size=12)), max_size=6).map(
        lambda items: "\n".join(k + sep + v for k, sep, v in items).encode("utf-8"))))
def test_config_any_bytes_value_or_config_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cfg.txt")
        with open(path, "wb") as fh:
            fh.write(data)
        try:
            cfg = load_config(path)
        except ConfigError:
            return
    assert isinstance(cfg, PipelineConfig)


def test_readme_config_table_matches_config():
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    rows = [line.split("|")[1:3] for line in readme.read_text().splitlines()
            if line.startswith("| `")]
    table = {key.strip().strip("`"): default.strip().strip("`") for key, default in rows}
    assert table == {f.name: str(f.default) for f in fields(PipelineConfig)}


def test_config_validate_rejects_bad_values():
    for bad in (dict(kernel="rbf"), dict(view="both"), dict(plane_size=8),
                dict(k_static=0), dict(k_spacetime=0), dict(kmeans_max_iter=0),
                dict(embed_c=0), dict(svm_c=0.0), dict(svm_c=float("nan")),
                dict(svm_c=float("inf"))):
        with pytest.raises(ConfigError):
            PipelineConfig(**bad).validate()


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


def test_manifest_negative_index_out_of_range(tmp_path):
    # a negative index would pick a candidate from the end of the list
    vol = tmp_path / "v.vol4"
    vol.write_text("")
    recs = (ManifestRecord(volume=str(vol), cand_index=-1, plane_onehot=(1, 0),
                           diag_onehot=(0, 1), condition="normal"),)
    with pytest.raises(ManifestError, match="out of range"):
        DatasetManifest(records=recs).validate(candidate_count=3)


def test_manifest_ground_truth_lookup(tmp_path):
    m = DatasetManifest(records=_records("v"))
    assert m.ground_truth("v", 0) == [0]
    assert m.ground_truth("v", 1) == [1]
    assert m.ground_truth("v", 2) == []


def test_manifest_checks_read_each_record_once(tmp_path, monkeypatch):
    # 20 volumes of 400 candidates, classes 0-2 at indices 0-2 and the rest
    # non-standard: validation plus every (volume, class) ground-truth lookup
    # read each record's plane_class at most once and stat each volume once
    reads = []
    plane_class = ManifestRecord.plane_class
    monkeypatch.setattr(ManifestRecord, "plane_class",
                        property(lambda r: reads.append(r) or plane_class.fget(r)))
    records = []
    for v in range(20):
        vol = tmp_path / ("v%d.vol4" % v)
        vol.write_text("")
        for i in range(400):
            onehot = [0, 0, 0, 0]
            onehot[min(i, 3)] = 1
            records.append(ManifestRecord(volume=str(vol), cand_index=i,
                                          plane_onehot=tuple(onehot), diag_onehot=(0, 1),
                                          condition="normal"))
    stats = []
    exists = os.path.exists
    monkeypatch.setattr(os.path, "exists", lambda p: stats.append(p) or exists(p))
    m = DatasetManifest(records=tuple(records)).validate(candidate_count=400)
    monkeypatch.setattr(os.path, "exists", exists)
    assert m.plane_classes == [0, 1, 2]
    for vol in m.volumes:
        for cls in m.plane_classes:
            assert m.ground_truth(vol, cls) == [cls]
    assert len(reads) <= len(records)
    assert sorted(stats) == sorted(m.volumes)


def test_manifest_malformed_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("only\tthree\tfields\n")
    with pytest.raises(ManifestError, match="5 tab-separated"):
        read_manifest(str(path))


def test_manifest_non_integer_field(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_text("a.vol4\tx\t1,0\t0,1\tnormal\n")
    with pytest.raises(ManifestError, match=":1:") as info:
        read_manifest(str(path))
    assert isinstance(info.value.__cause__, ValueError)


@pytest.mark.parametrize("plane, diag", [("0,0,0,0", "0,1"), ("1,1,0", "0,1"),
                                         ("1,0,0", "2,0"), ("1," + "9" * 400, "0,1")],
                         ids=["all-zero", "two-hot", "diagnosis-2", "huge"])
def test_manifest_label_not_one_hot(tmp_path, plane, diag):
    # plane_class takes the argmax, so a field that is not one-hot would read as class 0
    path = tmp_path / "m.tsv"
    path.write_text("a.vol4\t0\t1,0,0\t0,1\tnormal\na.vol4\t1\t%s\t%s\tnormal\n"
                    % (plane, diag))
    with pytest.raises(ManifestError, match=":2:"):
        read_manifest(str(path))


def test_manifest_record_not_one_hot():
    with pytest.raises(ManifestError, match="diag_onehot 0,0 is not one-hot"):
        ManifestRecord(volume="v", cand_index=0, plane_onehot=(1, 0), diag_onehot=(0, 0),
                       condition="normal")


@pytest.mark.parametrize("second", ["1,0\t0,1", "0,1,0\t0,0,1"], ids=["plane", "diagnosis"])
def test_manifest_one_hot_lengths_differ(tmp_path, second):
    (tmp_path / "a.vol4").write_text("")
    path = tmp_path / "m.tsv"
    path.write_text("a.vol4\t0\t1,0,0\t0,1\tnormal\na.vol4\t1\t%s\tnormal\n" % second)
    with pytest.raises(ManifestError, match="lengths differ"):
        read_manifest(str(path)).validate()


def test_manifest_not_utf8(tmp_path):
    path = tmp_path / "m.tsv"
    path.write_bytes(b"a.vol4\t0\t1,0\t0,1\t\xff\xfe\n")
    with pytest.raises(ManifestError, match="cannot read") as info:
        read_manifest(str(path))
    assert isinstance(info.value.__cause__, UnicodeDecodeError)


def _tiny_bundle():
    """A tiny hand-built two-class bundle."""
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
    return bundle


def _saved_bundle(tmp_path):
    """_tiny_bundle written to disk; returns its dir."""
    bundle = _tiny_bundle()
    out = str(tmp_path / "bundle")
    save_bundle(bundle, out)
    assert load_bundle(out).content_hash == bundle.with_hash().content_hash
    return out


def test_reloaded_bundle_quantizes_the_same(tmp_path):
    bundle = _tiny_bundle()
    back = load_bundle(_saved_bundle(tmp_path))
    data = np.random.default_rng(8).random((50, 3))
    for cb, cb_back in ((bundle.cb_static, back.cb_static),
                        (bundle.cb_spacetime, back.cb_spacetime)):
        assert np.array_equal(quantize(data, cb_back).values, quantize(data, cb).values)


def test_codebook_norms_stay_out_of_equality_repr_and_hash():
    bundle = _tiny_bundle()
    cb = bundle.cb_static
    same = Codebook(centroids=cb.centroids, descriptor_kind="static")
    before = (compute_hash(bundle), repr(cb), cb == same)
    quantize(np.ones((2, 3)), cb)
    assert (compute_hash(bundle), repr(cb), cb == same) == before
    assert before[2]
    assert [f.name for f in fields(Codebook)] == ["centroids", "descriptor_kind"]
    assert cb != Codebook(centroids=cb.centroids, descriptor_kind="spacetime")


def test_codebook_equality_compares_centroid_values():
    # distinct arrays with equal values
    assert Codebook(np.eye(2)) == Codebook(np.eye(2))
    assert Codebook(np.eye(2)) != Codebook(2.0 * np.eye(2))
    assert Codebook(np.eye(2)) != Codebook(np.eye(3))
    assert Codebook(np.eye(2)) != Codebook(np.eye(2), descriptor_kind="spacetime")
    assert Codebook(np.eye(2)) != "codebook"


def test_bundle_codebook_non_finite(tmp_path):
    out = _saved_bundle(tmp_path)
    matio.write_matrix(os.path.join(out, "codebook_static.mat"),
                       np.array([[0.0, np.nan, 1.0]]))
    with pytest.raises(BundleError, match="codebook") as info:
        load_bundle(out)
    assert isinstance(info.value.__cause__, CodebookError)


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


def test_bundle_manifest_repeated_key(tmp_path):
    out = _saved_bundle(tmp_path)
    _rewrite_manifest(out, lambda lines: lines + [l for l in lines if l.startswith("embed_c=")])
    with pytest.raises(BundleError, match="'embed_c' appears 2 times"):
        load_bundle(out)


def test_bundle_manifest_non_numeric_value(tmp_path):
    out = _saved_bundle(tmp_path)
    _rewrite_manifest(out, lambda lines: [("embed_c=two" if l.startswith("embed_c=") else l)
                                          for l in lines])
    with pytest.raises(BundleError, match="embed_c") as info:
        load_bundle(out)
    assert isinstance(info.value.__cause__, ValueError)


def test_bundle_format_checked_before_config(tmp_path):
    out = _saved_bundle(tmp_path)
    # a bundle saved in the older format: its config.txt held more keys
    _rewrite_manifest(out, lambda lines: ["format=planefinder-bundle-1"] + lines[1:])
    with open(os.path.join(out, "config.txt"), "a") as fh:
        fh.write("smooth_lambda=0.02\n")
    with pytest.raises(BundleError, match="'planefinder-bundle-1', expected "
                                          "'planefinder-bundle-2'"):
        load_bundle(out)


def test_bundle_config_unreadable(tmp_path):
    out = _saved_bundle(tmp_path)
    with open(os.path.join(out, "config.txt"), "a") as fh:
        fh.write("k_static=ten\n")
    with pytest.raises(BundleError, match="k_static") as info:
        load_bundle(out)
    assert isinstance(info.value.__cause__, ConfigError)


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


# Property tests: any bytes a loader is given yield its value or its module's
# own error. Each mixes raw bytes with near-valid input, which reaches the
# checks after the first line.

def _write(directory, name, data):
    path = os.path.join(directory, name)
    with open(path, "wb") as fh:
        fh.write(data)
    return path


_FIELD = st.one_of(st.integers(-3, 3).map(str), st.sampled_from(["1,0", "0,1", "normal", ""]),
                   st.text(max_size=6))


@settings(max_examples=200, deadline=None)
@example(b"k_static=10\nk_static=20\n")
@given(st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(_FIELD, min_size=4, max_size=6), max_size=4).map(
        lambda rows: "\n".join("\t".join(r) for r in rows).encode("utf-8"))))
def test_manifest_any_bytes_value_or_manifest_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            manifest = read_manifest(_write(tmp, "m.tsv", data))
        except ManifestError:
            return
    assert isinstance(manifest, DatasetManifest)


_VOL4_LINES = st.lists(st.tuples(
    st.sampled_from(["dims", "spacing", "frames", "dtype", "data", "bogus"]),
    st.one_of(st.sampled_from(["2 2 2", "-2 -2 2", "2 2", "1 1 1", "0 2 2", "1", "2", "-1",
                               "u8", "f32", "v.raw", "", "missing.raw"]),
              st.text(max_size=8))), max_size=7).map(
    lambda items: "\n".join(k + "=" + v for k, v in items).encode("utf-8"))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=120), _VOL4_LINES), st.binary(max_size=80))
def test_vol4_any_bytes_value_or_volume_error(header, payload):
    with tempfile.TemporaryDirectory() as tmp:
        _write(tmp, "v.raw", payload)
        try:
            vol = load_volume(_write(tmp, "v.vol4", header))
        except VolumeError:
            return
    assert isinstance(vol, Volume4D)


def _matrix_bytes(max_dim):
    return st.tuples(st.integers(0, max_dim), st.integers(0, max_dim),
                     st.binary(max_size=80)).map(
        lambda t: matio.MAGIC + struct.pack("<II", t[0], t[1]) + t[2])


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=80), _matrix_bytes(4), _matrix_bytes(2 ** 32 - 1)))
def test_matrix_any_bytes_value_or_matio_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            arr = matio.read_matrix(_write(tmp, "m.mat", data))
        except matio.MatIOError:
            return
    assert isinstance(arr, np.ndarray) and arr.ndim == 2


_PGM_DIM = st.one_of(st.integers(-3, 4).map(lambda v: b"%d" % v), st.binary(max_size=3))


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.binary(max_size=80),
    st.tuples(st.sampled_from([b"P5", b"P2", b"P5 # c\n"]), _PGM_DIM, _PGM_DIM,
              st.sampled_from([b"255", b"65535", b"x"]), st.binary(max_size=20)).map(
        lambda t: b"%s\n%s %s\n%s\n%s" % t)))
def test_pgm_any_bytes_value_or_pgm_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        try:
            img = pgm.read_pgm(_write(tmp, "i.pgm", data))
        except pgm.PgmError:
            return
    assert img.ndim == 2 and img.size > 0


_BUNDLE_VALUE = st.sampled_from([b"", b"0", b"1", b"2", b"-1", b"0,1", b"1,1,1", b"1.5", b"x",
                                 b"hik", b"linear", b"nan"]) | st.binary(max_size=12)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bundle_manifest_any_bytes_bundle_or_bundle_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        out = _saved_bundle(pathlib.Path(tmp))
        with open(os.path.join(out, "bundle.manifest"), "rb") as fh:
            lines = fh.read().splitlines()
        # raw bytes, or the saved lines with some values replaced, lines
        # dropped or lines repeated; the matrix= lines are not read, so they
        # are left alone
        text = data.draw(st.binary(max_size=200) | st.just(None))
        if text is None:
            keyed = [i for i, line in enumerate(lines) if not line.startswith(b"matrix=")]
            lines += [lines[i] for i in data.draw(st.lists(st.sampled_from(keyed), max_size=2))]
            edits = data.draw(st.dictionaries(st.sampled_from(keyed),
                                              st.none() | _BUNDLE_VALUE,
                                              max_size=3))
            for idx, value in edits.items():
                key = lines[idx].partition(b"=")[0]
                lines[idx] = None if value is None else key + b"=" + value
            text = b"".join(line + b"\n" for line in lines if line is not None)
        _write(out, "bundle.manifest", text)
        try:
            bundle = load_bundle(out)
        except BundleError:
            return
    assert isinstance(bundle, ModelBundle)
