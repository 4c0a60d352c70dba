import os

import numpy as np
import pytest

from planefinder import pgm
from planefinder.cli import main
from planefinder.config import PipelineConfig, save_config


@pytest.fixture(scope="module")
def cli_workspace(tmp_path_factory):
    """One tiny synth + train run shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = str(root / "cfg.txt")
    save_config(PipelineConfig(k_static=8, k_spacetime=6, embed_c=3,
                               candidates_n=15, plane_size=32,
                               kmeans_max_iter=30), cfg_path)
    data = str(root / "data")
    rc = main(["synth", "--out", data, "--volumes", "4", "--seed", "1",
               "--classes", "2", "--negatives", "4", "--dims", "48", "48", "48",
               "--frames", "6", "--config", cfg_path])
    assert rc == 0
    bundle = str(root / "bundle")
    rc = main(["train", "--manifest", os.path.join(data, "train_manifest.tsv"),
               "--out", bundle, "--config", cfg_path])
    assert rc == 0
    return dict(root=root, cfg=cfg_path, data=data, bundle=bundle)


def test_synth_outputs(cli_workspace):
    data = cli_workspace["data"]
    for name in ("train_manifest.tsv", "test_manifest.tsv",
                 "phantom_000.vol4", "phantom_003.planes"):
        assert os.path.exists(os.path.join(data, name))


def test_train_writes_bundle(cli_workspace):
    bundle = cli_workspace["bundle"]
    assert os.path.exists(os.path.join(bundle, "bundle.manifest"))
    assert os.path.exists(os.path.join(bundle, "codebook_static.mat"))


def test_locate_report(cli_workspace, capsys, tmp_path):
    report = str(tmp_path / "locate.tsv")
    rc = main(["locate", "--bundle", cli_workspace["bundle"],
               "--volume", os.path.join(cli_workspace["data"], "phantom_002.vol4"),
               "--class", "0", "--top-k", "3", "--report-out", report])
    assert rc == 0
    lines = open(report).read().strip().splitlines()
    assert lines[0].split("\t") == ["rank", "candidate", "decision"]
    assert len(lines) == 4


def test_locate_deterministic(cli_workspace, tmp_path):
    args = ["locate", "--bundle", cli_workspace["bundle"],
            "--volume", os.path.join(cli_workspace["data"], "phantom_002.vol4"),
            "--class", "1", "--top-k", "5"]
    outs = []
    for i in range(2):
        report = str(tmp_path / ("r%d.tsv" % i))
        assert main(args + ["--report-out", report]) == 0
        outs.append(open(report).read())
    assert outs[0] == outs[1]


def test_locate_several_classes_lead_each_row_with_its_class(cli_workspace, tmp_path):
    args = ["locate", "--bundle", cli_workspace["bundle"],
            "--volume", os.path.join(cli_workspace["data"], "phantom_002.vol4"),
            "--top-k", "4"]
    reports = {}
    for classes in (["0"], ["1"], ["0", "1"]):
        report = str(tmp_path / ("r%s.tsv" % "".join(classes)))
        assert main(args + ["--class", *classes, "--report-out", report]) == 0
        reports[tuple(classes)] = open(report).read().splitlines()
    both = reports["0", "1"]
    assert both[0] == "class\trank\tcandidate\tdecision"
    for cid in ("0", "1"):
        single = reports[cid, ]
        assert single[0] == "rank\tcandidate\tdecision" and len(single) == 5
        assert ["%s\t%s" % (cid, row) for row in single[1:]] == [
            row for row in both[1:] if row.split("\t")[0] == cid]
    assert len(both) == 9


def test_eval_synthetic_report(cli_workspace, tmp_path):
    report = str(tmp_path / "eval.tsv")
    rc = main(["eval", "--bundle", cli_workspace["bundle"],
               "--manifest", os.path.join(cli_workspace["data"], "test_manifest.tsv"),
               "--mode", "synthetic", "--report-out", report])
    assert rc == 0
    lines = open(report).read().strip().splitlines()
    assert lines[0].split("\t") == ["class", "condition", "accuracy"]
    assert len(lines) >= 3


def test_eval_volume_report(cli_workspace, tmp_path):
    report = str(tmp_path / "eval.tsv")
    rc = main(["eval", "--bundle", cli_workspace["bundle"],
               "--manifest", os.path.join(cli_workspace["data"], "test_manifest.tsv"),
               "--mode", "volume", "--report-out", report])
    assert rc == 0
    lines = [l.split("\t") for l in open(report).read().strip().splitlines()]
    assert lines[0] == ["class", "mean_f1", "top1_hit_rate"]
    assert [row[0] for row in lines[1:]] == ["0", "1"]
    assert all(0.0 <= float(v) <= 1.0 for row in lines[1:] for v in row[1:])


def test_bench_command_removed(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "--bundle", "b", "--manifest", "m.tsv"])
    assert "invalid choice" in capsys.readouterr().err


def test_smooth_command(tmp_path):
    rng = np.random.default_rng(0)
    img = np.clip(0.5 + 0.2 * rng.normal(size=(40, 40)), 0, 1)
    src = str(tmp_path / "in.pgm")
    dst = str(tmp_path / "out.pgm")
    pgm.write_pgm(src, img)
    assert main(["smooth", "--in", src, "--out", dst, "--lambda", "0.02"]) == 0
    out = pgm.read_pgm(dst)
    assert out.shape == (40, 40)


@pytest.mark.parametrize("lam", ["nan", "inf", "0", "-1"])
def test_smooth_rejects_bad_lambda(tmp_path, capsys, lam):
    src = str(tmp_path / "in.pgm")
    dst = str(tmp_path / "out.pgm")
    pgm.write_pgm(src, np.full((40, 40), 0.5))
    assert main(["smooth", "--in", src, "--out", dst, "--lambda", lam]) == 1
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(dst)


def test_keypoints_command(cli_workspace, tmp_path):
    overlay = str(tmp_path / "ov")
    rc = main(["keypoints", "--volume",
               os.path.join(cli_workspace["data"], "phantom_001.vol4"),
               "--overlay", overlay, "--bundle", cli_workspace["bundle"]])
    assert rc == 0
    assert any(f.endswith(".pgm") for f in os.listdir(overlay))


def test_error_exit_code(tmp_path, capsys):
    rc = main(["train", "--manifest", str(tmp_path / "none.tsv"),
               "--out", str(tmp_path / "b")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_synth_error_exit_code(tmp_path, capsys):
    config = str(tmp_path / "c.txt")
    save_config(PipelineConfig(candidates_n=3, plane_size=32), config)
    rc = main(["synth", "--out", str(tmp_path / "data"), "--volumes", "2", "--seed", "1",
               "--dims", "48", "48", "48", "--frames", "6", "--config", config])
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: could not find 3 well-separated candidate planes\n")
