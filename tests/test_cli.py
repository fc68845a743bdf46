import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from selfreid import cli
from selfreid.data import (
    UNKNOWN_IDENTITY,
    EmbeddingDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from selfreid.encoder import init_optimizer, init_pair, load_checkpoint, save_checkpoint
from selfreid.errors import SelfReidError
from selfreid.reporting import METRICS_COLUMNS, RETIRED_KEYS, read_keyvalue
from selfreid.rerank import ClusterConfig, dbscan, jaccard_distance_matrix
from selfreid.trainer import TrainConfig, evaluate_encoder, extract_bank, init_state, train

from oracles import write_version_1_checkpoint

# A run's manifest.txt and metrics.csv, written before the hard_negatives,
# consistency_variant, restyle_scale and hidden_dim keys were retired (the
# manifest still holds all four) by
#   selfreid generate --ids 10 --samples-per-cell 4 --dim 16 --out-dir data
#   selfreid train --data data/train.txt --query data/query.txt \
#       --gallery data/gallery.txt --out-dir run --epochs 3 --iterations 4 \
#       --k1 8 --k2 3 --n-identities 4 --eval-every 1
EARLIER_RUN = Path(__file__).parent / "data"


@pytest.fixture
def eval_files(tmp_path):
    _, query, gallery = generate_synthetic(SyntheticSpec(n_identities=4, dim=8))
    paths = {}
    for name, split in (("query", query), ("gallery", gallery)):
        paths[name] = str(tmp_path / f"{name}.txt")
        save_dataset(split, paths[name])
    pair = init_pair(8, 6, 4, np.random.default_rng(0))
    paths["checkpoint"] = str(tmp_path / "ckpt.npz")
    save_checkpoint(paths["checkpoint"], pair, init_optimizer(pair.online))
    return paths


@pytest.fixture
def train_files(tmp_path):
    splits = generate_synthetic(SyntheticSpec(n_identities=10, samples_per_cell=4, dim=16))
    paths = {}
    for name, split in zip(("data", "query", "gallery"), splits):
        paths[name] = str(tmp_path / f"{name}.txt")
        save_dataset(split, paths[name])
    return paths


TINY_RUN = ["--epochs", "2", "--iterations", "3", "--k1", "8", "--k2", "3",
            "--n-identities", "4"]


def run_train(paths, out_dir, *flags):
    return cli.main(["train", "--data", paths["data"], "--query", paths["query"],
                     "--gallery", paths["gallery"], "--out-dir", str(out_dir), *flags])


def run_eval(paths, checkpoint):
    return cli.main(["eval", "--checkpoint", checkpoint,
                     "--query", paths["query"], "--gallery", paths["gallery"]])


def test_eval_reads_saved_checkpoint(eval_files, capsys):
    assert run_eval(eval_files, eval_files["checkpoint"]) == 0
    assert "mAP = " in capsys.readouterr().out


def test_eval_checkpoint_missing_key(eval_files, tmp_path, capsys):
    with np.load(eval_files["checkpoint"]) as data:
        arrays = {k: data[k] for k in data.files if k != "momentum_w1"}
    broken = str(tmp_path / "broken.npz")
    np.savez(broken, **arrays)
    assert run_eval(eval_files, broken) == 1
    err = capsys.readouterr().err
    assert broken in err and "missing momentum_w1" in err


def test_eval_rejects_version_1_checkpoint(eval_files, tmp_path, capsys):
    old = str(write_version_1_checkpoint(tmp_path / "v1.npz", d_in=8, hidden=6))
    assert run_eval(eval_files, old) == 1
    err = capsys.readouterr().err
    assert old in err and "checkpoint version 1" in err


def test_eval_rejects_non_integer_checkpoint_version(eval_files, tmp_path, capsys):
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, version=np.array("two"))
    assert run_eval(eval_files, bad) == 1
    err = capsys.readouterr().err
    assert bad in err and "version must be an integer, got 'two'" in err


@pytest.mark.parametrize("key, value, message", [
    ("momentum_b1", np.full(6, np.nan), "momentum_b1 must hold finite numbers"),
    ("online_w1", np.zeros((3, 3)), "online_w1 (3, 3)"),
    ("opt_m_b2", np.array([None] * 4, dtype=object), "opt_m_b2 cannot be read"),
])
def test_eval_rejects_bad_weight_tables(eval_files, tmp_path, capsys, key, value, message):
    with np.load(eval_files["checkpoint"]) as data:
        arrays = {**{k: data[k] for k in data.files}, key: value}
    bad = str(tmp_path / "bad.npz")
    np.savez(bad, **arrays)
    assert run_eval(eval_files, bad) == 1
    err = capsys.readouterr().err
    assert bad in err and message in err


def test_eval_rejects_non_checkpoint_file(eval_files, capsys):
    assert run_eval(eval_files, eval_files["query"]) == 1
    err = capsys.readouterr().err
    assert eval_files["query"] in err and "not a checkpoint file" in err


def test_eval_text_checkpoint_is_not_an_archive(eval_files, tmp_path, capsys):
    text = tmp_path / "ckpt.npz"
    text.write_bytes(b"epoch = 3")
    assert run_eval(eval_files, str(text)) == 1
    err = capsys.readouterr().err
    assert f"{text}: not a checkpoint file (not an .npz archive)" in err
    assert "pickle" not in err


def write_checkpoint(path, d_in):
    pair = init_pair(d_in, 6, 4, np.random.default_rng(0))
    save_checkpoint(path, pair, init_optimizer(pair.online))
    return str(path)


def test_eval_rejects_checkpoint_of_other_width(eval_files, tmp_path, capsys):
    wide = write_checkpoint(tmp_path / "wide.npz", d_in=64)
    assert run_eval(eval_files, wide) == 1
    err = capsys.readouterr().err
    assert wide in err and eval_files["query"] in err
    assert "64-d inputs" in err and "dim 8" in err


def test_sweep_eps_rejects_checkpoint_of_other_width(train_files, tmp_path, capsys):
    narrow = write_checkpoint(tmp_path / "narrow.npz", d_in=8)
    assert cli.main(["sweep-eps", "--data", train_files["data"],
                     "--checkpoint", narrow]) == 1
    err = capsys.readouterr().err
    assert narrow in err and train_files["data"] in err
    assert "8-d inputs" in err and "dim 16" in err


def mark_unknown(path, rows):
    """Rewrite the file at `path` with identity ? on the given rows."""
    split = load_dataset(path)
    split.identities[rows] = UNKNOWN_IDENTITY
    save_dataset(split, path)


def test_eval_rejects_unknown_query_identities(eval_files, capsys):
    mark_unknown(eval_files["query"], slice(None))
    assert run_eval(eval_files, eval_files["checkpoint"]) == 1
    err = capsys.readouterr().err
    assert (f"{eval_files['query']}: 16 of 16 records have unknown identity ?; "
            f"evaluation needs known identities") in err


def test_train_rejects_unknown_gallery_identities(train_files, tmp_path, capsys):
    mark_unknown(train_files["gallery"], [0, 3, 5])
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, *TINY_RUN) == 1
    assert f"{train_files['gallery']}: 3 of 80 records have unknown identity ?" in \
        capsys.readouterr().err
    assert not (out_dir / "manifest.txt").exists()


def test_train_oracle_labels_reject_unknown_identities_before_writing(train_files, tmp_path,
                                                                     capsys):
    mark_unknown(train_files["data"], slice(None))
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, *TINY_RUN, "--labels-mode", "oracle") == 1
    err = capsys.readouterr().err
    assert (f"{train_files['data']}: 160 of 160 records have unknown identity ?; "
            f"labels_mode = oracle trains on the identities as pseudo labels") in err
    assert not (out_dir / "manifest.txt").exists()


def test_train_oracle_labels_reject_fewer_identities_than_a_batch_before_writing(
        train_files, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, *TINY_RUN, "--labels-mode", "oracle",
                     "--n-identities", "11") == 1
    assert capsys.readouterr().err == (
        f"error: {train_files['data']} holds 10 identities < 11 identities per batch, and "
        f"labels_mode = oracle trains on them as its clusters; lower n_identities\n")
    assert not (out_dir / "manifest.txt").exists()


def test_ablate_rejects_unknown_query_identities(train_files, monkeypatch, capsys):
    mark_unknown(train_files["query"], [1])
    monkeypatch.setattr(cli, "train", None)  # fails if a variant starts training
    assert cli.main(["ablate", "--data", train_files["data"], "--query", train_files["query"],
                     "--gallery", train_files["gallery"]]) == 1
    assert f"{train_files['query']}: 1 of 40 records have unknown identity ?" in \
        capsys.readouterr().err


def test_train_from_manifest_is_byte_identical(train_files, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_train(train_files, first, *TINY_RUN) == 0
    assert cli.main(["train", "--from-manifest", str(first / "manifest.txt"),
                     "--out-dir", str(second)]) == 0
    for name in ("metrics.csv", "manifest.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    assert not list(first.glob("*.npz"))  # checkpoint_every = 0: no checkpoints
    final_row = (first / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert final_row[METRICS_COLUMNS.index("mAP")]


def test_earlier_manifest_reruns_to_the_same_metrics(train_files, tmp_path):
    # train_files is the dataset of EARLIER_RUN, generated afresh
    earlier = EARLIER_RUN / "manifest.txt"
    out_dir = tmp_path / "rerun"
    assert run_train(train_files, out_dir, "--from-manifest", str(earlier)) == 0
    assert (out_dir / "metrics.csv").read_bytes() == (EARLIER_RUN / "metrics.csv").read_bytes()

    def config_lines(path, dropped):
        return [line for line in path.read_text().splitlines()
                if line.split(" = ")[0] not in dropped]

    assert config_lines(out_dir / "manifest.txt", cli.MANIFEST_PATHS) == \
        config_lines(earlier, cli.MANIFEST_PATHS + tuple(RETIRED_KEYS))


def test_train_rejects_a_manifest_with_a_retired_key_off_its_kept_value(train_files, tmp_path,
                                                                        capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text((EARLIER_RUN / "manifest.txt").read_text().replace(
        "hidden_dim = 128\n", "hidden_dim = 256\n"))
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, "--from-manifest", str(manifest)) == 1
    assert capsys.readouterr().err == (f"error: {manifest}: config key hidden_dim = 256: that "
                                       f"variant was removed; only hidden_dim = 128 remains\n")
    assert not out_dir.exists()


@pytest.fixture
def narrow_query(tmp_path):
    _, query, _ = generate_synthetic(SyntheticSpec(n_identities=10, samples_per_cell=4, dim=8))
    path = str(tmp_path / "narrow_query.txt")
    save_dataset(query, path)
    return path


def test_train_rejects_query_of_other_width_before_writing(train_files, narrow_query,
                                                            tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "train", None)  # fails if training starts
    out_dir = tmp_path / "run"
    assert run_train({**train_files, "query": narrow_query}, out_dir) == 1
    err = capsys.readouterr().err
    assert (f"the encoder trained on {train_files['data']} takes 16-d inputs, "
            f"but {narrow_query} has dim 8") in err
    assert not (out_dir / "manifest.txt").exists()


def test_ablate_rejects_query_of_other_width(train_files, narrow_query, monkeypatch, capsys):
    monkeypatch.setattr(cli, "train", None)  # fails if a variant starts training
    assert cli.main(["ablate", "--data", train_files["data"], "--query", narrow_query,
                     "--gallery", train_files["gallery"]]) == 1
    err = capsys.readouterr().err
    assert (f"the encoder trained on {train_files['data']} takes 16-d inputs, "
            f"but {narrow_query} has dim 8") in err


def keep_camera_zero(path):
    """Rewrite the file at `path` with only its camera-0 records."""
    split = load_dataset(path)
    rows = split.cameras == 0
    save_dataset(EmbeddingDataset(split.sample_ids[rows], split.identities[rows],
                                  split.cameras[rows], split.features[rows]), path)


def no_cross_camera_match(paths):
    return (f"no query in {paths['query']} has a record of its identity from another "
            f"camera in {paths['gallery']}; evaluation needs one")


def test_train_rejects_splits_without_cross_camera_match_before_writing(
        train_files, tmp_path, monkeypatch, capsys):
    keep_camera_zero(train_files["query"])
    keep_camera_zero(train_files["gallery"])
    monkeypatch.setattr(cli, "train", None)  # fails if training starts
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, "--epochs", "3", "--checkpoint-every", "1") == 1
    assert no_cross_camera_match(train_files) in capsys.readouterr().err
    assert not out_dir.exists()


def test_ablate_rejects_splits_without_cross_camera_match(train_files, monkeypatch, capsys):
    keep_camera_zero(train_files["query"])
    keep_camera_zero(train_files["gallery"])
    monkeypatch.setattr(cli, "train", None)  # fails if a variant starts training
    assert cli.main(["ablate", "--data", train_files["data"], "--query", train_files["query"],
                     "--gallery", train_files["gallery"]]) == 1
    assert no_cross_camera_match(train_files) in capsys.readouterr().err


@pytest.mark.parametrize("command, message", [("generate", "need seed in [0, inf), got -1"),
                                              ("train", "need seed in [0, inf), got -1")],
                         ids=["generate", "train"])
def test_negative_seed_is_rejected_before_writing(train_files, tmp_path, capsys, command,
                                                  message):
    out_dir = tmp_path / "out"
    if command == "generate":
        status = cli.main(["generate", "--seed", "-1", "--out-dir", str(out_dir)])
    else:
        status = run_train(train_files, out_dir, *TINY_RUN, "--seed", "-1")
    assert status == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not (out_dir / "manifest.txt").exists()
    assert not out_dir.exists()


@pytest.mark.parametrize("given", ["query", "gallery"])
@pytest.mark.parametrize("source", ["flag", "manifest"])
def test_train_rejects_query_or_gallery_alone_before_writing(train_files, tmp_path, capsys,
                                                            monkeypatch, given, source):
    monkeypatch.setattr(cli, "load_dataset", None)  # fails if a split is read
    out_dir = tmp_path / "run"
    if source == "flag":
        argv = ["--data", train_files["data"], f"--{given}", train_files[given]]
    else:
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(f"data = {train_files['data']}\n{given} = {train_files[given]}\n")
        argv = ["--from-manifest", str(manifest)]
    assert cli.main(["train", *argv, "--out-dir", str(out_dir)]) == 1
    missing = "gallery" if given == "query" else "query"
    assert (f"error: a {given} split ({train_files[given]}) is given without a {missing} "
            f"split; evaluation needs both") in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_rejects_a_dropout_that_zeroes_every_input_before_writing(train_files, tmp_path,
                                                                       capsys):
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, *TINY_RUN, "--dropout", "0.97") == 1
    assert capsys.readouterr().err == (f"error: dropout = 0.97 zeroes all 16 input coordinates "
                                       f"of {train_files['data']}; need round(dropout * 16) "
                                       f"< 16\n")
    assert not out_dir.exists()


def test_train_rejects_non_finite_config_float_before_writing(train_files, tmp_path, capsys):
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir, *TINY_RUN, "--base-lr", "inf") == 1
    assert "error: need base_lr in [0, inf), got inf" in capsys.readouterr().err
    assert not out_dir.exists()


def test_train_bad_config_value(train_files, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("iterations = 3\nepochs = 2.0\n")
    assert run_train(train_files, tmp_path / "run", "--config", str(config)) == 1
    err = capsys.readouterr().err
    assert str(config) in err and "epochs" in err and "'2.0'" in err


def test_train_manifest_with_foreign_key(train_files, tmp_path, capsys):
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(f"data = {train_files['data']}\nepochs = 1\nnote = hi\n")
    assert cli.main(["train", "--from-manifest", str(manifest),
                     "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert str(manifest) in err and "note" in err


@pytest.mark.parametrize("flag", ["--config", "--from-manifest"])
def test_train_rejects_keyvalue_file_with_repeated_key(train_files, tmp_path, capsys, flag):
    values = tmp_path / "values.txt"
    values.write_text("epochs = 2\niterations = 3\n# the last copy must not win\nepochs = 1\n")
    assert run_train(train_files, tmp_path / "run", flag, str(values)) == 1
    assert (f"error: {values}:4: key epochs repeated (first on line 1)"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_eval_writes_report_and_appends_metrics_row(train_files, tmp_path, capsys):
    run_dir = tmp_path / "run"
    assert run_train(train_files, run_dir, *TINY_RUN, "--checkpoint-every", "1") == 0
    metrics = run_dir / "metrics.csv"
    final_row = metrics.read_text().splitlines()[-1].split(",")
    capsys.readouterr()
    out = tmp_path / "eval.txt"
    assert cli.main(["eval", "--checkpoint", str(run_dir / "checkpoint_epoch001.npz"),
                     "--query", train_files["query"], "--gallery", train_files["gallery"],
                     "--out", str(out), "--append-csv", str(metrics)]) == 0
    report = read_keyvalue(out)
    stdout = capsys.readouterr().out
    assert report == dict(line.split(" = ") for line in stdout.splitlines())
    lines = metrics.read_text().splitlines()
    assert lines.count(",".join(METRICS_COLUMNS)) == 1 and len(lines) == 4
    appended = lines[-1].split(",")
    metric_columns = [METRICS_COLUMNS.index(name) for name in ("mAP", "rank1", "rank5",
                                                               "rank10")]
    assert [appended[i] for i in metric_columns] == [final_row[i] for i in metric_columns]
    assert [appended[i] for i in metric_columns] == [report[key] for key in ("mAP", "rank1",
                                                                             "rank5", "rank10")]
    assert appended[:METRICS_COLUMNS.index("mAP")] == [""] * METRICS_COLUMNS.index("mAP")


@pytest.mark.parametrize("held", [None, "", ",".join(METRICS_COLUMNS) + "\n"],
                         ids=["missing", "empty", "header-only"])
def test_eval_appends_to_a_new_or_empty_metrics_csv_with_its_header(eval_files, tmp_path,
                                                                    capsys, held):
    metrics = tmp_path / "metrics.csv"
    if held is not None:
        metrics.write_text(held)
    assert cli.main(["eval", "--checkpoint", eval_files["checkpoint"], "--query",
                     eval_files["query"], "--gallery", eval_files["gallery"],
                     "--append-csv", str(metrics)]) == 0
    report = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    row = [""] * METRICS_COLUMNS.index("mAP") + [report[key] for key in ("mAP", "rank1",
                                                                         "rank5", "rank10")]
    assert metrics.read_text() == ",".join(METRICS_COLUMNS) + "\n" + ",".join(row) + "\n"


@pytest.mark.parametrize("held", [b"hello\n", b"hello", b"epoch,n_clusters\n1,2\n",
                                  ",".join(METRICS_COLUMNS).encode() + b",extra\n",
                                  b"\n" + ",".join(METRICS_COLUMNS).encode() + b"\n",
                                  b"\xff\xfe\x00binary"],
                         ids=["text", "no-newline", "other-csv", "wider-header", "blank-first",
                              "binary"])
def test_eval_refuses_to_append_to_a_file_that_is_not_a_metrics_csv(eval_files, tmp_path,
                                                                    monkeypatch, capsys, held):
    monkeypatch.setattr(cli, "load_checkpoint", None)  # fails if loading starts
    target, out = tmp_path / "notes.txt", tmp_path / "eval.txt"
    target.write_bytes(held)
    assert cli.main(["eval", "--checkpoint", eval_files["checkpoint"], "--query",
                     eval_files["query"], "--gallery", eval_files["gallery"],
                     "--out", str(out), "--append-csv", str(target)]) == 1
    assert capsys.readouterr().err == (f"error: {target} is not a metrics CSV (its first line "
                                       f"is not the metrics.csv header): give a run's "
                                       f"metrics.csv or a new path\n")
    assert target.read_bytes() == held
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--eps-grid", "a,b"], "--eps-grid"),
    (["--eps-grid", "0.5,1.5"], "eps"),
    (["--k2", "0"], "k2"),
    (["--min-samples", "0"], "min_samples"),
])
def test_sweep_eps_rejects_bad_input_before_reranking(train_files, monkeypatch, capsys,
                                                       flags, message):
    def never(*args):
        raise AssertionError("distance matrix built before the input was checked")

    monkeypatch.setattr(cli, "jaccard_distance_matrix", never)
    assert cli.main(["sweep-eps", "--data", train_files["data"], *flags]) == 1
    assert message in capsys.readouterr().err


def test_sweep_eps_rejects_data_that_is_not_utf8(tmp_path, capsys):
    binary = tmp_path / "binary"
    binary.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(17) + b"\xd0\x67\x00")
    assert cli.main(["sweep-eps", "--data", str(binary)]) == 1
    assert (f"error: {binary}: not UTF-8 text: byte 0xd0 at offset 24 cannot be decoded"
            in capsys.readouterr().err)


# 300 bytes that start like an x86-64 ELF executable: its 64-byte header
# (section headers at offset 0x3af0), then zeros.
ELF_HEAD = bytes.fromhex(
    "7f454c46020101000000000000000000 03003e00010000006010000000000000"
    "4000000000000000f03a000000000000 0000000040003800 0d00400027002600").ljust(300, b"\0")


@pytest.mark.parametrize("flag", ["--config", "--from-manifest"])
def test_train_rejects_keyvalue_file_that_is_not_utf8(train_files, tmp_path, capsys, flag):
    binary = tmp_path / "binary"
    binary.write_bytes(ELF_HEAD)
    assert run_train(train_files, tmp_path / "run", flag, str(binary)) == 1
    assert (f"error: {binary}: not UTF-8 text: byte 0xf0 at offset 40 cannot be decoded"
            in capsys.readouterr().err)
    assert not (tmp_path / "run").exists()


def test_directory_as_data_file_is_a_usage_error(tmp_path, capsys):
    assert cli.main(["sweep-eps", "--data", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err
    assert "usage: " in err


@pytest.mark.parametrize("command", ["generate", "sweep-eps"])
def test_closed_stdout_is_an_error_not_a_usage_error(train_files, tmp_path, command):
    # stdout is a pipe whose read end is closed before the command writes to it
    argv = {"generate": ["--ids", "4", "--dim", "8", "--out-dir", str(tmp_path / "out")],
            "sweep-eps": ["--data", train_files["data"]]}[command]
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "selfreid", command, *argv], env=env,
                                stdout=write_end, stderr=subprocess.PIPE, timeout=120)
    finally:
        os.close(write_end)
    assert result.stderr.decode() == "error: [Errno 32] Broken pipe\n"
    assert result.returncode == 1


@pytest.mark.parametrize("raised, message", [
    (MemoryError("Unable to allocate 5.82 TiB for an array with shape (8, 100000000000) and "
                 "data type float64"),
     "error: Unable to allocate 5.82 TiB for an array with shape (8, 100000000000) and "
     "data type float64\n"),
    (MemoryError(), "error: out of memory\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_is_one_error_line(train_files, tmp_path, monkeypatch, capsys, raised,
                                         message):
    def train(*args, **kwargs):  # as `--out-dim 100000000000` fails, without allocating
        raise raised

    monkeypatch.setattr(cli, "train", train)
    assert run_train(train_files, tmp_path / "run", *TINY_RUN) == 1
    assert capsys.readouterr().err == message
    # The manifest is written before training, metrics.csv only after it.
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.txt"]


def run_selfreid(*argv):
    """`python -m selfreid *argv` in a fresh interpreter with Python's default
    warning filters: the CompletedProcess, stdout and stderr as text."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, "-m", "selfreid", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_a_warning_is_one_line(tmp_path):
    out_dir = tmp_path / "out"
    result = run_selfreid("generate", "--ids", "4", "--dim", "2", "--out-dir", str(out_dir))
    assert result.stderr == "warning: dim=2 is too small to separate identities reliably\n"
    assert result.returncode == 0
    assert sorted(p.name for p in out_dir.iterdir()) == ["gallery.txt", "query.txt",
                                                         "train.txt"]


def test_a_diverging_run_is_one_error_line(train_files, tmp_path):
    result = run_selfreid("train", "--data", train_files["data"], "--out-dir",
                          str(tmp_path / "run"), *TINY_RUN, "--tau-soft", "1e-300")
    assert result.stderr == ("error: epoch 0, iteration 0: soft loss is nan; the run diverged: "
                             "check the settings not at their defaults: epochs = 2, "
                             "iterations = 3, n_identities = 4, tau_soft = 1e-300, k1 = 8, "
                             "k2 = 3\n")
    assert result.returncode == 1


@pytest.fixture(scope="module")
def default_data(tmp_path_factory):
    """The training split `selfreid generate` writes with its defaults."""
    path = tmp_path_factory.mktemp("default") / "train.txt"
    save_dataset(generate_synthetic(SyntheticSpec())[0], path)
    return str(path)


@pytest.mark.parametrize("flags, message", [
    (["--weight-decay", "1e300"],
     "epoch 0, iteration 2: agnostic loss is nan; the run diverged: check the settings not at "
     "their defaults: weight_decay = 1e+300"),
    (["--lambda-hard", "1e308", "--epochs", "2", "--iterations", "5"],
     "epoch 0, iteration 0: total loss is inf; the run diverged: check the settings not at "
     "their defaults: epochs = 2, iterations = 5, lambda_hard = 1e+308"),
], ids=["weight-decay", "weighted-total"])
def test_a_diverging_run_names_the_settings_off_their_defaults(default_data, tmp_path, flags,
                                                               message):
    result = run_selfreid("train", "--data", default_data, "--out-dir", str(tmp_path / "run"),
                          *flags)
    assert result.stderr == f"error: {message}\n"
    assert result.returncode == 1
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["manifest.txt"]


def test_an_epoch_that_cannot_fill_a_batch_is_one_error_line(default_data, tmp_path):
    for flags, found in (
            # at out_dim 1 the bank forms 2 clusters, fewer than the 8 identities per batch
            ([], "2 clusters"),
            # no sample has 10000 neighbours within eps, so none is a DBSCAN core point
            (["--min-samples", "10000"], "0 clusters (640 outliers)")):
        out_dir = tmp_path / found.split()[0]
        result = run_selfreid("train", "--data", default_data, "--out-dir", str(out_dir),
                              "--out-dim", "1", "--epochs", "3", "--iterations", "10",
                              "--eval-every", "1", *flags)
        assert result.stderr == (f"error: epoch 0: {found} < 8 identities per batch, so no "
                                 f"step can run; change eps, min_samples or k1 for more "
                                 f"clusters, or lower n_identities\n")
        assert result.returncode == 1
        assert sorted(p.name for p in out_dir.iterdir()) == ["manifest.txt"]


@pytest.mark.parametrize("command", [["-c", "import selfreid"], ["-m", "selfreid", "--help"]],
                         ids=["import", "help"])
def test_package_loads_no_scipy(command):
    # The package needs numpy alone; scipy is a test dependency.
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    result = subprocess.run([sys.executable, "-X", "importtime", *command], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in result.stderr.splitlines()
                if line.startswith("import time:")]
    assert "selfreid.rerank" in imported
    assert [name for name in imported if name.split(".")[0] == "scipy"] == []


@pytest.mark.parametrize("command", ["generate", "train", "eval", "ablate", "sweep-eps"])
def test_every_subcommand_has_help(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: selfreid {command} ")


# generate's flags in --help order: (flag, value type, default)
GENERATE_FLAGS = [("--ids", int, 20), ("--cameras", int, 4), ("--samples-per-cell", int, 8),
                  ("--dim", int, 64), ("--dispersion", float, 1.0), ("--sigma-id", float, 0.08),
                  ("--sigma-cam", float, 0.8), ("--seed", int, 0), ("--out-dir", str, "data")]


def test_generate_keeps_its_flag_names_types_and_defaults(capsys):
    parser = cli.build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["generate", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert re.findall(r"\[(--[a-z-]+)", usage) == [flag for flag, _, _ in GENERATE_FLAGS]
    defaults = vars(parser.parse_args(["generate"]))
    given = vars(parser.parse_args(["generate", *[part for flag, _, _ in GENERATE_FLAGS
                                                  for part in (flag, "3")]]))
    for flag, kind, default in GENERATE_FLAGS:
        dest = flag[2:].replace("-", "_")
        assert (type(defaults[dest]), defaults[dest]) == (kind, default), flag
        assert (type(given[dest]), given[dest]) == (kind, kind("3")), flag


# each command's settings flags -> their fields, the flags its parser requires, and
# whether an absent flag parses to its field's default (or to None)
SPEC_LEAVES = {key: f for key, _, f in SyntheticSpec.leaves()}
SETTINGS_FLAGS = {
    "train": ({key: f for key, _, f in TrainConfig.leaves()}, [], False),
    "ablate": ({key: f for key, _, f in TrainConfig.leaves()},
               ["--data", "d", "--query", "q", "--gallery", "g"], False),
    "generate": ({flag: SPEC_LEAVES[key] for flag, key in cli.GENERATE_FLAGS.items()}, [], True),
    "sweep-eps": ({key: f for key, _, f in ClusterConfig.leaves() if key != "eps"},
                  ["--data", "d"], True),
}


@pytest.mark.parametrize("command", SETTINGS_FLAGS)
def test_every_settings_flag_matches_its_field(command):
    fields, required, defaulted = SETTINGS_FLAGS[command]
    parser = cli.build_parser()
    sub = next(action for action in parser._actions
               if isinstance(action, argparse._SubParsersAction)).choices[command]
    absent = vars(parser.parse_args([command, *required]))
    for name, f in fields.items():
        flag, dest = "--" + name.replace("_", "-"), name.replace("-", "_")
        action = sub._option_string_actions[flag]
        assert (action.type, action.help) == (
            f.type, f"{f.metadata['help']} (default: {f.default})"), flag
        assert absent[dest] == (f.default if defaulted else None), flag
        text = {int: "3", float: "0.25", str: str(f.default)}[f.type]
        given = getattr(parser.parse_args([command, *required, flag, text]), dest)
        assert (type(given), given) == (f.type, f.type(text)), flag


def test_generate_flags_set_their_spec_fields(tmp_path, capsys):
    spec = SyntheticSpec(n_identities=3, n_cameras=2, samples_per_cell=2, dim=8, dispersion=1.5,
                         sigma_identity=0.05, sigma_camera=0.4, seed=7)
    assert cli.main(["generate", "--ids", "3", "--cameras", "2", "--samples-per-cell", "2",
                     "--dim", "8", "--dispersion", "1.5", "--sigma-id", "0.05",
                     "--sigma-cam", "0.4", "--seed", "7", "--out-dir", str(tmp_path / "cli")]) == 0
    assert capsys.readouterr().out == (f"wrote 12 train / 6 query / 12 gallery records "
                                       f"to {tmp_path / 'cli'}\n")
    for name, split in zip(("train", "query", "gallery"), generate_synthetic(spec)):
        save_dataset(split, tmp_path / f"{name}.txt")
        assert (tmp_path / "cli" / f"{name}.txt").read_bytes() == \
            (tmp_path / f"{name}.txt").read_bytes()


def test_eval_out_bytes_are_pinned(eval_files, tmp_path, capsys):
    out = tmp_path / "eval.txt"
    assert cli.main(["eval", "--checkpoint", eval_files["checkpoint"], "--query",
                     eval_files["query"], "--gallery", eval_files["gallery"],
                     "--out", str(out)]) == 0
    report = evaluate_encoder(load_checkpoint(eval_files["checkpoint"])[0],
                              load_dataset(eval_files["query"]), load_dataset(eval_files["gallery"]))
    expected = (f"mAP = {report.mean_ap!r}\nrank1 = {report.rank1!r}\n"
                f"rank5 = {report.rank5!r}\nrank10 = {report.rank10!r}\n"
                f"excluded_queries = {report.excluded_queries}\n")
    assert out.read_bytes() == expected.encode()
    assert capsys.readouterr().out == expected


def save_rows(split, rows, path):
    """Save the given rows of `split` to `path`; returns the saved split."""
    part = EmbeddingDataset(split.sample_ids[rows], split.identities[rows], split.cameras[rows],
                            split.features[rows])
    save_dataset(part, path)
    return part


def parse_dump(path, n, max_distance):
    """The (row, column, distance) pairs and the labels per eps of a
    sweep-eps --dump file."""
    lines = Path(path).read_text().splitlines()
    assert lines[0] == (f"# jaccard pairs {n}x{n} upper triangle max_distance={max_distance}: "
                        f"row column distance")
    end = next(i for i, line in enumerate(lines) if line.startswith("# assignment"))
    triples = [line.split() for line in lines[1:end]]
    rows, cols = (np.array([int(t[i]) for t in triples]) for i in (0, 1))
    distances = np.array([float(t[2]) for t in triples])
    labels = {float(header.removeprefix("# assignment eps=")): np.array(row.split(), dtype=int)
              for header, row in zip(lines[end::2], lines[end + 1::2])}
    return (rows, cols, distances), labels


@pytest.mark.parametrize("rows, flags, k1, k2, min_samples", [
    (slice(None), ["--k1", "8", "--k2", "3"], 8, 3, 4),
    # 6 rows: the default k1 = 30 and k2 = 6 both clamp to 5
    (slice(0, 6), ["--min-samples", "2"], 5, 5, 2),
], ids=["k-as-given", "split-smaller-than-k1"])
def test_sweep_eps_reports_and_dumps_dbscan_on_the_bank(train_files, tmp_path, capsys, rows,
                                                         flags, k1, k2, min_samples):
    split = save_rows(load_dataset(train_files["data"]), rows, tmp_path / "split.txt")
    dump = tmp_path / "dump.txt"
    assert cli.main(["sweep-eps", "--data", str(tmp_path / "split.txt"), "--seed", "3", *flags,
                     "--dump", str(dump)]) == 0
    bank = extract_bank(init_state(TrainConfig(seed=3), split).pair, split.features)
    pairs = jaccard_distance_matrix(bank, k1, k2, max(cli.EPS_GRID))
    assignments = {eps: dbscan(pairs, ClusterConfig(k1, k2, eps, min_samples))
                   for eps in cli.EPS_GRID}
    assert capsys.readouterr().out.splitlines() == ["eps,n_clusters,n_outliers"] + [
        f"{eps},{a.cluster_count},{a.outlier_count}" for eps, a in assignments.items()]
    (rows, cols, distances), labels = parse_dump(dump, len(split), max(cli.EPS_GRID))
    np.testing.assert_array_equal(rows, np.repeat(np.arange(len(split)), np.diff(pairs.indptr)))
    np.testing.assert_array_equal(cols, pairs.indices)
    assert np.all(rows < cols)
    assert distances.tobytes() == pairs.data.tobytes()
    assert list(labels) == list(assignments)
    for eps, assignment in assignments.items():
        np.testing.assert_array_equal(labels[eps], assignment.labels)


def test_sweep_eps_checks_k_as_given_before_clamping(train_files, tmp_path, monkeypatch, capsys):
    # both would clamp to n - 1 = 5 on 6 rows; the flags are still checked as train checks them
    save_rows(load_dataset(train_files["data"]), slice(0, 6), tmp_path / "split.txt")
    monkeypatch.setattr(cli, "jaccard_distance_matrix", None)  # fails if re-ranking starts
    assert cli.main(["sweep-eps", "--data", str(tmp_path / "split.txt"),
                     "--k1", "5", "--k2", "8"]) == 1
    assert "error: need k2 in [1, k1], got 8" in capsys.readouterr().err


def test_sweep_eps_rejects_a_one_record_split_before_reranking(train_files, tmp_path,
                                                               monkeypatch, capsys):
    path = tmp_path / "split.txt"
    save_rows(load_dataset(train_files["data"]), slice(0, 1), path)
    monkeypatch.setattr(cli, "jaccard_distance_matrix", None)  # fails if re-ranking starts
    assert cli.main(["sweep-eps", "--data", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: 1 record; sweep-eps re-ranks at least 2\n"


def test_ablate_out_rows_are_each_runs_final_evaluation(tmp_path, monkeypatch, capsys):
    # 9 clusters at the default k1 from the untrained encoder, so every epoch trains
    splits = generate_synthetic(SyntheticSpec(n_identities=10, samples_per_cell=4, dim=16,
                                              sigma_camera=0.3))
    paths = {}
    for name, split in zip(("data", "query", "gallery"), splits):
        paths[name] = str(tmp_path / f"{name}.txt")
        save_dataset(split, paths[name])
    runs = []

    def recorded_train(config, dataset, query, gallery):
        pair, reports = train(config, dataset, query, gallery)
        runs.append((config, pair, reports))
        return pair, reports

    monkeypatch.setattr(cli, "train", recorded_train)
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--data", paths["data"], "--query", paths["query"],
                     "--gallery", paths["gallery"], "--epochs", "2", "--iterations", "2",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "memory_mode,variant,mAP,rank1,final_clusters"
    variants = [(mode, name, weights) for mode in cli.MEMORY_MODES
                for name, weights in cli.ABLATION_VARIANTS]
    assert len(lines) - 1 == len(runs) == len(variants) == 8
    query, gallery = load_dataset(paths["query"]), load_dataset(paths["gallery"])
    for line, (mode, name, weights), (config, pair, reports) in zip(lines[1:], variants, runs):
        values = config.values()
        assert values["memory_mode"] == mode and weights.items() <= values.items()
        ev = reports[-1].evaluation
        assert line == f"{mode},{name},{ev.mean_ap!r},{ev.rank1!r},{reports[-1].cluster_count}"
        assert evaluate_encoder(pair, query, gallery) == ev


def test_ablate_names_the_variant_whose_epoch_cannot_fill_a_batch(train_files, tmp_path,
                                                                  capsys):
    # the untrained encoder forms 3 clusters at the default k1, fewer than the
    # 8 identities per batch, so the first variant stops at its first epoch
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--data", train_files["data"], "--query", train_files["query"],
                     "--gallery", train_files["gallery"], "--epochs", "2", "--iterations", "3",
                     "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == ("error: aware baseline: epoch 0: 3 clusters < 8 identities per "
                           "batch, so no step can run; change eps, min_samples or k1 for more "
                           "clusters, or lower n_identities\n")
    assert not out.exists()


def test_ablate_takes_train_config_flags(train_files, tmp_path, capsys):
    # At k1 = 8 the untrained encoder forms enough clusters for batches of
    # 4 identities, where the defaults' 3 clusters stop the run.
    out = tmp_path / "ablate.csv"
    assert cli.main(["ablate", "--data", train_files["data"], "--query", train_files["query"],
                     "--gallery", train_files["gallery"], "--epochs", "2", "--iterations", "3",
                     "--k1", "8", "--n-identities", "4", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 8
    assert all(int(row[-1]) >= 4 for row in rows)
    assert len(capsys.readouterr().out.splitlines()) == 8


@pytest.mark.parametrize("flags, keys, dropped", [
    (["--memory-mode", "agnostic"], "memory_mode", "--memory-mode"),
    (["--lambda-soft", "0", "--k1", "8", "--lambda-hard", "0.5"], "lambda_hard, lambda_soft",
     "--lambda-hard, --lambda-soft"),
])
def test_ablate_rejects_the_keys_its_grid_sets(train_files, monkeypatch, capsys, flags, keys,
                                               dropped):
    monkeypatch.setattr(cli, "train", None)  # fails if training starts
    assert cli.main(["ablate", "--data", train_files["data"], "--query", train_files["query"],
                     "--gallery", train_files["gallery"], *flags]) == 1
    assert capsys.readouterr().err == f"error: ablate's grid sets {keys} itself; drop {dropped}\n"


def test_train_and_ablate_stop_at_the_trainer_pre_flight(train_files, tmp_path, monkeypatch,
                                                         capsys):
    def refuse(*args):
        raise SelfReidError("refused by check_run")

    monkeypatch.setattr(cli, "check_run", refuse)
    monkeypatch.setattr(cli, "train", None)  # fails if training starts
    out_dir = tmp_path / "run"
    assert run_train(train_files, out_dir) == 1
    assert not out_dir.exists()
    assert cli.main(["ablate", "--data", train_files["data"], "--query", train_files["query"],
                     "--gallery", train_files["gallery"]]) == 1
    assert capsys.readouterr().err.count("error: refused by check_run\n") == 2
