import numpy as np
import pytest

from selfreid import cli
from selfreid.data import SyntheticSpec, generate_synthetic, save_dataset
from selfreid.encoder import init_optimizer, init_pair, save_checkpoint
from selfreid.reporting import METRICS_COLUMNS

from oracles import write_version_1_checkpoint


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


def test_train_from_manifest_is_byte_identical(train_files, tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_train(train_files, first, *TINY_RUN) == 0
    assert cli.main(["train", "--from-manifest", str(first / "manifest.txt"),
                     "--out-dir", str(second)]) == 0
    for name in ("metrics.csv", "manifest.txt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()
    final_row = (first / "metrics.csv").read_text().splitlines()[-1].split(",")
    assert final_row[METRICS_COLUMNS.index("mAP")]


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
