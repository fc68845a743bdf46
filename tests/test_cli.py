import numpy as np
import pytest

from selfreid import cli
from selfreid.data import SyntheticSpec, generate_synthetic, save_dataset
from selfreid.encoder import init_optimizer, init_pair, save_checkpoint


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


def test_eval_rejects_non_checkpoint_file(eval_files, capsys):
    assert run_eval(eval_files, eval_files["query"]) == 1
    err = capsys.readouterr().err
    assert eval_files["query"] in err and "not a checkpoint file" in err
