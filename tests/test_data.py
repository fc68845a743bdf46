import hashlib

import numpy as np
import pytest

from selfreid.data import (
    EmbeddingDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from selfreid.errors import ConfigWarning, DuplicateId, EmptyDataset, ParseError


def test_generate_counts():
    spec = SyntheticSpec(n_identities=20, n_cameras=4, samples_per_cell=8, seed=1)
    train, query, gallery = generate_synthetic(spec)
    assert len(train) == 640
    assert len(query) == 20 * 4
    assert len(gallery) == 20 * 4 * 2


def test_generate_zero_noise_collapses_cells():
    spec = SyntheticSpec(n_identities=3, n_cameras=2, samples_per_cell=4,
                         sigma_identity=0.0, sigma_camera=0.0, seed=2)
    train, _, _ = generate_synthetic(spec)
    for identity in range(3):
        rows = train.features[train.identities == identity]
        assert np.allclose(rows, rows[0])


def test_generate_disjoint_sample_ids():
    train, query, gallery = generate_synthetic(SyntheticSpec(seed=3))
    ids = np.concatenate([train.sample_ids, query.sample_ids, gallery.sample_ids])
    assert len(np.unique(ids)) == len(ids)


def test_generate_deterministic():
    a, _, _ = generate_synthetic(SyntheticSpec(seed=4))
    b, _, _ = generate_synthetic(SyntheticSpec(seed=4))
    np.testing.assert_array_equal(a.features, b.features)


# sha256 of the files save_dataset writes for the default SyntheticSpec; any
# change to the generator's random stream or to the file format shows here.
DEFAULT_SPEC_SHA256 = {
    "train": "fe77150187f5139f181c716620023ba827e34332421bbc20ef7fe7b272afe6de",
    "query": "f655caf00a79dc6b4ce04bae48fa49ece7233a94e3635bfb84043317b8257676",
    "gallery": "13abc4961e9237696c99fd868251a5e9f9b11358a46f9d4774c7398ea90a54de",
}


def test_default_spec_files_pinned(tmp_path):
    for name, split in zip(DEFAULT_SPEC_SHA256, generate_synthetic(SyntheticSpec())):
        path = tmp_path / f"{name}.txt"
        save_dataset(split, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == DEFAULT_SPEC_SHA256[name], name


def test_generate_warns_on_tiny_dim():
    with pytest.warns(ConfigWarning):
        generate_synthetic(SyntheticSpec(dim=4, seed=0))


def test_nearest_center_separability():
    spec = SyntheticSpec(n_identities=20, n_cameras=4, samples_per_cell=8,
                         sigma_identity=0.05, sigma_camera=0.3, seed=5)
    train, _, _ = generate_synthetic(spec)
    # rebuild the generating centers through the same seeded draw
    rng = np.random.default_rng([spec.seed, 0x5EED])
    raw = rng.normal(size=(spec.n_identities, spec.dim))
    centers = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    predicted = np.argmax(train.features @ centers.T
                          - 0.5 * (centers**2).sum(axis=1), axis=1)
    accuracy = float(np.mean(predicted == train.identities))
    assert accuracy >= 0.9


def test_round_trip_bit_exact(tmp_path):
    train, _, _ = generate_synthetic(SyntheticSpec(n_identities=4, n_cameras=2,
                                                   samples_per_cell=3, seed=6))
    path = tmp_path / "train.txt"
    save_dataset(train, path)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.features, train.features)
    np.testing.assert_array_equal(loaded.sample_ids, train.sample_ids)
    np.testing.assert_array_equal(loaded.identities, train.identities)
    np.testing.assert_array_equal(loaded.cameras, train.cameras)


def test_unknown_identity_round_trip(tmp_path):
    dataset = EmbeddingDataset(
        sample_ids=np.array([0, 1]),
        identities=np.array([-1, 3]),
        cameras=np.array([0, 1]),
        features=np.array([[0.1, 0.2], [0.3, 0.4]]))
    path = tmp_path / "mixed.txt"
    save_dataset(dataset, path)
    text = path.read_text()
    assert " ? " in text
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.identities, [-1, 3])


def test_mixed_dimensions_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 0 0.5 0.5\n1 1 0 0.5 0.5 0.5\n")
    with pytest.raises(ParseError, match="bad.txt:2"):
        load_dataset(path)


def test_malformed_line_has_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 0 0.5 0.5\n1 one 0 0.5 0.5\n")
    with pytest.raises(ParseError, match=":2"):
        load_dataset(path)


def test_duplicate_sample_id_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("7 1 0 0.5 0.5\n7 2 1 0.1 0.2\n")
    with pytest.raises(DuplicateId):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(EmptyDataset):
        load_dataset(path)


def test_header_is_self_describing(tmp_path):
    train, _, _ = generate_synthetic(SyntheticSpec(n_identities=2, n_cameras=2,
                                                   samples_per_cell=2, seed=7))
    path = tmp_path / "train.txt"
    save_dataset(train, path)
    head = path.read_text().splitlines()[:4]
    assert head[0].startswith("# format")
    assert head[1] == f"# dim {train.dim}"
    assert head[2] == f"# count {len(train)}"
    assert head[3] == "# cameras 2"


def test_header_count_mismatch_rejected(tmp_path):
    path = tmp_path / "short.txt"
    path.write_text("# count 3\n0 1 0 0.5\n1 1 0 0.25\n")
    with pytest.raises(ParseError, match="count"):
        load_dataset(path)


@pytest.mark.parametrize("header", ["# dim sixteen", "# count 2.0"])
def test_header_non_integer_rejected(tmp_path, header):
    path = tmp_path / "header.txt"
    path.write_text(f"{header}\n0 1 0 0.5\n1 1 0 0.25\n")
    with pytest.raises(ParseError, match=f"header.txt: header {header.split()[1]} "):
        load_dataset(path)
