import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfreid import data
from selfreid.data import (
    FORMAT_NAME,
    FORMAT_VERSION,
    UNKNOWN_IDENTITY,
    EmbeddingDataset,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    save_dataset,
)
from selfreid.errors import SelfReidError

from oracles import load_dataset_oracle, traced_peak


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
    with pytest.warns(UserWarning, match="dim=4 is too small to separate identities reliably"):
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
    with pytest.raises(SelfReidError, match="bad.txt:2: dimension 3 != 2 from earlier records"):
        load_dataset(path)


def test_malformed_line_has_line_number(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0 1 0 0.5 0.5\n1 one 0 0.5 0.5\n")
    with pytest.raises(SelfReidError, match=re.escape("bad.txt:2: invalid literal for int()")):
        load_dataset(path)


@pytest.mark.parametrize("text, message", [
    ("# dim 2\n\n0 1 0 0.5 abc\n", "3: could not convert string to float: 'abc'"),
    # float() reads digit-group underscores; numpy's reader does not
    ("0 1 0 0.5 1_0\n", "1: could not convert string to float: '1_0'"),
    ("0 1 0 0.5 0.5\n1 1 0 0.5 0.5\n\n2 1 0 0.5 0.5 0.5\n",
     "4: dimension 3 != 2 from earlier records"),
    # the first line at fault is reported, whatever faults follow it
    ("0 1 0 abc\n1 one 0 0.5\n", "1: could not convert string to float: 'abc'"),
    ("0 1 0 0.5\n0 1 0 0.5\n1 1 0 abc\n", "2: repeated sample id 0"),
    ("0 1 0 0.5\n1 1 0 abc\n1 1 0 0.5\n", "2: could not convert string to float: 'abc'"),
    ("0 1 0 0.5\n0 1 0\n", "2: record needs id, identity, camera and features"),
    ("0 1 0 0.5 0.5\n1 1 0 0.5\n# format other v1\n",
     "2: dimension 1 != 2 from earlier records"),
    ("99999999999999999999 1 0 0.5\n",
     "1: sample id 99999999999999999999 is out of range for int64"),
    ("0 1 0 0.5\n1 -9223372036854775809 0 0.5\n1 one 0 0.5\n",
     "2: identity -9223372036854775809 is out of range for int64"),
    ("0 1 9223372036854775807 0.5\n1 1 9223372036854775808 0.5\n",
     "2: camera 9223372036854775808 is out of range for int64"),
    ("0 1 0 abc\n1 1 99999999999999999999 0.5\n", "1: could not convert string to float: 'abc'"),
    ("0 1 0 0.5\n0 1 0 0.5\n99999999999999999999 1 0 0.5\n", "2: repeated sample id 0"),
    # within a record: out of range, then a bad float, a wrong width, a repeated id
    ("0 1 0 0.5\n0 1 0 abc\n", "2: could not convert string to float: 'abc'"),
    ("0 1 0 0.5\n0 1 0 0.5 0.5\n", "2: dimension 2 != 1 from earlier records"),
    ("0 1 0 0.5\n99999999999999999999 1 0 abc\n",
     "2: sample id 99999999999999999999 is out of range for int64"),
])
def test_first_faulty_line_is_reported(tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(SelfReidError, match=re.escape(f"{path}:{message}")):
        load_dataset(path)


@pytest.mark.parametrize("last, parsed, message", [
    ("0 1 0 0.25 0.5", 201, "repeated sample id 0"),
    ("999 1 0", 200, "record needs id, identity, camera and features"),
    ("99999999999999999999 1 0 0.25 0.5", 200,
     "sample id 99999999999999999999 is out of range for int64"),
])
def test_fault_on_the_last_line_needs_one_bulk_parse(tmp_path, monkeypatch, line_passes,
                                                     last, parsed, message):
    # Each block is parsed once, in bulk. Only the block that does not parse
    # has its records parsed again, one by one, up to the faulty record,
    # whose fault is found before its features. So each of the `parsed`
    # records that parse is parsed once, and a repeated id after clean
    # blocks is found with the bulk calls alone.
    lines = [f"{i} {i % 5} {i % 3} 0.25 0.5" for i in range(200)] + [last]
    path = tmp_path / "split.txt"
    path.write_text("\n".join(lines) + "\n")
    calls = []  # (rows, whether they parsed) of each C-reader call
    loadtxt = np.loadtxt

    def counted(lines, **kw):
        try:
            table = loadtxt(lines, **kw)
        except ValueError:
            calls.append((len(lines), False))
            raise
        calls.append((len(lines), True))
        return table

    monkeypatch.setattr(np, "loadtxt", counted)
    monkeypatch.setattr(data, "_BLOCK_BYTES", 1000)
    with pytest.raises(SelfReidError, match=re.escape(f"{path}:201: {message}")):
        load_dataset(path)
    blocks = -(-path.stat().st_size // 1000)
    bulk, single = calls[:blocks], calls[blocks:]
    repeated = message.startswith("repeated")
    assert [ok for _, ok in bulk] == [True] * (blocks - 1) + [repeated]
    assert sum(rows for rows, _ in bulk) == 201 and len(line_passes) == (not repeated)
    assert single == [(1, True)] * (0 if repeated else bulk[-1][0] - 1)
    assert sum(rows for rows, ok in calls if ok) == parsed


@pytest.mark.parametrize("last, message", [
    ("999 1 0 0.25 abc", "could not convert string to float: 'abc'"),
    ("999 1 0", "record needs id, identity, camera and features"),
    ("999 1 -99999999999999999999 0.25 0.5",
     "camera -99999999999999999999 is out of range for int64"),
    ("# format selfreid-embeddings v2",
     "header '# format selfreid-embeddings v2' is not '# format selfreid-embeddings v1'"),
])
def test_fault_on_the_last_line_is_named_in_one_read(tmp_path, monkeypatch, line_passes,
                                                     last, message):
    lines = [f"{i} {i % 5} {i % 3} 0.25 0.5" for i in range(200)] + [last]
    path = tmp_path / "split.txt"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(data, "_BLOCK_BYTES", 1000)
    reads = []
    blocks = data.text_blocks
    monkeypatch.setattr(data, "text_blocks", lambda path: reads.append(path) or blocks(path))
    outcome = load_outcome(load_dataset, path)
    assert outcome == load_outcome(load_dataset_oracle, path) == f"{path}:201: {message}"
    assert len(reads) == 1 and len(line_passes) == 1


@pytest.mark.parametrize("faults, message", [
    # a repeat in a block that parses comes before a fault in a later block
    ({10: "3 1 1 0.25 0.5", 160: "160 1 1 0.25 abc"}, "11: repeated sample id 3"),
    ({10: "10 1 1 0.25 abc", 160: "3 1 1 0.25 0.5"},
     "11: could not convert string to float: 'abc'"),
    # the block that does not parse repeats an id of the first block
    ({150: "3 1 1 0.25 0.5", 160: "160 1 1 0.25 abc"}, "151: repeated sample id 3"),
])
def test_faults_in_two_blocks_name_the_first(tmp_path, monkeypatch, line_passes, faults,
                                             message):
    lines = [f"{i} {i % 5} {i % 3} 0.25 0.5" for i in range(200)]
    for line, text in faults.items():
        lines[line] = text
    path = tmp_path / "split.txt"
    path.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(data, "_BLOCK_BYTES", 1000)
    offsets = np.cumsum([0] + [len(line) + 1 for line in lines])
    assert offsets[11] < 1000 and 2000 < offsets[150] and offsets[161] < 3000  # blocks 1 and 3
    outcome = load_outcome(load_dataset, path)
    assert outcome == load_outcome(load_dataset_oracle, path) == f"{path}:{message}"
    # the earlier blocks' repeat is named before the failing block is walked
    assert len(line_passes) == (message != "11: repeated sample id 3")


@pytest.fixture
def line_passes(monkeypatch):
    """The first line of each block a load walked line by line, which it
    does only for a block whose records the C reader does not parse."""
    calls = []
    line_fault = data._line_fault
    monkeypatch.setattr(data, "_line_fault",
                        lambda first, *rest: calls.append(first) or line_fault(first, *rest))
    return calls


def test_generated_splits_take_the_one_call_path(tmp_path, line_passes):
    for name, split in zip(("train", "query", "gallery"), generate_synthetic(SyntheticSpec())):
        path = tmp_path / f"{name}.txt"
        save_dataset(split, path)
        assert load_outcome(load_dataset, path) == load_outcome(load_dataset_oracle, path)
    assert line_passes == []


@pytest.mark.parametrize("identities", ["last", "all"])
def test_unlabeled_splits_are_read_once(tmp_path, monkeypatch, line_passes, identities):
    # A split whose only "?" is on its last line, or whose identities are
    # all "?", is built by the C reader in one read of the file.
    train, _, _ = generate_synthetic(SyntheticSpec(n_identities=60))
    if identities == "all":
        train.identities[:] = UNKNOWN_IDENTITY
    else:
        train.identities[-1] = UNKNOWN_IDENTITY
    path = tmp_path / "train.txt"
    save_dataset(train, path)
    monkeypatch.setattr(data, "_BLOCK_BYTES", 1000)
    reads = []
    blocks = data.text_blocks
    monkeypatch.setattr(data, "text_blocks", lambda path: reads.append(path) or blocks(path))
    assert load_outcome(load_dataset, path) == load_outcome(load_dataset_oracle, path)
    assert len(reads) == 1 and line_passes == []


# Record texts and the path each takes: "tables" when the C reader builds
# the dataset or names the fault, "lines" when the line walk names it.
PATH_CASES = {
    "signed and zero-padded ids": ("+7 007 0 0.5\n-0 +1 1 0.25\n", "tables"),
    "unknown identities": ("0 ? 0 0.5\n1 ? 1 0.25\n", "tables"),
    "digit-group underscore id": ("1_0 1 0 0.5\n", "tables"),
    "float-form id": ("12.0 1 0 0.5\n", "lines"),
    "exponent id": ("0 1 0 0.5\n1e1 1 0 0.25\n", "lines"),
    "Arabic-Indic digit id": ("٣ 1 0 0.5\n", "tables"),
    # int() reads the ids; numpy's integer reader would take "1Ǿ" for 472
    "non-ASCII letter in an id": ("0 1 0 0.5\n1Ǿ 1 0 0.25\n", "lines"),
    "no-break spaces between fields": ("0\u00a01\u00a00\u00a00.5\n", "tables"),
    # a fixed-width text field such as U64 would cut the long id short
    "? beside a long zero-padded id, 1_0 and ٣": (
        "0" * 70 + "7 ? 0 0.5\n1_0 ? 1 0.25\n٣ 1 0 0.75\n", "tables"),
    "? beside an out-of-range id": ("0 ? 0 0.5\n99999999999999999999 ? 1 0.25\n", "lines"),
    "? as a sample id": ("0 1 0 0.5\n? 1 1 0.25\n", "lines"),
    "? as a camera": ("0 1 0 0.5\n1 1 ? 0.25\n", "lines"),
    "\\x1c between fields": ("0\x1c1\x1c0\x1c0.5 0.25\n1 1 1 0.5\x1c0.25\n", "tables"),
    "tabs": ("0\t1\t0\t0.5\t0.25\n1\t1\t1\t0.5\t0.25\n", "tables"),
    "CRLF line ends": ("# dim 1\r\n0 1 0 0.5\r\n1 1 1 0.25\r\n", "tables"),
    "whitespace-only lines": ("0 1 0 0.5\n   \n\t\x0b\n1 1 1 0.25\n\n", "tables"),
    "# line after records": ("0 1 0 0.5\n# note\n1 1 1 0.25\n", "tables"),
    "header line after records": ("0 1 0 0.5\n1 1 1 0.25\n# count 3\n", "tables"),
    "header after blank lines": ("\n  \n# format selfreid-embeddings v1\n0 1 0 0.5\n", "tables"),
    "foreign format": ("# format other v1\n0 1 0 0.5\n", "lines"),
    "short first record": ("0 1 0\n", "lines"),
    "no records": ("# dim 1\n\n", "tables"),
    "header count mismatch": ("# count 3\n0 1 0 0.5\n1 1 1 0.25\n", "tables"),
    "non-finite feature": ("0 1 0 0.5\n1 1 1 nan\n", "tables"),
    "repeated id": ("0 1 0 0.5\n0 1 1 0.25\n", "tables"),
    # numpy warns that blank lines alone "contained no data"; the tests run
    # with warnings as errors
    "header-only first block": ("# format selfreid-embeddings v1\n# dim 1\n\n0 1 0 0.5\n",
                                "tables"),
    "blank block": ("0 1 0 0.5\n" + " \n" * 20 + "1 1 1 0.25\n", "tables"),
}


@pytest.mark.parametrize("block_bytes", [16, data._BLOCK_BYTES])  # 16: one record a block
@pytest.mark.parametrize("case", PATH_CASES)
def test_each_file_takes_one_path_and_loads_as_the_reference(tmp_path, monkeypatch,
                                                             line_passes, case, block_bytes):
    text, path_taken = PATH_CASES[case]
    path = tmp_path / "split.txt"
    path.write_bytes(text.encode())
    monkeypatch.setattr(data, "_BLOCK_BYTES", block_bytes)
    assert load_outcome(load_dataset, path) == load_outcome(load_dataset_oracle, path)
    assert len(line_passes) == (path_taken == "lines")


@pytest.mark.parametrize("fault, message", [
    (lambda fields: fields[:4] + ["abc"], "could not convert string to float: 'abc'"),
    (lambda fields: ["7"] + fields[1:], "repeated sample id 7"),
    (lambda fields: fields + ["0.5"], "dimension 3 != 2 from earlier records"),
])
def test_fault_several_blocks_in_is_named_by_the_line_pass(tmp_path, monkeypatch,
                                                           line_passes, fault, message):
    lines = [f"{i} {i % 5} {i % 3} 0.25 0.5" for i in range(200)]
    lines[190] = " ".join(fault(lines[190].split()))
    path = tmp_path / "split.txt"
    path.write_text("# format selfreid-embeddings v1\n" + "\n".join(lines) + "\n")
    monkeypatch.setattr(data, "_BLOCK_BYTES", 1000)
    assert path.read_text().index(lines[190]) > 3 * 1000  # in the fourth block
    outcome = load_outcome(load_dataset, path)
    assert outcome == load_outcome(load_dataset_oracle, path) == f"{path}:192: {message}"
    # all of a repeated id's blocks parse, so the C reader's pass names it
    assert len(line_passes) == (not message.startswith("repeated"))


def test_non_utf8_file_rejected(tmp_path):
    path = tmp_path / "binary.txt"
    path.write_bytes(b"0 1 0 0.5\n\xd0\xcf 1 0 0.5\n")
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}: not UTF-8 text: byte 0xd0 at offset 10 cannot be decoded")):
        load_dataset(path)


def test_character_across_a_read_boundary(tmp_path, monkeypatch):
    # "é" takes bytes 2 and 3, so a 3-byte read ends inside it
    path = tmp_path / "split.txt"
    path.write_bytes("# é\r\n0 1 0 0.5\r\n1 ? 1 0.25".encode())
    monkeypatch.setattr(data, "_BLOCK_BYTES", 3)
    loaded = load_dataset(path)
    np.testing.assert_array_equal(loaded.features, [[0.5], [0.25]])
    np.testing.assert_array_equal(loaded.identities, [1, UNKNOWN_IDENTITY])


def test_utf8_fault_in_a_later_block_comes_first(tmp_path, monkeypatch):
    records = b"".join(b"%d 1 0 0.5\n" % i for i in range(20))
    path = tmp_path / "split.txt"
    path.write_bytes(b"0 1 0 abc\n" + records + b"# \xd0\n")
    monkeypatch.setattr(data, "_BLOCK_BYTES", 16)
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}: not UTF-8 text: byte 0xd0 at offset {10 + len(records) + 2} "
            f"cannot be decoded")):
        load_dataset(path)


def test_width_change_across_blocks(tmp_path, monkeypatch):
    path = tmp_path / "split.txt"
    path.write_text("0 1 0 0.5 0.5\n1 1 0 0.5 0.5\n2 1 0 0.5 0.5 0.5\n3 1 0 0.5\n")
    monkeypatch.setattr(data, "_BLOCK_BYTES", 16)  # one record a block
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}:3: dimension 3 != 2 from earlier records")):
        load_dataset(path)


def test_load_peak_memory_is_block_sized(tmp_path, monkeypatch):
    # The whole-file loader peaked at about 2.2 times the file's size, 5.6
    # times its features here; block by block the text never adds up.
    train, _, _ = generate_synthetic(SyntheticSpec())
    path = tmp_path / "train.txt"
    save_dataset(train, path)
    monkeypatch.setattr(data, "_BLOCK_BYTES", 16 * 1024)
    assert path.stat().st_size > 16 * data._BLOCK_BYTES
    peak, loaded = traced_peak(load_dataset, path)
    np.testing.assert_array_equal(loaded.features, train.features)
    # the block features and their concatenation, the record ids, a few blocks
    assert peak < 3 * train.features.nbytes + 8 * data._BLOCK_BYTES


def test_duplicate_sample_id_rejected(tmp_path):
    path = tmp_path / "dup.txt"
    path.write_text("7 1 0 0.5 0.5\n7 2 1 0.1 0.2\n")
    with pytest.raises(SelfReidError, match="dup.txt:2: repeated sample id 7"):
        load_dataset(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    with pytest.raises(SelfReidError, match="empty.txt: no records"):
        load_dataset(path)


def test_sparse_camera_ids_rejected_with_path(tmp_path):
    path = tmp_path / "cams.txt"
    path.write_text("0 1 1 0.5 0.5\n1 1 2 0.5 0.25\n")
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}: camera ids must be dense 0..C-1, got 2 distinct ids from 1 to 2")):
        load_dataset(path)


def test_foreign_format_header_rejected(tmp_path):
    path = tmp_path / "fmt.txt"
    path.write_text("# format something-else v9\n0 1 0 0.5 0.5\n")
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}:1: header '# format something-else v9' is not "
            f"'# format selfreid-embeddings v1'")):
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
    with pytest.raises(SelfReidError, match="short.txt: header count 3 != 2 records"):
        load_dataset(path)


def test_header_cameras_mismatch_rejected(tmp_path):
    path = tmp_path / "cams.txt"
    path.write_text("# cameras 4\n0 1 0 0.5\n1 1 1 0.25\n2 2 2 0.75\n")
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}: header cameras 4 != 3 cameras in the records")):
        load_dataset(path)


@pytest.mark.parametrize("header", ["# dim sixteen", "# count 2.0", "# cameras 1x"])
def test_header_non_integer_rejected(tmp_path, header):
    path = tmp_path / "header.txt"
    path.write_text(f"{header}\n0 1 0 0.5\n1 1 0 0.25\n")
    with pytest.raises(SelfReidError,
                       match=f"header.txt: header {header.split()[1]} .* is not an integer"):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_non_finite_feature_rejected_with_line_number(tmp_path, value):
    path = tmp_path / "nan.txt"
    path.write_text(f"# dim 2\n\n0 1 0 0.5 0.5\n1 1 0 0.5 {value}\n")
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}:4: feature 1 is {float(value)}, not a finite number")):
        load_dataset(path)


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_save_rejects_non_finite_feature_before_opening_the_file(tmp_path, value):
    dataset = EmbeddingDataset(sample_ids=np.array([0, 1]), identities=np.array([0, 1]),
                               cameras=np.array([0, 0]),
                               features=np.array([[0.5, 0.5], [0.5, float(value)]]))
    path = tmp_path / "out.txt"
    with pytest.raises(SelfReidError, match=re.escape(
            f"{path}: row 1: feature 1 is {float(value)}, not a finite number")):
        save_dataset(dataset, path)
    assert not path.exists()


def test_save_names_the_path_of_a_split_whose_arrays_do_not_line_up(tmp_path):
    train = generate_synthetic(SyntheticSpec(n_identities=2))[0]
    path = tmp_path / "out.txt"
    message = f"{path}: cameras must be 1-D with one entry per feature row (64), got shape (63,)"
    with pytest.raises(SelfReidError, match=f"^{re.escape(message)}$"):
        save_dataset(EmbeddingDataset(train.sample_ids, train.identities, train.cameras[:-1],
                                      train.features), path)
    assert not path.exists()


@pytest.mark.parametrize("name, value, message", [
    ("features", np.zeros(4), "features must be 2-D (records x dims), got shape (4,)"),
    ("features", np.zeros((4, 2, 1)),
     "features must be 2-D (records x dims), got shape (4, 2, 1)"),
    ("sample_ids", np.arange(3), "sample_ids must be 1-D with one entry per feature row (4), "
                                 "got shape (3,)"),
    ("identities", np.zeros(3, dtype=np.int64),
     "identities must be 1-D with one entry per feature row (4), got shape (3,)"),
    ("cameras", np.zeros(5, dtype=np.int64),
     "cameras must be 1-D with one entry per feature row (4), got shape (5,)"),
    ("cameras", np.zeros((4, 1), dtype=np.int64),
     "cameras must be 1-D with one entry per feature row (4), got shape (4, 1)"),
])
def test_validate_rejects_record_arrays_that_do_not_line_up(name, value, message):
    arrays = {"sample_ids": np.arange(4), "identities": np.array([0, 0, 1, 1]),
              "cameras": np.array([0, 1, 0, 1]), "features": np.ones((4, 2))}
    EmbeddingDataset(**arrays).validate()
    with pytest.raises(SelfReidError, match=re.escape(f"path: {message}")):
        EmbeddingDataset(**{**arrays, name: value}).validate("path: ")


def test_validate_checks_finiteness_last():
    arrays = {"sample_ids": np.arange(4), "identities": np.array([0, 0, 1, 1]),
              "cameras": np.array([1, 2, 1, 2]), "features": np.ones((4, 2))}
    arrays["features"][2, 1] = np.nan
    with pytest.raises(SelfReidError, match=r"^path: camera ids must be dense 0\.\.C-1"):
        EmbeddingDataset(**arrays).validate("path: ")
    with pytest.raises(SelfReidError, match="^path: row 2: feature 1 is nan, not a finite number$"):
        EmbeddingDataset(**{**arrays, "cameras": arrays["cameras"] - 1}).validate("path: ")


@pytest.mark.parametrize("name", ["dispersion", "sigma_identity", "sigma_camera"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -0.5])
def test_spec_rejects_scale_that_is_not_finite_and_non_negative(name, value):
    with pytest.raises(SelfReidError, match=re.escape(
            f"need {name} in [0, inf), got {value!r}")):
        generate_synthetic(SyntheticSpec(**{name: value}))


EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
INT64 = st.integers(-2**63, 2**63 - 1)


@st.composite
def split_records(draw):
    """A dataset of 1-5 records of 1-4 finite features."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    values = st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.integers(-2**60, 2**60).map(float),
                       st.floats(allow_nan=False, allow_infinity=False))
    features = draw(st.lists(values, min_size=n * d, max_size=n * d))
    cameras = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return EmbeddingDataset(
        sample_ids=np.array(draw(st.lists(st.sampled_from([-2**63, 2**63 - 1]) | INT64,
                                          min_size=n, max_size=n, unique=True))),
        identities=np.array(draw(st.lists(st.just(UNKNOWN_IDENTITY) | st.integers(0, 2**63 - 1),
                                          min_size=n, max_size=n))),
        cameras=np.unique(cameras, return_inverse=True)[1],  # dense 0..C-1
        features=np.array(features, dtype=np.float64).reshape(n, d))


@pytest.fixture(scope="module")
def split_path(tmp_path_factory):
    return tmp_path_factory.mktemp("split") / "split.txt"


@settings(max_examples=50)
@given(split_records(), st.data())
def test_save_load_round_trip_property(split_path, dataset, data):
    save_dataset(dataset, split_path)
    lines = split_path.read_text().splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", "  ", "#", "# note"])))
    newline = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    split_path.write_bytes(newline.join(lines + [""]).encode())

    loaded = load_dataset(split_path)
    np.testing.assert_array_equal(loaded.features.view(np.int64),
                                  dataset.features.view(np.int64))
    np.testing.assert_array_equal(loaded.sample_ids, dataset.sample_ids)
    np.testing.assert_array_equal(loaded.identities, dataset.identities)
    np.testing.assert_array_equal(loaded.cameras, dataset.cameras)

    # Records from the second on may take the id of an earlier record; the
    # first line that repeats an id is the one reported.
    records = [i for i, line in enumerate(lines) if line.strip()[:1] not in ("", "#")]
    sources = [None] + [data.draw(st.none() | st.integers(0, j - 1))
                        for j in range(1, len(records))]
    if any(source is not None for source in sources):
        for j, source in enumerate(sources):
            if source is not None:
                tail = lines[records[j]].split(" ", 1)[1]
                lines[records[j]] = f"{dataset.sample_ids[source]} {tail}"
        first = next(j for j, source in enumerate(sources) if source is not None)
        split_path.write_bytes(newline.join(lines).encode())
        with pytest.raises(SelfReidError, match=re.escape(
                f"{split_path}:{records[first] + 1}: repeated sample id "
                f"{dataset.sample_ids[sources[first]]}")):
            load_dataset(split_path)


FAULT_KINDS = ("short", "non-integer", "overflow", "float", "width", "repeat", "format")
COLUMNS = ("sample id", "identity", "camera")


@settings(max_examples=60)
@given(split_records(), st.data())
def test_first_corrupted_line_is_reported_property(split_path, dataset, data):
    save_dataset(dataset, split_path)
    lines = split_path.read_text().splitlines()
    first_record = sum(line.startswith("#") for line in lines)
    n, d = dataset.features.shape
    corrupted = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                         max_size=min(3, n))))
    reasons = []
    for record in corrupted:
        # another width or a repeated id is a fault only after the first record
        kind = data.draw(st.sampled_from([kind for kind in FAULT_KINDS
                                          if record or kind not in ("width", "repeat")]))
        fields = lines[first_record + record].split(" ")
        if kind == "short":
            fields, reason = fields[:3], "record needs id, identity, camera and features"
        elif kind == "non-integer":
            column = data.draw(st.integers(0, 2))
            fields[column] = "one"
            reason = "invalid literal for int() with base 10: 'one'"
        elif kind == "overflow":
            column = data.draw(st.integers(0, 2))
            value = data.draw(st.integers(2**63, 2**70) | st.integers(-2**70, -2**63 - 1))
            fields[column] = str(value)
            reason = f"{COLUMNS[column]} {value} is out of range for int64"
        elif kind == "float":
            token = data.draw(st.sampled_from(["abc", "1_0", "1e", "--1"]))
            fields[3 + data.draw(st.integers(0, d - 1))] = token
            reason = f"could not convert string to float: {token!r}"
        elif kind == "width":
            fields.append("0.5")
            reason = f"dimension {d + 1} != {d} from earlier records"
        elif kind == "repeat":
            repeated = dataset.sample_ids[data.draw(st.integers(0, record - 1))]
            fields[0] = str(repeated)
            reason = f"repeated sample id {repeated}"
        else:
            fields = ["# format", FORMAT_NAME, f"v{FORMAT_VERSION + 1}"]
            reason = (f"header '{' '.join(fields)}' is not "
                      f"'# format {FORMAT_NAME} v{FORMAT_VERSION}'")
        lines[first_record + record] = " ".join(fields)
        reasons.append(reason)
    split_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SelfReidError) as fault:
        load_dataset(split_path)
    assert str(fault.value) == f"{split_path}:{first_record + corrupted[0] + 1}: {reasons[0]}"


# Byte strings that make each fault the loader reports, or none: line ends,
# headers, bad and out-of-range numbers, non-finite values, characters of
# 2 and 3 bytes, bytes that are not UTF-8 and Unicode whitespace.
SPLICES = [b"\n", b"\r", b"\r\n", b" ", b"\t", b"#", b"?", b"0", b"-", b"1e", b"abc", b"1_0",
           b"nan", b"-inf", b"99999999999999999999", b"# format x v1", b"# dim 3",
           b"# count 2", b"# cameras 5", b"# cameras x", "\u00e9".encode(),
           "\u20ac".encode(), b"\xd0", b"\xff", b"\xe2\x82", b"\x0b", "\u2028".encode(),
           "\x85".encode()]


# Ids that int() reads or rejects, among them some that numpy's integer
# reader reads otherwise and one too long for a 64-character text field;
# and whitespace between fields, ASCII or not.
ID_TOKENS = ["+7", "007", "-0", "0" * 70 + "7", "12.0", "1e1", "1_0", "\u0663", "1\u01fe",
             "?"]
FIELD_SPACES = ["\t", "  ", "\x0b", "\x1c", "\u00a0", "\u2028", "\u3000", "\x85"]


def load_outcome(load, path):
    """The message of the SelfReidError `load(path)` raises, or the bytes of
    the arrays it returns."""
    try:
        loaded = load(path)
    except SelfReidError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in
            (loaded.sample_ids, loaded.identities, loaded.cameras, loaded.features)]


@pytest.mark.parametrize("block_bytes", [1, 7, data._BLOCK_BYTES])
@settings(max_examples=40)
@given(split_records(), st.data())
def test_block_reader_matches_whole_file_reference_property(split_path, block_bytes,
                                                            dataset, draws):
    save_dataset(dataset, split_path)
    lines = split_path.read_text().split("\n")
    records = [i for i, line in enumerate(lines) if line[:1] not in ("", "#")]
    for _ in range(draws.draw(st.integers(0, 2))):  # tokens that decide the path taken
        record = draws.draw(st.sampled_from(records))
        fields = lines[record].split(" ", 3)
        if draws.draw(st.booleans()):
            fields[draws.draw(st.integers(0, 2))] = draws.draw(st.sampled_from(ID_TOKENS))
            lines[record] = " ".join(fields)
        else:
            at = draws.draw(st.integers(1, 3))
            space = draws.draw(st.sampled_from(FIELD_SPACES))
            lines[record] = " ".join(fields[:at]) + space + " ".join(fields[at:])
    raw = bytearray("\n".join(lines).encode())
    for _ in range(draws.draw(st.integers(0, 4))):
        at = draws.draw(st.integers(0, len(raw)))
        edit = draws.draw(st.sampled_from(["insert", "replace", "delete", "repeat", "cut"]))
        if edit == "insert":
            raw[at:at] = draws.draw(st.sampled_from(SPLICES))
        elif edit == "replace":
            raw[at:at + draws.draw(st.integers(1, 3))] = draws.draw(st.sampled_from(SPLICES))
        elif edit == "delete":
            del raw[at:at + draws.draw(st.integers(1, 3))]
        elif edit == "repeat":  # the line around `at`, again after it
            start, end = raw.rfind(b"\n", 0, at) + 1, raw.find(b"\n", at) + 1 or len(raw)
            raw[end:end] = raw[start:end]
        else:
            del raw[at:]
    split_path.write_bytes(bytes(raw))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(data, "_BLOCK_BYTES", block_bytes)
        assert load_outcome(load_dataset, split_path) == \
            load_outcome(load_dataset_oracle, split_path)


def test_load_differential_tool_finds_no_difference(monkeypatch, capsys):
    # tests/load_differential.py, which pytest does not collect, on a small draw
    # against the oracle; the tool sets data._BLOCK_BYTES for each load
    import load_differential

    monkeypatch.setattr(data, "_BLOCK_BYTES", data._BLOCK_BYTES)
    assert load_differential.main(["--seeds", "0", "--files", "30"]) == 0
    assert "\n0 differences\n" in capsys.readouterr().out
