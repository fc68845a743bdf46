"""Embedding datasets: synthetic generation and a text file format.

The synthetic generator mimics the structure of multi-camera identity
data: identity centers on the unit sphere, an additive per-camera style
offset shared across identities, and per-sample Gaussian noise. True
identity ids ride along for evaluation and the oracle-label mode only;
the trainer never reads them otherwise.

Files are line-oriented UTF-8 text with a header block, one record per
line: ``sample_id identity|? camera v0 v1 ... v{d-1}``. The header is
optional, but a ``# format`` line must read ``selfreid-embeddings v1``,
and ``# dim``, ``# count`` and ``# cameras`` lines must match the records.
Lines end at ``\n``, ``\r\n`` or ``\r``; blank lines are skipped.

Loading reads fixed blocks of _BLOCK_BYTES bytes. Each block is cut after
its last line end, the rest carried to the next, so no character and no
line end is split; it is decoded on its own, and a byte that is not UTF-8
is reported at its offset in the whole file.

Each block's record lines are parsed in one call of numpy's C text
reader (``np.loadtxt``), as a table of three int64 ids and the features;
the first record sets the width. int() reads the ids (``?`` is an unknown
identity), so they take its syntax, long zero-padded ids and non-ASCII
digits included, and ``#`` lines anywhere are read into the header.

A block fails when it does not parse, when it holds a ``# format`` line
for another format, or when the file's first record is short. Its fault
is named in the same pass. A repeated id among the earlier blocks' records
comes first. Otherwise only the failing block is walked line by line, from
the earlier blocks' ids and width, to the first line at fault; within a
record the faults rank: out of range, bad float, wrong width, repeated id.
The later blocks are then only decoded, so a fault in the UTF-8 encoding
outranks them all. A repeated id in a file whose blocks all parse, and the
whole-file checks, fail once every block is read. Only a repeated id or a
non-finite feature takes a second read, which looks up the record's line.

The blocks' tables are joined at the end: a load holds the features twice
at most and a few blocks of text, never the whole file. The reader takes
decimal and exponent forms, ``inf`` and ``nan`` (which the finiteness
check then rejects), but not the digit-group underscores or non-ASCII
digits that float() also takes. It rounds as float() does, and floats are
written with repr, so a save/load round trip is bit-exact.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import SelfReidError
from .linalg import normalize_rows, require_finite
from .settings import Settings, setting

FORMAT_NAME = "selfreid-embeddings"
FORMAT_VERSION = 1
UNKNOWN_IDENTITY = -1

# Split files are read this many bytes at a time; see the module docstring.
_BLOCK_BYTES = 256 * 1024

# Fresh draws per (identity, camera) cell for the held-out splits.
QUERY_PER_CELL = 1
GALLERY_PER_CELL = 2
EVAL_NOISE_FACTOR = 1.5  # their noise scale, as a multiple of sigma_identity


@dataclass
class SyntheticSpec(Settings):
    n_identities: int = setting(20, "identities", "[1, inf)")
    n_cameras: int = setting(4, "cameras", "[1, inf)")
    samples_per_cell: int = setting(8, "training samples per (identity, camera)", "[1, inf)")
    dim: int = setting(64, "feature dimension", "[1, inf)")
    dispersion: float = setting(1.0, "identity-center radius", "[0, inf)")
    sigma_identity: float = setting(0.08, "per-coordinate sample noise", "[0, inf)")
    sigma_camera: float = setting(0.8, "norm of each camera's style offset", "[0, inf)")
    seed: int = setting(0, "generator seed", "[0, inf)")


@dataclass
class EmbeddingDataset:
    """Aligned record arrays; identities use -1 for unknown ("?")."""

    sample_ids: np.ndarray
    identities: np.ndarray
    cameras: np.ndarray
    features: np.ndarray

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    @property
    def n_cameras(self) -> int:
        return int(self.cameras.max()) + 1 if len(self) else 0

    def validate(self, where: str = "") -> None:
        """The rule for every split, in order: 2-D features; 1-D sample ids, identities
        and cameras, one per row; a record; unique sample ids; cameras 0..C-1; finite
        features. `where` (say "path: ") prefixes each message."""
        if self.features.ndim != 2:
            raise SelfReidError(f"{where}features must be 2-D (records x dims), "
                                f"got shape {self.features.shape}")
        n = len(self)
        for name in ("sample_ids", "identities", "cameras"):
            shape = getattr(self, name).shape
            if shape != (n,):
                raise SelfReidError(f"{where}{name} must be 1-D with one entry per feature "
                                    f"row ({n}), got shape {shape}")
        if n == 0:
            raise SelfReidError(f"{where}dataset holds no records")
        if len(np.unique(self.sample_ids)) != n:
            raise SelfReidError(f"{where}sample ids are not unique")
        cams = np.unique(self.cameras)
        if cams[0] != 0 or cams[-1] != len(cams) - 1:
            raise SelfReidError(f"{where}camera ids must be dense 0..C-1, got {len(cams)} "
                                f"distinct ids from {cams[0]} to {cams[-1]}")
        require_finite(self.features, f"{where}row ")


def generate_synthetic(spec: SyntheticSpec):
    """Build disjoint train/query/gallery splits from one seeded draw.

    Every sample is center + camera offset + noise. Query and gallery
    use fresh draws, EVAL_NOISE_FACTOR times noisier, around the same
    centers and offsets, so the task is cross-camera retrieval of the
    training-time identities under test-time distribution shift.
    """
    spec.validate()
    if spec.dim < 8:
        warnings.warn(f"dim={spec.dim} is too small to separate identities reliably",
                      UserWarning, stacklevel=2)
    rng = np.random.default_rng([spec.seed, 0x5EED])
    centers = spec.dispersion * normalize_rows(rng.normal(size=(spec.n_identities, spec.dim)))
    # camera style: a fixed offset direction per camera, norm sigma_camera
    offsets = spec.sigma_camera * normalize_rows(rng.normal(size=(spec.n_cameras, spec.dim)))

    def draw_split(per_cell: int, noise_scale: float, first_id: int) -> EmbeddingDataset:
        # rows run identity-major, then camera, then sample within the cell
        identities = np.repeat(np.arange(spec.n_identities, dtype=np.int64),
                               spec.n_cameras * per_cell)
        cameras = np.tile(np.repeat(np.arange(spec.n_cameras, dtype=np.int64), per_cell),
                          spec.n_identities)
        noise = rng.normal(0.0, noise_scale, size=(len(identities), spec.dim))
        return EmbeddingDataset(
            sample_ids=np.arange(first_id, first_id + len(identities), dtype=np.int64),
            identities=identities,
            cameras=cameras,
            features=centers[identities] + offsets[cameras] + noise,
        )

    train = draw_split(spec.samples_per_cell, spec.sigma_identity, 0)
    eval_noise = spec.sigma_identity * EVAL_NOISE_FACTOR
    query = draw_split(QUERY_PER_CELL, eval_noise, len(train))
    gallery = draw_split(GALLERY_PER_CELL, eval_noise, len(train) + len(query))
    return train, query, gallery


def save_dataset(dataset: EmbeddingDataset, path) -> None:
    """Write a split that passes `validate`, else name `path` and write nothing."""
    dataset.validate(f"{path}: ")
    with open(path, "w") as fh:
        fh.write(f"# format {FORMAT_NAME} v{FORMAT_VERSION}\n")
        fh.write(f"# dim {dataset.dim}\n")
        fh.write(f"# count {len(dataset)}\n")
        fh.write(f"# cameras {dataset.n_cameras}\n")
        for i in range(len(dataset)):
            identity = dataset.identities[i]
            id_text = "?" if identity == UNKNOWN_IDENTITY else str(int(identity))
            coords = " ".join(repr(float(v)) for v in dataset.features[i])
            fh.write(f"{int(dataset.sample_ids[i])} {id_text} "
                     f"{int(dataset.cameras[i])} {coords}\n")


def text_blocks(path):
    """Yield (number of the first line, lines) for each block of a UTF-8
    text file, its lines split where text-mode reading would end them. A
    block ends after a line end, so it splits no character and no line end;
    a file that is not UTF-8 fails naming the path and the byte's offset."""
    with open(path, "rb") as fh:
        buf, offset, lineno = bytearray(), 0, 1
        while True:
            chunk = fh.read(_BLOCK_BYTES)
            start = max(len(buf) - 1, 0)  # the carry holds no line end but a last "\r"
            buf += chunk
            # cut after the last line end, but not after a "\r" a "\n" may follow
            cut = (max(buf.rfind(b"\n", start), buf.rfind(b"\r", start, len(buf) - 1)) + 1
                   if chunk else len(buf))
            if not buf:
                return
            if not cut:
                continue
            try:
                text = buf[:cut].decode("utf-8")
            except UnicodeDecodeError as exc:
                raise SelfReidError(f"{path}: not UTF-8 text: byte {buf[exc.start]:#04x} at "
                                    f"offset {offset + exc.start} cannot be decoded") from None
            del buf[:cut]
            offset += cut
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines = text.split("\n")
            del text
            yield lineno, lines
            lineno += len(lines) - 1


def load_dataset(path) -> EmbeddingDataset:
    """Read and check a split file; a fault names the path and, for a fault
    on a line, the first line at fault.

    Each block's record lines are parsed in one C-reader call. Only a block
    that fails is walked line by line, by `_line_fault`, once the earlier
    blocks' ids are checked; see the module docstring.
    """
    header, ids, features = {}, [], []
    width = None
    blocks = text_blocks(path)
    for first, lines in blocks:
        records, table = [], None
        for line in lines:
            line = line.strip()
            if line.startswith("#"):
                if _header_fault(line, header):
                    break  # the block fails
            elif line:
                records.append(line)
        else:
            if not records:
                continue
            table = _read_table(records, width)
        if table is None:
            earlier = np.concatenate(ids)[:, 0] if ids else np.empty(0, np.int64)
            _require_unique(path, earlier)
            lineno, reason = _line_fault(first, lines, set(earlier.tolist()), width)
            for _ in blocks:  # the rest is only decoded: a UTF-8 fault anywhere comes first
                pass
            raise SelfReidError(f"{path}:{lineno}: {reason}")
        width = table["features"].shape[1]
        ids.append(table["ids"])
        features.append(table["features"])
        del table
    if not features:
        raise SelfReidError(f"{path}: no records")
    sample_ids, identities, cameras = np.concatenate(ids).T.copy()
    del ids  # views that, like `table`, would keep the blocks' tables
    features = np.concatenate(features)  # the tables go with the old list
    _require_unique(path, sample_ids)
    return _checked_dataset(path, header, sample_ids, identities, cameras, features)


def _header_fault(line: str, header: dict):
    """Read a stripped ``#`` line into `header`; the fault if it is a
    ``# format`` line for another format, else None."""
    parts = line[1:].split()
    if parts[:1] == ["format"] and parts[1:] != [FORMAT_NAME, f"v{FORMAT_VERSION}"]:
        return f"header {line!r} is not '# format {FORMAT_NAME} v{FORMAT_VERSION}'"
    if len(parts) >= 2:
        header[parts[0]] = parts[1:]


def _read_table(records, width):
    """The records as a table of three int64 ids, read by int(), and `width`
    features (the first record's if None), in one C-reader call; None if
    they do not parse so."""
    width = width or len(records[0].split()) - 3
    if width < 1:
        return None
    try:
        return np.loadtxt(records, comments=None, ndmin=1, dtype=[
            ("ids", np.int64, (3,)), ("features", np.float64, (width,))], converters={
            0: int, 1: lambda field: UNKNOWN_IDENTITY if field == "?" else int(field), 2: int})
    except ValueError:
        return None


def _line_fault(first, lines, seen, width):
    """(line number, reason) of the first line at fault in a block whose
    lines start at line `first`; `seen` holds the earlier blocks' sample ids
    and `width` their records' width, None if no record came before."""
    for lineno, line in enumerate(lines, start=first):
        line = line.strip()
        if line.startswith("#") and (reason := _header_fault(line, {})):
            return lineno, reason
        if line[:1] in ("", "#"):
            continue
        fields = line.split(None, 3)
        if len(fields) < 4:
            return lineno, "record needs id, identity, camera and features"
        try:
            values = (int(fields[0]), UNKNOWN_IDENTITY if fields[1] == "?" else int(fields[1]),
                      int(fields[2]))
        except ValueError as exc:
            return lineno, str(exc)
        for name, value in zip(("sample id", "identity", "camera"), values):
            if not -2**63 <= value < 2**63:
                return lineno, f"{name} {value} is out of range for int64"
        try:
            row = np.loadtxt([fields[3]], dtype=np.float64, comments=None, ndmin=2)
        except ValueError:
            for token in fields[3].split():  # the first that does not parse alone
                try:
                    np.loadtxt([token], dtype=np.float64, comments=None)
                except ValueError:
                    return lineno, f"could not convert string to float: {token!r}"
        width = width or row.shape[1]
        if row.shape[1] != width:
            return lineno, f"dimension {row.shape[1]} != {width} from earlier records"
        if values[0] in seen:
            return lineno, f"repeated sample id {values[0]}"
        seen.add(values[0])


def _require_unique(path, sample_ids):
    """Fail naming the first record whose id an earlier record has."""
    _, first = np.unique(sample_ids, return_index=True)
    if len(first) < len(sample_ids):
        repeated = np.ones(len(sample_ids), dtype=bool)
        repeated[first] = False
        row = np.argmax(repeated)
        raise SelfReidError(f"{path}:{_record_lines(path)[row]}: repeated sample id "
                            f"{sample_ids[row]}")


def _record_lines(path):
    """The number of each record's line, looked up for a fault the C reader
    cannot name."""
    return [lineno for first, lines in text_blocks(path)
            for lineno, line in enumerate(lines, start=first)
            if line.strip()[:1] not in ("", "#")]


def _checked_dataset(path, header, sample_ids, identities, cameras,
                     features) -> EmbeddingDataset:
    """The dataset of the records, once the header's dim, count and cameras
    match them, every feature is finite and `validate` passes."""
    declared = {}
    for key in ("dim", "count", "cameras"):
        if key in header:
            try:
                declared[key] = int(header[key][0])
            except ValueError:
                raise SelfReidError(f"{path}: header {key} {header[key][0]!r} is not "
                                    f"an integer") from None
    width = features.shape[1]
    if declared.get("dim", width) != width:
        raise SelfReidError(f"{path}: header dim {declared['dim']} != record dim {width}")
    if declared.get("count", len(features)) != len(features):
        raise SelfReidError(f"{path}: header count {declared['count']} != "
                            f"{len(features)} records")
    if not np.isfinite(features).all():
        require_finite(features, f"{path}:", _record_lines(path))
    dataset = EmbeddingDataset(sample_ids, identities, cameras, features)
    dataset.validate(f"{path}: ")
    if declared.get("cameras", dataset.n_cameras) != dataset.n_cameras:
        raise SelfReidError(f"{path}: header cameras {declared['cameras']} != "
                            f"{dataset.n_cameras} cameras in the records")
    return dataset
