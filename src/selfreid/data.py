"""Embedding datasets: synthetic generation and a text file format.

The synthetic generator mimics the structure of multi-camera identity
data: identity centers on the unit sphere, an additive per-camera style
offset shared across identities, and per-sample Gaussian noise. True
identity ids ride along for evaluation and the oracle-label mode only;
the trainer never reads them otherwise.

Files are line-oriented text with a header block, one record per line:
``sample_id identity|? camera v0 v1 ... v{d-1}``. Floats are written
with repr, so a save/load round trip is bit-exact.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigWarning, DuplicateId, EmptyDataset, ParseError, SelfReidError

FORMAT_NAME = "selfreid-embeddings"
FORMAT_VERSION = 1
UNKNOWN_IDENTITY = -1

# Fresh draws per (identity, camera) cell for the held-out splits.
QUERY_PER_CELL = 1
GALLERY_PER_CELL = 2


@dataclass
class SyntheticSpec:
    n_identities: int = 20
    n_cameras: int = 4
    samples_per_cell: int = 8  # training samples per (identity, camera)
    dim: int = 64
    dispersion: float = 1.0    # identity-center radius
    sigma_identity: float = 0.08  # per-coordinate sample noise
    sigma_camera: float = 0.8     # norm of each camera's style offset
    eval_noise_factor: float = 1.5  # query/gallery noise vs training noise
    seed: int = 0

    def validate(self) -> None:
        if min(self.n_identities, self.n_cameras, self.samples_per_cell, self.dim) < 1:
            raise SelfReidError("all synthetic counts must be >= 1")
        if self.sigma_identity < 0 or self.sigma_camera < 0 or self.dispersion < 0:
            raise SelfReidError("scales must be >= 0")
        if self.eval_noise_factor < 0:
            raise SelfReidError("eval_noise_factor must be >= 0")


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

    def validate(self) -> None:
        n = len(self)
        if n == 0:
            raise EmptyDataset("dataset holds no records")
        if len(np.unique(self.sample_ids)) != n:
            raise DuplicateId("sample ids are not unique")
        cams = np.unique(self.cameras)
        if cams[0] != 0 or cams[-1] != len(cams) - 1:
            raise SelfReidError("camera ids must be dense 0..C-1")


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    raw = rng.normal(size=(n, d))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def generate_synthetic(spec: SyntheticSpec):
    """Build disjoint train/query/gallery splits from one seeded draw.

    Every sample is center + camera offset + noise. Query and gallery
    use fresh (and by default noisier) draws around the same centers
    and offsets, so the task is cross-camera retrieval of the
    training-time identities under test-time distribution shift.
    """
    spec.validate()
    if spec.dim < 8:
        warnings.warn(f"dim={spec.dim} is too small to separate identities reliably",
                      ConfigWarning, stacklevel=2)
    rng = np.random.default_rng([spec.seed, 0x5EED])
    centers = spec.dispersion * _unit_rows(rng, spec.n_identities, spec.dim)
    # camera style: a fixed offset direction per camera, norm sigma_camera
    offsets = spec.sigma_camera * _unit_rows(rng, spec.n_cameras, spec.dim)

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
    eval_noise = spec.sigma_identity * spec.eval_noise_factor
    query = draw_split(QUERY_PER_CELL, eval_noise, len(train))
    gallery = draw_split(GALLERY_PER_CELL, eval_noise, len(train) + len(query))
    return train, query, gallery


def save_dataset(dataset: EmbeddingDataset, path) -> None:
    dataset.validate()
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


def load_dataset(path) -> EmbeddingDataset:
    header = {}
    ids, pids, cams, rows = [], [], [], []
    seen = set()
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if len(parts) >= 2:
                    header[parts[0]] = parts[1:]
                continue
            fields = line.split()
            if len(fields) < 4:
                raise ParseError(f"{path}:{lineno}: record needs id, identity, "
                                 f"camera and features")
            try:
                sample_id = int(fields[0])
                identity = UNKNOWN_IDENTITY if fields[1] == "?" else int(fields[1])
                camera = int(fields[2])
                vector = [float(v) for v in fields[3:]]
            except ValueError as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            if rows and len(vector) != len(rows[0]):
                raise ParseError(f"{path}:{lineno}: dimension {len(vector)} != "
                                 f"{len(rows[0])} from earlier records")
            if sample_id in seen:
                raise DuplicateId(f"{path}:{lineno}: repeated sample id {sample_id}")
            seen.add(sample_id)
            ids.append(sample_id)
            pids.append(identity)
            cams.append(camera)
            rows.append(vector)
    if not rows:
        raise EmptyDataset(f"{path}: no records")
    declared = {}
    for key in ("dim", "count"):
        if key in header:
            try:
                declared[key] = int(header[key][0])
            except ValueError:
                raise ParseError(f"{path}: header {key} {header[key][0]!r} is not "
                                 f"an integer") from None
    if declared.get("dim", len(rows[0])) != len(rows[0]):
        raise ParseError(f"{path}: header dim {declared['dim']} != "
                         f"record dim {len(rows[0])}")
    if declared.get("count", len(rows)) != len(rows):
        raise ParseError(f"{path}: header count {declared['count']} != "
                         f"{len(rows)} records")
    dataset = EmbeddingDataset(
        sample_ids=np.array(ids, dtype=np.int64),
        identities=np.array(pids, dtype=np.int64),
        cameras=np.array(cams, dtype=np.int64),
        features=np.array(rows, dtype=np.float64),
    )
    dataset.validate()
    return dataset
