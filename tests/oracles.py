"""Independent reference implementations used to check the library.

Everything here is deliberately slow and literal: python sets, dicts
and per-element loops, no shared code with the package internals. The
exceptions are `dense_jaccard`, dense array code that is fast enough for
a few hundred samples; `scipy_weight_vectors`, the re-ranking weight
vectors built with scipy.sparse products, which the package's numpy-only
ones must match bit for bit; and `adam_oracle` and `ema_oracle`, the
updates applied one weight array at a time, which the flat-buffer
updates must match bit for bit. `traced_peak` is no oracle: it measures
every memory bound in the tests the same way. Nor is `train_rejects`,
which asserts that `train` refuses a setting before its first epoch.
Nor is `pairs_from_dense`:
it hands the upper triangle of the dense distance fixtures to `dbscan`
as pairs. `pairs_well_formed` is the format rule `dbscan` no longer
checks, which every `jaccard_distance_matrix` result must pass. And
`load_dataset_oracle` is the split-file loader on the whole file at
once, decoded, split and parsed in one piece, which the block reader
must match in every array and message. `perturb_oracle` is the
augmentation of one batch from one seed, which each step's rows of a
many-step `perturb` call must match bit for bit. `pk_batch_oracle` is the
batch draw of one step from one seed, which each step's row of a many-step
`sample_pk_batch` call must match. And `run_epoch_oracle` runs an epoch's
steps one at a time, each on those two one-seed draws and the package's
own step functions, which the trainer's chunked plan must match bit for
bit. `settings_oracle` holds the settings classes' hand-written range
rules, from before each field declared its allowed values, which the
declarations must match value for value.
"""

import math
import re
import tracemalloc
from collections import defaultdict

import numpy as np
import pytest
from scipy.sparse import csc_array, csr_array
from scipy.spatial.distance import cdist

from selfreid import rerank, trainer
from selfreid.data import (
    FORMAT_NAME,
    FORMAT_VERSION,
    UNKNOWN_IDENTITY,
    EmbeddingDataset,
    SyntheticSpec,
    generate_synthetic,
)
from selfreid.encoder import backward, effective_lr, ema_update, forward, optimizer_step
from selfreid.errors import SelfReidError
from selfreid.losses import LossWeights, Temperatures
from selfreid.proxies import build_proxies
from selfreid.sampling import BatchSpec, PerturbationConfig


def traced_peak(fn, *args):
    """(peak, result) of fn(*args): the most memory tracemalloc saw
    allocated while it ran, the result included, and what it returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def train_rejects(monkeypatch, config, message: str) -> None:
    """`train(config, ...)` fails with exactly `message` and runs no epoch."""
    monkeypatch.setattr(trainer, "run_epoch", lambda *args: pytest.fail("an epoch ran"))
    dataset = generate_synthetic(SyntheticSpec(n_identities=4))[0]
    with pytest.raises(SelfReidError, match=f"^{re.escape(message)}$"):
        trainer.train(config, dataset)


def max_rel_err(actual: np.ndarray, reference: np.ndarray) -> float:
    """Max absolute difference, relative to the reference's scale."""
    actual = np.asarray(actual, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    scale = max(np.max(np.abs(reference)), 1e-12)
    return float(np.max(np.abs(actual - reference)) / scale)


def finite_difference(fn, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat_x = x.ravel()
    flat_g = grad.ravel()
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + step
        f_plus = fn(x)
        flat_x[i] = orig - step
        f_minus = fn(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def scalar_cosine(a, b) -> float:
    return sum(float(x) * float(y) for x, y in zip(a, b))


def softmax_row(sims, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax of one similarity vector, element by element."""
    logits = [float(s) / temperature for s in sims]
    top = max(logits)
    e = [math.exp(v - top) for v in logits]
    total = sum(e)
    return np.array([v / total for v in e])


def cross_camera_oracle(feats, cameras, labels, memory, tau: float, n_neg: int):
    """Per-anchor cross-camera proxy loss, one softmax per positive.

    Positives of an anchor are its cluster's camera proxies under other
    cameras, in table order. Negatives are the n_neg proxies of other
    clusters, sorted by (-similarity, row). Returns the batch mean of the
    anchors' positive-averaged losses and its gradient.
    """
    vectors = memory.camera_vectors
    rows = range(len(memory.camera_ids))
    n = len(labels)
    value = 0.0
    grads = np.zeros((n, vectors.shape[1]))
    for i in range(n):
        feat = feats[i]
        positives = [r for r in rows if memory.camera_cluster_ids[r] == labels[i]
                     and memory.camera_ids[r] != cameras[i]]
        if not positives:
            continue
        ranked = sorted((-scalar_cosine(vectors[r], feat), r) for r in rows
                        if memory.camera_cluster_ids[r] != labels[i])
        negatives = [r for _, r in ranked[:n_neg]]
        anchor_value = 0.0
        anchor_grad = np.zeros(vectors.shape[1])
        for p in positives:
            members = [p] + negatives
            probs = softmax_row([scalar_cosine(vectors[r], feat) for r in members], tau)
            anchor_value -= math.log(probs[0])
            for prob, r in zip(probs, members):
                anchor_grad += prob * vectors[r] / tau
            anchor_grad -= vectors[p] / tau
        value += anchor_value / len(positives)
        grads[i] = anchor_grad / len(positives)
    return value / n, grads / n


def proxies_oracle(bank, labels, cameras, cluster_count: int) -> dict:
    """Proxy tables by one label scan per cluster and per (cluster, camera)
    cell: normalized member means, cells by cluster, then camera. Returns
    the ProxyMemory fields as a dict of arrays."""
    bank = np.asarray(bank, dtype=np.float64)
    tables = defaultdict(list)
    for a in range(cluster_count):
        members = np.flatnonzero(labels == a)
        mean = bank[members].mean(axis=0)
        tables["cluster_vectors"].append(mean / np.linalg.norm(mean))
        for b in sorted(set(cameras[members].tolist())):
            cell = [i for i in members if cameras[i] == b]
            mean = bank[cell].mean(axis=0)
            tables["camera_cluster_ids"].append(a)
            tables["camera_ids"].append(b)
            tables["camera_vectors"].append(mean / np.linalg.norm(mean))
    return {key: np.array(values) for key, values in tables.items()}


def adam_oracle(m, v, params, grads, step: int, lr: float, weight_decay: float,
                beta1: float, beta2: float, eps: float) -> None:
    """Adaptive-moment update, one weight array at a time, in place.

    m, v, params and grads are EncoderParams-like objects; `step` is the
    step number after this update. Same operations in the same order as
    `optimizer_step`, on each field separately.
    """
    for f in ("w1", "b1", "w2", "b2"):
        g, mf, vf, p = (getattr(x, f) for x in (grads, m, v, params))
        mf *= beta1
        mf += (1.0 - beta1) * g
        vf *= beta2
        vf += (1.0 - beta2) * g * g
        m_hat = mf / (1.0 - beta1 ** step)
        v_hat = vf / (1.0 - beta2 ** step)
        p -= lr * (m_hat / (np.sqrt(v_hat) + eps) + weight_decay * p)


def ema_oracle(momentum, online, alpha: float) -> None:
    """momentum <- alpha * momentum + (1 - alpha) * online, field by field."""
    for f in ("w1", "b1", "w2", "b2"):
        mom = getattr(momentum, f)
        mom *= alpha
        mom += (1.0 - alpha) * getattr(online, f)


def scalar_forward(params, batch: np.ndarray) -> np.ndarray:
    """Per-neuron scalar re-implementation of the encoder forward pass."""
    n = batch.shape[0]
    hidden = params.w1.shape[1]
    d_out = params.w2.shape[1]
    out = np.zeros((n, d_out))
    for r in range(n):
        a1 = []
        for j in range(hidden):
            z = float(params.b1[j])
            for i in range(batch.shape[1]):
                z += float(batch[r, i]) * float(params.w1[i, j])
            a1.append(math.tanh(z))
        z2 = []
        for k in range(d_out):
            z = float(params.b2[k])
            for j in range(hidden):
                z += a1[j] * float(params.w2[j, k])
            z2.append(z)
        norm = math.sqrt(sum(v * v for v in z2))
        out[r] = [v / norm for v in z2]
    return out


def jaccard_oracle(features: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """Set-algebra k-reciprocal Jaccard distance, dicts and sets only."""
    n = features.shape[0]
    dist = [[0.0 if i == j else 1.0 - scalar_cosine(features[i], features[j])
             for j in range(n)] for i in range(n)]

    def knn(p, k):
        ranked = sorted(range(n), key=lambda q: (dist[p][q], q))
        return ranked[:k]

    def reciprocal(p, k):
        return {q for q in knn(p, k) if p in knn(q, k)}

    half = max(k1 // 2, 1)
    expanded = []
    for p in range(n):
        base = reciprocal(p, k1)
        grown = set(base)
        for q in sorted(base):
            candidate = reciprocal(q, half)
            if 3 * len(candidate & base) >= 2 * len(candidate):
                grown |= candidate
        expanded.append(grown)

    weights = [{q: math.exp(-dist[p][q]) for q in expanded[p]} for p in range(n)]

    softened = []
    for p in range(n):
        acc = defaultdict(float)
        for q in knn(p, k2):
            for key, w in weights[q].items():
                acc[key] += w
        softened.append({key: w / k2 for key, w in acc.items()})

    jaccard = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            keys = set(softened[i]) | set(softened[j])
            min_sum = sum(min(softened[i].get(q, 0.0), softened[j].get(q, 0.0))
                          for q in keys)
            max_sum = sum(max(softened[i].get(q, 0.0), softened[j].get(q, 0.0))
                          for q in keys)
            jaccard[i, j] = 1.0 - min_sum / max_sum
    return jaccard


def _reciprocal_membership(order: np.ndarray, k: int) -> np.ndarray:
    """Boolean matrix R[p, q] = q in kNN(p, k) and p in kNN(q, k).

    Neighbor lists include the point itself: its self-distance is zero,
    so it always ranks first.
    """
    n = order.shape[0]
    nbr = np.zeros((n, n), dtype=bool)
    nbr[np.arange(n)[:, None], order[:, :k]] = True
    return nbr & nbr.T


def dense_jaccard(features: np.ndarray, k1: int, k2: int) -> np.ndarray:
    """Dense k-reciprocal Jaccard distance matrix in O(n^3): n x n indicator
    products, an n x k2 x n expansion and `cdist` over the weight rows. It
    checks the sparse `jaccard_distance_matrix` on banks too large for
    `jaccard_oracle`.

    Steps: (1) original distance = 1 - cosine; (2) reciprocal sets at k1;
    (3) expansion by half-size reciprocal sets of candidates whose set
    overlaps the anchor's by at least two thirds; (4) weight vectors
    exp(-distance) on the expanded set; (5) local query expansion over
    each sample's k2 nearest neighbors; (6) pairwise Jaccard distance of
    the weight vectors.
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if n < 2:
        raise SelfReidError(f"need at least 2 samples, got {n}")
    if k1 >= n or k2 >= n:
        raise SelfReidError(f"k1={k1}, k2={k2} must be < n={n}")

    dist = 1.0 - features @ features.T
    np.fill_diagonal(dist, 0.0)
    order = np.argsort(dist, axis=1, kind="stable")

    recip_full = _reciprocal_membership(order, k1)
    recip_half = _reciprocal_membership(order, max(k1 // 2, 1))

    # Expanded sets: adopt a candidate's half-size reciprocal set when it
    # overlaps the anchor's full set by >= 2/3. Counts are small integers,
    # exact in float64, so the comparison is exact.
    full_f = recip_full.astype(np.float64)
    half_f = recip_half.astype(np.float64)
    half_sizes = recip_half.sum(axis=1)
    overlap = full_f @ half_f.T  # overlap[p, q] = |full(p) & half(q)|
    adopt = recip_full & (3.0 * overlap >= 2.0 * half_sizes[None, :])
    expanded = recip_full | ((adopt.astype(np.float64) @ half_f) > 0.0)

    weights = np.where(expanded, np.exp(-dist), 0.0)

    # Local query expansion: average each weight vector over the sample's
    # k2 nearest neighbors (self included).
    weights = weights[order[:, :k2]].mean(axis=1)

    # Jaccard via sum-min/sum-max; min(a,b) = (a + b - |a - b|) / 2.
    row_sums = weights.sum(axis=1)
    l1 = cdist(weights, weights, metric="cityblock")
    total = row_sums[:, None] + row_sums[None, :]
    min_sum = 0.5 * (total - l1)
    max_sum = 0.5 * (total + l1)
    jaccard = 1.0 - min_sum / max_sum
    np.fill_diagonal(jaccard, 0.0)
    return np.clip(jaccard, 0.0, 1.0)


def _indicator(columns: np.ndarray) -> csr_array:
    """n x n 0/1 matrix with ones at (p, columns[p, i]), stored in that order."""
    n, k = columns.shape
    indptr = np.arange(0, columns.size + 1, k)
    return csr_array((np.ones(columns.size), columns.ravel(), indptr), shape=(n, n))


def scipy_weight_vectors(features: np.ndarray, k1: int, k2: int) -> csc_array:
    """Steps 1-5 of `jaccard_distance_matrix` with scipy.sparse products:
    row p of the result is sample p's weight vector, stored by column with
    each column's rows ascending. The package's numpy-only weight vectors
    must equal it byte for byte. Steps 1 and 4 share the package's
    neighbor lists and distance blocks, so that both read the same
    distances; the set algebra and the sums are scipy's."""
    n = features.shape[0]
    blocks = rerank._row_blocks(n)
    distances = rerank._distances
    order = np.concatenate([rerank._nearest_neighbors(distances(features, start, stop), k1)
                            for start, stop in blocks])

    full = _indicator(order)
    recip_full = full.multiply(full.T)
    half = _indicator(order[:, :max(k1 // 2, 1)])
    recip_half = half.multiply(half.T)

    half_sizes = np.diff(recip_half.indptr)
    overlap = (recip_full @ recip_half.T).multiply(recip_full).tocoo()
    adopted = 3.0 * overlap.data >= 2.0 * half_sizes[overlap.col]
    adopt = csr_array((np.ones(int(adopted.sum())),
                       (overlap.row[adopted], overlap.col[adopted])), shape=(n, n))
    expanded = recip_full + adopt @ recip_half
    expanded.sum_duplicates()  # one weight per (row, column)

    values = np.empty(expanded.nnz)
    for start, stop in blocks:
        span = slice(expanded.indptr[start], expanded.indptr[stop])
        rows = np.repeat(np.arange(stop - start), np.diff(expanded.indptr[start:stop + 1]))
        values[span] = np.exp(-distances(features, start, stop)[rows, expanded.indices[span]])
    weights = csr_array((values, expanded.indices, expanded.indptr), shape=(n, n))

    # Local query expansion, summed in neighbor order by scipy's product.
    weights = (_indicator(order[:, :k2]) @ weights).tocsc()
    weights.sort_indices()
    weights.data /= k2
    return weights


def pairs_from_dense(dist: np.ndarray, max_distance: float) -> rerank.JaccardPairs:
    """The JaccardPairs of a dense distance matrix: its entries at or below
    max_distance above the diagonal, by row and then column. The lower
    triangle and the diagonal are not read."""
    dist = np.asarray(dist, dtype=np.float64)
    within = np.triu(dist <= max_distance, k=1)
    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(within, axis=1))))
    return rerank.JaccardPairs(indptr, np.nonzero(within)[1].astype(np.int32), dist[within],
                               max_distance)


def pairs_well_formed(pairs) -> bool:
    """Whether `pairs` holds what `dbscan` trusts `jaccard_distance_matrix`
    to return: JaccardPairs of 1-D numpy arrays, integer indptr rising from
    0 to the pair count, one integer column and one distance per pair, and
    in each row p its columns q with p < q < n, ascending and each once,
    with distances in [0, max_distance]. Row by row, in python lists."""
    if not isinstance(pairs, rerank.JaccardPairs):
        return False
    indptr, indices, data = pairs[:3]
    if not (all(isinstance(a, np.ndarray) and a.ndim == 1 for a in (indptr, indices, data))
            and indptr.dtype.kind in "iu" and indices.dtype.kind in "iu"
            and len(indices) == len(data)):
        return False
    bounds, n = indptr.tolist(), len(indptr) - 1
    if not bounds or bounds[0] != 0 or bounds[-1] != len(indices) or bounds != sorted(bounds):
        return False
    for p in range(n):
        cols = indices[bounds[p]:bounds[p + 1]].tolist()
        dists = data[bounds[p]:bounds[p + 1]].tolist()
        if (cols != sorted(set(cols)) or not all(p < q < n for q in cols)
                or not all(0.0 <= x <= pairs.max_distance for x in dists)):
            return False
    return True


def dbscan_oracle(dist: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    """Brute-force reachability DBSCAN over a precomputed matrix.

    Clusters are connected components of the core-point graph, numbered
    by ascending minimal core index; border points take the earliest
    eligible cluster, matching the index-order visitation rule.
    """
    n = dist.shape[0]
    within = dist <= eps
    cores = [i for i in range(n) if int(within[i].sum()) >= min_samples]
    core_set = set(cores)

    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in cores:
        for b in cores:
            if within[a, b]:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)

    components = defaultdict(list)
    for c in cores:
        components[find(c)].append(c)
    ordered = sorted(components.values(), key=min)

    labels = np.full(n, -1, dtype=np.int64)
    for cid, comp in enumerate(ordered):
        for c in comp:
            labels[c] = cid
    for p in range(n):
        if p in core_set:
            continue
        eligible = [labels[c] for c in cores if within[p, c]]
        if eligible:
            labels[p] = min(eligible)
    return labels


def partitions_equal(labels_a, labels_b) -> bool:
    """Same grouping, ignoring the numbering; outliers must coincide."""
    labels_a = np.asarray(labels_a)
    labels_b = np.asarray(labels_b)
    if labels_a.shape != labels_b.shape:
        return False
    if not np.array_equal(labels_a == -1, labels_b == -1):
        return False
    mapping = {}
    for a, b in zip(labels_a, labels_b):
        if a == -1:
            continue
        if a in mapping and mapping[a] != b:
            return False
        mapping[a] = b
    return len(set(mapping.values())) == len(mapping)


def cross_camera_matches_oracle(queries, gallery) -> np.ndarray:
    """Per query, whether some gallery row shares its identity but not its
    camera, from dense query x gallery masks."""
    same_identity = queries.identities[:, None] == gallery.identities[None, :]
    return np.any(same_identity & (queries.cameras[:, None] != gallery.cameras[None, :]), axis=1)


def evaluation_oracle(q_emb, q_ids, q_cams, g_emb, g_ids, g_cams, ranks=(1, 5, 10)):
    """Exhaustive per-query retrieval metrics."""
    aps, hits = [], []
    excluded = 0
    for qi in range(len(q_ids)):
        scored = []
        for gi in range(len(g_ids)):
            if g_ids[gi] == q_ids[qi] and g_cams[gi] == q_cams[qi]:
                continue
            sim = scalar_cosine(q_emb[qi], g_emb[gi])
            scored.append((-sim, gi))
        scored.sort()
        relevance = [g_ids[gi] == q_ids[qi] for _, gi in scored]
        total = sum(relevance)
        if total == 0:
            excluded += 1
            continue
        hit_count = 0
        ap = 0.0
        for position, rel in enumerate(relevance, start=1):
            if rel:
                hit_count += 1
                ap += hit_count / position
        aps.append(ap / total)
        first = relevance.index(True)
        hits.append([first < k for k in ranks])
    mean_ap = sum(aps) / len(aps)
    cmc = [sum(h[i] for h in hits) / len(hits) for i in range(len(ranks))]
    return mean_ap, cmc, excluded


def write_version_1_checkpoint(path, d_in=6, hidden=5, d_out=4):
    """A checkpoint in the version-1 layout: the four weight tables plus
    `activation` and the 8-value `scalars` array (alpha, step, base_lr,
    warmup_epochs, weight_decay, beta1, beta2, eps)."""
    shapes = {"w1": (d_in, hidden), "b1": (hidden,), "w2": (hidden, d_out), "b2": (d_out,)}
    tables = {f"{table}_{f}": np.zeros(shape)
              for table in ("online", "momentum", "opt_m", "opt_v")
              for f, shape in shapes.items()}
    np.savez(path, version=np.array(1), activation=np.array("tanh"),
             scalars=np.array([0.999, 0, 0.00035, 10, 0.0005, 0.9, 0.999, 1e-8]),
             **tables)
    return path


def _oracle_floats(texts) -> np.ndarray:
    return np.loadtxt(texts, dtype=np.float64, comments=None, ndmin=2)


def _oracle_is_float(token: str) -> bool:
    try:
        _oracle_floats([token])
    except ValueError:
        return False
    return True


def _oracle_first_faulty_record(texts):
    width = None
    for index, text in enumerate(texts):
        try:
            features = _oracle_floats([text])
        except ValueError:
            token = next(token for token in text.split() if not _oracle_is_float(token))
            return index, f"could not convert string to float: {token!r}"
        width = width or features.shape[1]
        if features.shape[1] != width:
            return index, f"dimension {features.shape[1]} != {width} from earlier records"


def load_dataset_oracle(path) -> EmbeddingDataset:
    """`load_dataset` on the whole file at once: decode it, split it into
    lines, run the line pass until the first line at fault, parse every
    feature text kept in one call, and only if that fails scan the records
    one by one for the first that does not parse or changes width."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SelfReidError(f"{path}: not UTF-8 text: byte {raw[exc.start]:#04x} at "
                            f"offset {exc.start} cannot be decoded") from None
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    header = {}
    ids, pids, cams, texts, linenos = [], [], [], [], []
    seen = set()
    stop = None
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["format"] and parts[1:] != [FORMAT_NAME, f"v{FORMAT_VERSION}"]:
                stop = lineno, f"header {line!r} is not '# format {FORMAT_NAME} v{FORMAT_VERSION}'"
                break
            if len(parts) >= 2:
                header[parts[0]] = parts[1:]
            continue
        fields = line.split(None, 3)
        if len(fields) < 4:
            stop = lineno, "record needs id, identity, camera and features"
            break
        try:
            sample_id = int(fields[0])
            identity = UNKNOWN_IDENTITY if fields[1] == "?" else int(fields[1])
            camera = int(fields[2])
        except ValueError as exc:
            stop = lineno, str(exc)
            break
        out_of_range = [(name, value) for name, value in (("sample id", sample_id),
                                                          ("identity", identity),
                                                          ("camera", camera))
                        if not -2**63 <= value < 2**63]
        if out_of_range:
            stop = lineno, "{} {} is out of range for int64".format(*out_of_range[0])
            break
        ids.append(sample_id)
        pids.append(identity)
        cams.append(camera)
        texts.append(fields[3])
        linenos.append(lineno)
        if sample_id in seen:
            stop = lineno, f"repeated sample id {sample_id}"
            break
        seen.add(sample_id)
    try:
        features = _oracle_floats(texts) if texts else None
    except ValueError:
        index, reason = _oracle_first_faulty_record(texts)
        stop = linenos[index], reason
    if stop:
        raise SelfReidError(f"{path}:{stop[0]}: {stop[1]}")
    if not texts:
        raise SelfReidError(f"{path}: no records")
    declared = {}
    for key in ("dim", "count", "cameras"):
        if key in header:
            try:
                declared[key] = int(header[key][0])
            except ValueError:
                raise SelfReidError(f"{path}: header {key} {header[key][0]!r} is not "
                                    f"an integer") from None
    dim = features.shape[1]
    if declared.get("dim", dim) != dim:
        raise SelfReidError(f"{path}: header dim {declared['dim']} != record dim {dim}")
    if declared.get("count", len(texts)) != len(texts):
        raise SelfReidError(f"{path}: header count {declared['count']} != {len(texts)} records")
    for row, values in enumerate(features):
        for col, value in enumerate(values):
            if not math.isfinite(value):
                raise SelfReidError(f"{path}:{linenos[row]}: feature {col} is {value}, "
                                    f"not a finite number")
    dataset = EmbeddingDataset(np.array(ids, dtype=np.int64), np.array(pids, dtype=np.int64),
                               np.array(cams, dtype=np.int64), features)
    dataset.validate(f"{path}: ")
    cameras = len(set(cams))
    if declared.get("cameras", cameras) != cameras:
        raise SelfReidError(f"{path}: header cameras {declared['cameras']} != {cameras} "
                            f"cameras in the records")
    return dataset


def perturb_oracle(features, config, rng_seed, cameras, camera_offsets):
    """`perturb` of one batch from one seed, as it was before it took one seed
    per step: the reference each step's rows of a many-step call must equal."""
    config.validate()
    features = np.asarray(features, dtype=np.float64)
    out = features.copy()
    n, d = out.shape
    rng = np.random.default_rng(rng_seed)
    if config.noise_sigma > 0:
        out += rng.normal(0.0, config.noise_sigma, size=(n, d))
    n_drop = int(round(config.dropout * d))
    if n_drop > 0:
        # each row drops the columns of its n_drop smallest uniform keys
        keys = rng.random((n, d))
        dropped = np.argpartition(keys, n_drop - 1, axis=1)[:, :n_drop]
        np.put_along_axis(out, dropped, 0.0, axis=1)
    n_cams = len(camera_offsets)
    if config.restyle_prob > 0 and n_cams > 1:
        restyle = rng.random(n) < config.restyle_prob
        # shift each selected row to a uniformly drawn other camera
        targets = rng.integers(0, n_cams - 1, size=n)
        rows = np.flatnonzero(restyle)
        own = np.asarray(cameras, dtype=np.int64)[rows]
        other = targets[rows] + (targets[rows] >= own)
        out[rows] += camera_offsets[other] - camera_offsets[own]
    return out


def pk_batch_oracle(assignment, spec, rng_seed):
    """`sample_pk_batch` of one step from one seed, as it was before it took
    one seed per step: (indices, labels), each of n_identities * n_instances
    entries."""
    spec.validate()
    if assignment.cluster_count < spec.n_identities:
        raise SelfReidError(
            f"{assignment.cluster_count} clusters < {spec.n_identities} identities/batch")
    rng = np.random.default_rng(rng_seed)
    chosen = rng.choice(assignment.cluster_count, size=spec.n_identities, replace=False)
    members = [assignment.members_of(int(label)) for label in chosen]
    indices = np.concatenate([
        m[rng.choice(m.size, size=spec.n_instances, replace=m.size < spec.n_instances)]
        for m in members])
    return indices, np.repeat(chosen, spec.n_instances)


def run_epoch_oracle(state) -> None:
    """Epoch len(state.reports) of a `labels_mode = oracle` run, one step at a
    time: per step a one-seed `pk_batch_oracle`, a gather, a one-seed
    `perturb_oracle`, the perturbed rows stacked on the clean ones, two
    forwards, `batch_loss`, backward, Adam and EMA. Appends the epoch's
    report, with wall_time 0.0 and no evaluation."""
    cfg, dataset, epoch = state.config, state.dataset, len(state.reports)
    bank = trainer.extract_bank(state.pair, dataset.features)
    _, labels = np.unique(dataset.identities, return_inverse=True)
    assignment = rerank.ClusterAssignment(labels.astype(np.int64), int(labels.max()) + 1)
    steps = []
    memory = build_proxies(bank, assignment, dataset.cameras)
    for iteration in range(cfg.iterations):
        indices, batch_labels = pk_batch_oracle(
            assignment, cfg.batch, [cfg.seed, epoch, iteration, trainer._SEED_BATCH])
        raw, cameras = dataset.features[indices], dataset.cameras[indices]
        perturbed = perturb_oracle(raw, cfg.perturbation,
                                   [cfg.seed, epoch, iteration, trainer._SEED_PERTURB],
                                   cameras, state.camera_offsets)
        online = forward(state.pair.online, perturbed)
        momentum = forward(state.pair.momentum, np.concatenate((perturbed, raw))).out
        breakdown = trainer.batch_loss(cfg, memory, batch_labels, cameras, online.out,
                                       momentum[:len(raw)], momentum[len(raw):])
        grads = backward(state.pair.online, online, breakdown.grads)
        optimizer_step(state.opt, state.pair.online, grads,
                       effective_lr(cfg.base_lr, cfg.warmup_epochs, epoch),
                       cfg.weight_decay)
        ema_update(state.pair, cfg.alpha)
        steps.append(breakdown)

    def mean(term):
        total = 0.0
        for step in steps:
            total += getattr(step, term)
        return total / len(steps) if steps else 0.0

    state.reports.append(trainer.EpochReport(
        epoch=epoch, cluster_count=assignment.cluster_count,
        outlier_count=assignment.outlier_count, mean_agnostic=mean("agnostic"),
        mean_cross=mean("cross"), mean_hard=mean("hard"), mean_soft=mean("soft"),
        mean_total=mean("total"), mean_kl=mean("soft"), wall_time=0.0))


# --- settings: the hand-written range rules -----------------------------------
# Each body is the validate() its class had, verbatim but for the group calls
# and the rules of the settings since removed.

_MEMORY_MODES = ("aware", "agnostic")


def _train_config_rules(self) -> None:
    if self.epochs < 1 or self.iterations < 0:
        raise SelfReidError("need epochs >= 1 and iterations >= 0")
    _batch_spec_rules(self.batch)
    _temperatures_rules(self.temperatures)
    _loss_weights_rules(self.weights)
    _cluster_config_rules(self.cluster)
    _perturbation_config_rules(self.perturbation)
    if self.memory_mode not in _MEMORY_MODES:
        raise SelfReidError(f"unknown memory_mode {self.memory_mode!r}")
    if self.n_neg < 1:
        raise SelfReidError(f"need n_neg >= 1, got {self.n_neg}")
    if self.out_dim < 1:
        raise SelfReidError(f"need out_dim >= 1, got {self.out_dim}")
    if not 0.0 <= self.alpha <= 1.0:
        raise SelfReidError(f"need 0 <= alpha <= 1, got {self.alpha}")
    for name in ("base_lr", "weight_decay"):
        if not (0 <= getattr(self, name) < np.inf):
            raise SelfReidError(f"need {name} >= 0 and finite, got {getattr(self, name)}")
    for name in ("warmup_epochs", "checkpoint_every", "eval_every", "seed"):
        if not (getattr(self, name) >= 0):
            raise SelfReidError(f"need {name} >= 0, got {getattr(self, name)}")
    if self.labels_mode not in ("pseudo", "oracle"):
        raise SelfReidError(f"unknown labels_mode {self.labels_mode!r}")


def _batch_spec_rules(self) -> None:
    if self.n_identities < 2 or self.n_instances < 2:
        raise SelfReidError(
            f"need n_identities >= 2 and n_instances >= 2, got "
            f"({self.n_identities}, {self.n_instances})")


def _temperatures_rules(self) -> None:
    for name in ("agnostic", "cross", "hard", "soft"):
        value = getattr(self, name)
        if not (0 < value < np.inf):
            raise SelfReidError(f"temperature tau_{name} must be finite and > 0, got {value}")


def _loss_weights_rules(self) -> None:
    for name in ("hard", "soft"):
        value = getattr(self, name)
        if not (0 <= value < np.inf):
            raise SelfReidError(f"loss weight lambda_{name} must be finite and >= 0, "
                                f"got {value}")


def _cluster_config_rules(self) -> None:
    if not (self.k1 >= self.k2 >= 1):
        raise SelfReidError(f"need k1 >= k2 >= 1, got k1={self.k1} k2={self.k2}")
    if not (0.0 < self.eps < 1.0):
        raise SelfReidError(f"need 0 < eps < 1, got {self.eps}")
    if self.min_samples < 1:
        raise SelfReidError(f"need min_samples >= 1, got {self.min_samples}")


def _perturbation_config_rules(self) -> None:
    if not (0 <= self.noise_sigma < np.inf):
        raise SelfReidError(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
    if not (0.0 <= self.dropout < 1.0):
        raise SelfReidError(f"dropout must be in [0, 1), got {self.dropout}")
    if not (0.0 <= self.restyle_prob <= 1.0):
        raise SelfReidError(f"restyle_prob must be in [0, 1], got {self.restyle_prob}")


def _synthetic_spec_rules(self) -> None:
    if min(self.n_identities, self.n_cameras, self.samples_per_cell, self.dim) < 1:
        raise SelfReidError("all synthetic counts must be >= 1")
    for name in ("dispersion", "sigma_identity", "sigma_camera"):
        value = getattr(self, name)
        if not (value >= 0 and np.isfinite(value)):
            raise SelfReidError(f"{name} must be finite and >= 0, got {value}")
    if self.seed < 0:
        raise SelfReidError(f"seed must be >= 0, got {self.seed}")


_SETTINGS_RULES = {
    trainer.TrainConfig: _train_config_rules, BatchSpec: _batch_spec_rules,
    Temperatures: _temperatures_rules, LossWeights: _loss_weights_rules,
    rerank.ClusterConfig: _cluster_config_rules,
    PerturbationConfig: _perturbation_config_rules, SyntheticSpec: _synthetic_spec_rules,
}


def settings_oracle(settings) -> bool:
    """Whether the hand-written rules of the settings' class reject it."""
    try:
        _SETTINGS_RULES[type(settings)](settings)
    except SelfReidError:
        return True
    return False
