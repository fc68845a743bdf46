"""Independent reference implementations used to check the library.

Everything here is deliberately slow and literal: python sets, dicts
and per-element loops, no shared code with the package internals. The
exceptions are `dense_jaccard`, dense array code that is fast enough for
a few hundred samples; `scipy_weight_vectors`, the re-ranking weight
vectors built with scipy.sparse products, which the package's numpy-only
ones must match bit for bit; and `adam_oracle` and `ema_oracle`, the
updates applied one weight array at a time, which the flat-buffer
updates must match bit for bit. `traced_peak` is no oracle: it measures
every memory bound in the tests the same way.
"""

import math
import tracemalloc
from collections import defaultdict

import numpy as np
from scipy.sparse import csc_array, csr_array
from scipy.spatial.distance import cdist

from selfreid import rerank
from selfreid.errors import SelfReidError


def traced_peak(fn, *args):
    """(peak, result) of fn(*args): the most memory tracemalloc saw
    allocated while it ran, the result included, and what it returned."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


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
        tables["cluster_counts"].append(len(members))
        for b in sorted(set(cameras[members].tolist())):
            cell = [i for i in members if cameras[i] == b]
            mean = bank[cell].mean(axis=0)
            tables["camera_cluster_ids"].append(a)
            tables["camera_ids"].append(b)
            tables["camera_vectors"].append(mean / np.linalg.norm(mean))
            tables["camera_counts"].append(len(cell))
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
