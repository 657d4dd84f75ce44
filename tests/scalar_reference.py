"""Scalar reference implementation used as an independent oracle.

Everything here is deliberately written with plain Python floats, lists
and explicit nested loops: no numpy, no shared code with the package
beyond reading parameter values out of the store.  Tests compare these
results against the vectorised production path; the two must agree
without either being derived from the other.
"""

from __future__ import annotations

import math

GUARD = 1e-12


def _zeros(n):
    return [0.0 for _ in range(n)]


def _vecmat(x, w):
    """x @ w for a vector x and a matrix w stored (len(x), out), by column."""
    return [sum(x[a] * w[a][c] for a in range(len(x))) for c in range(len(w[0]))]


def _sigmoid(x):
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _inv_guarded(x):
    return 0.0 if abs(x) <= GUARD else 1.0 / x


def ref_project_image(raw, w, b):
    k = len(raw)
    d = len(w[0])
    out = []
    for i in range(k):
        row = []
        for j in range(d):
            acc = b[j]
            for c in range(len(raw[i])):
                acc += raw[i][c] * w[c][j]
            row.append(acc)
        out.append(row)
    return out


def ref_gru_step(x, h, w):
    d = len(h)
    reset = [
        _sigmoid(sum(w["w_reset"][i][j] * x[j] for j in range(len(x)))
                 + sum(w["u_reset"][i][j] * h[j] for j in range(d))
                 + w["b_reset"][i])
        for i in range(d)
    ]
    update = [
        _sigmoid(sum(w["w_update"][i][j] * x[j] for j in range(len(x)))
                 + sum(w["u_update"][i][j] * h[j] for j in range(d))
                 + w["b_update"][i])
        for i in range(d)
    ]
    cand = [
        math.tanh(sum(w["w_cand"][i][j] * x[j] for j in range(len(x)))
                  + sum(w["u_cand"][i][j] * reset[j] * h[j] for j in range(d))
                  + w["b_cand"][i])
        for i in range(d)
    ]
    return [h[i] + update[i] * (cand[i] - h[i]) for i in range(d)]


def ref_encode_text(tokens, table, fwd, bwd):
    embedded = [list(table[t]) for t in tokens]
    length = len(tokens)
    d = len(fwd["u_reset"])

    h = _zeros(d)
    forward = []
    for t in range(length):
        h = ref_gru_step(embedded[t], h, fwd)
        forward.append(h)
    h = _zeros(d)
    backward = [None] * length
    for t in range(length - 1, -1, -1):
        h = ref_gru_step(embedded[t], h, bwd)
        backward[t] = h
    return [
        [0.5 * (forward[t][i] + backward[t][i]) for i in range(d)]
        for t in range(length)
    ]


def ref_global(local):
    n = len(local)
    d = len(local[0])
    mean = [sum(local[i][j] for i in range(n)) / n for j in range(d)]
    gated = [[local[i][j] * mean[j] for j in range(d)] for i in range(n)]
    return [sum(gated[i][j] for i in range(n)) / n for j in range(d)]


def ref_sim_vec(x, y, w):
    """(x-y)^2 @ w / ||x-y|| for a (d, m) weight w."""
    d = len(x)
    diff = [x[j] - y[j] for j in range(d)]
    dist = math.sqrt(sum(v * v for v in diff))
    inv = _inv_guarded(dist)
    sq = [v * v for v in diff]
    return [inv * sum(sq[j] * w[j][i] for j in range(d)) for i in range(len(w[0]))]


def ref_cosines(v, t):
    def unit(rows):
        out = []
        for row in rows:
            norm = math.sqrt(sum(x * x for x in row))
            inv = _inv_guarded(norm)
            out.append([x * inv for x in row])
        return out

    vu, tu = unit(v), unit(t)
    k, l = len(v), len(t)
    return [
        [max(0.0, sum(vu[i][c] * tu[j][c] for c in range(len(vu[0])))) for j in range(l)]
        for i in range(k)
    ]


def _softmax(xs):
    top = max(xs)
    exps = [math.exp(x - top) for x in xs]
    total = sum(exps)
    return [e / total for e in exps]


def ref_attention(v, t, temperature, direction):
    c = ref_cosines(v, t)
    k, l = len(c), len(c[0])
    if direction == "i2t":
        normed = []
        for i in range(k):
            inv = _inv_guarded(math.sqrt(sum(c[i][j] * c[i][j] for j in range(l))))
            normed.append([c[i][j] * inv for j in range(l)])
        weights = [[0.0] * l for _ in range(k)]
        for j in range(l):
            col = _softmax([temperature * normed[i][j] for i in range(k)])
            for i in range(k):
                weights[i][j] = col[i]
        return weights
    normed = [[0.0] * l for _ in range(k)]
    for j in range(l):
        inv = _inv_guarded(math.sqrt(sum(c[i][j] * c[i][j] for i in range(k))))
        for i in range(k):
            normed[i][j] = c[i][j] * inv
    return [_softmax([temperature * normed[i][j] for j in range(l)]) for i in range(k)]


def ref_attended(weights, feats, axis):
    """axis 0: weight columns over the rows of feats (i2t); axis 1: rows (t2i)."""
    k, l = len(weights), len(weights[0])
    d = len(feats[0])
    if axis == 0:
        return [
            [sum(weights[i][j] * feats[i][c] for i in range(k)) for c in range(d)]
            for j in range(l)
        ]
    return [
        [sum(weights[i][j] * feats[j][c] for j in range(l)) for c in range(d)]
        for i in range(k)
    ]


def ref_conv3x3(x, kernel, bias):
    n = len(x)
    m = len(x[0])
    out = [[bias for _ in range(m)] for _ in range(n)]
    for p in range(n):
        for q in range(m):
            acc = out[p][q]
            for u in range(3):
                for w in range(3):
                    pi, qi = p + u - 1, q + w - 1
                    if 0 <= pi < n and 0 <= qi < m:
                        acc += kernel[u][w] * x[pi][qi]
            out[p][q] = acc
    return out


def ref_reason_step(nodes, layer, hierarchical, row_softmax):
    n = len(nodes)
    queries = [_vecmat(s, layer["w_query"]) for s in nodes]
    keys = [_vecmat(s, layer["w_key"]) for s in nodes]
    rel = [
        [sum(queries[p][c] * keys[q][c] for c in range(len(queries[0]))) for q in range(n)]
        for p in range(n)
    ]
    if hierarchical:
        gate = ref_conv3x3(rel, layer["kernel"], layer["bias"])
        rel = [[rel[p][q] * _sigmoid(gate[p][q]) for q in range(n)] for p in range(n)]
    if row_softmax:
        rel = [_softmax(row) for row in rel]
    m = len(nodes[0])
    mixed = [
        [sum(rel[p][q] * nodes[q][c] for q in range(n)) for c in range(m)]
        for p in range(n)
    ]
    context = [_vecmat(mixed[p], layer["w_mix"]) for p in range(n)]
    update = [_vecmat(context[p], layer["w_out"]) for p in range(n)]
    return [[nodes[p][c] + update[p][c] for c in range(m)] for p in range(n)]


def ref_pair_score(weights, cfg, raw_regions, tokens):
    """Full forward pass with loops; mirrors the model's configuration flags.

    weights: dict of plain nested lists keyed by the store's parameter names.
    cfg: the production ModelConfig (only plain fields are read).
    """
    def gru(direction):
        return {
            field: weights[f"gru.{direction}.{field}"]
            for field in ("w_reset", "w_update", "w_cand",
                          "u_reset", "u_update", "u_cand",
                          "b_reset", "b_update", "b_cand")
        }

    v = ref_project_image(raw_regions, weights["img_proj.w"], weights["img_proj.b"])
    t = ref_encode_text(tokens, weights["embed.table"], gru("fwd"), gru("bwd"))
    v_glob = ref_global(v)
    t_glob = ref_global(t)

    if cfg.share_sim_w:
        w_glob = w_i2t = w_t2i = weights["sim.w_shared"]
    else:
        w_glob = weights["sim.w_glob"]
        w_i2t = weights.get("sim.w_i2t")
        w_t2i = weights.get("sim.w_t2i")
    s_glob = ref_sim_vec(v_glob, t_glob, w_glob)

    s_i2t = None
    if cfg.uses_i2t:
        if cfg.n_layers == 0:
            s_i2t = s_glob
        else:
            att = ref_attention(v, t, cfg.temperature, "i2t")
            attended = ref_attended(att, v, axis=0)
            rows = [ref_sim_vec(attended[j], t[j], w_i2t) for j in range(len(t))]
            nodes = rows + [s_glob]
            for layer_index in range(cfg.n_layers):
                names = ["w_query", "w_key", "w_out", "w_mix"]
                if cfg.hierarchical:
                    names += ["kernel", "bias"]
                layer = {name: weights[f"reason.{layer_index}.{name}"] for name in names}
                nodes = ref_reason_step(nodes, layer, cfg.hierarchical, cfg.row_softmax)
            s_i2t = nodes[-1]

    s_t2i = None
    if cfg.uses_t2i:
        att = ref_attention(v, t, cfg.temperature, "t2i")
        attended = ref_attended(att, t, axis=1)
        rows = [ref_sim_vec(v[i], attended[i], w_t2i) for i in range(len(v))]
        nodes = rows + [s_glob]
        m = len(s_glob)
        s_t2i = [sum(node[c] for node in nodes) / len(nodes) for c in range(m)]

    if cfg.stream == "both":
        fused = [s_i2t[c] + s_t2i[c] for c in range(len(s_i2t))]
    elif cfg.stream == "i2t_only":
        fused = s_i2t
    else:
        fused = s_t2i
    head_w = weights["head.w"]
    return sum(head_w[c] * fused[c] for c in range(len(fused)))


def ref_ranking_loss(scores, margin):
    """Hardest-negative triplet loss over a square score grid, sum reduced."""
    b = len(scores)
    total = 0.0
    for k in range(b):
        matched = scores[k][k]
        hardest_col = max(scores[k][j] for j in range(b) if j != k)
        total += max(0.0, margin - matched + hardest_col)
        hardest_row = max(scores[i][k] for i in range(b) if i != k)
        total += max(0.0, margin - matched + hardest_row)
    return total


def weights_as_lists(params):
    """Pull every parameter out of the store as nested Python lists."""
    return {name: tensor.data.tolist() for name, tensor in params.items()}
