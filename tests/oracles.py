"""Slow reference implementations the tests compare the package against.

Everything here is written with explicit Python loops and shares no code
with the package. When a test needs an expected value, it computes it
with one of these first and freezes or asserts against it.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF


def matmul_loops(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n, k = a.shape
    k2, m = b.shape
    assert k == k2
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def softmax_rows_direct(m):
    m = np.asarray(m, dtype=float)
    out = np.zeros_like(m)
    for i in range(m.shape[0]):
        hi = max(m[i, j] for j in range(m.shape[1]))
        exps = [math.exp(m[i, j] - hi) for j in range(m.shape[1])]
        total = sum(exps)
        for j in range(m.shape[1]):
            out[i, j] = exps[j] / total
    return out


def mlp_loops(layers, x):
    """Forward through [(w, b), ...]: ReLU after every layer but the last."""
    h = np.asarray(x, dtype=float)
    for li, (w, b) in enumerate(layers):
        h = matmul_loops(h, w) + np.asarray(b, dtype=float)
        if li < len(layers) - 1:
            h = np.where(h > 0.0, h, 0.0)
    return h


def norm_head_loops(weight, bias, gain, shift, x, eps=1e-5):
    z = matmul_loops(x, weight) + np.asarray(bias, dtype=float)
    n, d = z.shape
    out = np.zeros_like(z)
    for j in range(d):
        col = [z[i, j] for i in range(n)]
        mean = sum(col) / n
        var = sum((c - mean) ** 2 for c in col) / n
        for i in range(n):
            s = (z[i, j] - mean) / math.sqrt(var + eps)
            v = gain[j] * s + shift[j]
            out[i, j] = v if v > 0.0 else 0.0
    return out


def knn_scan(query, reference, k, include_self=False):
    """All-pairs scan; ties resolved by (squared distance, index)."""
    query = np.asarray(query, dtype=float)
    reference = np.asarray(reference, dtype=float)
    idx = np.zeros((query.shape[0], k), dtype=np.int64)
    d2 = np.zeros((query.shape[0], k))
    for qi in range(query.shape[0]):
        cands = []
        for ri in range(reference.shape[0]):
            if not include_self and query is reference and qi == ri:
                continue
            dx = query[qi, 0] - reference[ri, 0]
            dy = query[qi, 1] - reference[ri, 1]
            dz = query[qi, 2] - reference[ri, 2]
            cands.append((dx * dx + dy * dy + dz * dz, ri))
        cands.sort()
        for j in range(k):
            d2[qi, j], idx[qi, j] = cands[j]
    return idx, d2


def fps_greedy(points, m, start=0):
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    chosen = [start]
    while len(chosen) < m:
        best_i, best_d = -1, -1.0
        for i in range(n):
            if i in chosen:
                continue
            d = min(
                (points[i, 0] - points[c, 0]) ** 2
                + (points[i, 1] - points[c, 1]) ** 2
                + (points[i, 2] - points[c, 2]) ** 2
                for c in chosen
            )
            if d > best_d:
                best_i, best_d = i, d
        chosen.append(best_i)
    return np.asarray(chosen, dtype=np.int64)


def metrics_loops(pred, gt):
    """Per-point threshold metrics, accumulated with fsum like the package.

    Thresholds: strict 0.05 m or 5 %, relax 0.1 m or 10 %, outlier 0.3 m
    or 30 %, all strict inequalities; the relative test is skipped when
    the ground-truth vector is zero.
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    n = pred.shape[0]
    errs, strict, relax, outl = [], [], [], []
    for i in range(n):
        e = math.sqrt(sum((pred[i, c] - gt[i, c]) ** 2 for c in range(3)))
        g = math.sqrt(sum(gt[i, c] ** 2 for c in range(3)))
        errs.append(e)
        rel_ok = g > 0.0
        strict.append(1.0 if e < 0.05 or (rel_ok and e / g < 0.05) else 0.0)
        relax.append(1.0 if e < 0.1 or (rel_ok and e / g < 0.1) else 0.0)
        outl.append(1.0 if e > 0.3 or (rel_ok and e / g > 0.3) else 0.0)
    return {
        "epe_m": math.fsum(errs) / n,
        "acc_strict": math.fsum(strict) / n,
        "acc_relax": math.fsum(relax) / n,
        "outliers": math.fsum(outl) / n,
        "n_points": n,
    }


def splitmix64_seq(seed, count):
    """The splitmix64 output sequence, straight from the published recipe."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def _rotl(x, r):
    return ((x << r) | (x >> (64 - r))) & MASK64


def _xoshiro_next(s):
    """One xoshiro256** output; advances the four state words `s` in place."""
    out = (_rotl((s[1] * 5) & MASK64, 7) * 9) & MASK64
    t = (s[1] << 17) & MASK64
    s[2] ^= s[0]
    s[3] ^= s[1]
    s[1] ^= s[2]
    s[0] ^= s[3]
    s[2] ^= t
    s[3] = _rotl(s[3], 45)
    return out


def xoshiro_walk(seed, count):
    """xoshiro256** outputs and the four state words after them, state
    seeded from splitmix64 like the package."""
    s = splitmix64_seq(seed, 4)
    return [_xoshiro_next(s) for _ in range(count)], s


def xoshiro_seq(seed, count):
    """xoshiro256** outputs, state seeded from splitmix64 like the package."""
    return xoshiro_walk(seed, count)[0]


class RecipeStream:
    """The generator's draws one value at a time, at most `count` raw
    xoshiro256** draws.

    A uniform takes one raw draw; normals come in Box-Muller pairs of two
    raw draws, computed with numpy scalar ops in the original expression
    order, the sine cached as the spare for the next normal. Arrays are
    filled element by element in row-major order. Each raw draw steps the
    state on from the last one, so ``state()``, the generator state after
    the draws used so far, walks nothing.
    """

    def __init__(self, seed, count):
        self.count = count
        self.used = 0
        self.spare = None
        self._state = splitmix64_seq(seed, 4)

    def u64(self):
        if self.used == self.count:
            raise IndexError(f"the recipe stream has only {self.count} draws")
        self.used += 1
        return _xoshiro_next(self._state)

    def state(self):
        return list(self._state)

    def uniform(self):
        return (self.u64() >> 11) * 2.0 ** -53

    def normal(self):
        if self.spare is not None:
            z = self.spare
            self.spare = None
            return z
        u1 = ((self.u64() >> 11) + 1) * 2.0 ** -53
        u2 = (self.u64() >> 11) * 2.0 ** -53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        self.spare = float(r * np.sin(theta))
        return float(r * np.cos(theta))

    def _fill(self, shape, draw):
        out = np.empty(shape, dtype=np.float64)
        flat = out.reshape(-1)
        for i in range(flat.size):
            flat[i] = draw()
        return out

    def uniform_array(self, shape):
        return self._fill(shape, self.uniform)

    def normal_array(self, shape):
        return self._fill(shape, self.normal)

    def randbelow(self, n):
        nbits = (n - 1).bit_length()
        if nbits == 0:
            return 0
        while True:
            v = self.u64() >> (64 - nbits)
            if v < n:
                return v


def truncated_blob_loop(stream, n_points, truncation, spread):
    """Blob offsets one point at a time: redraw a point's three normals
    until their squared length is within truncation**2."""
    limit2 = truncation * truncation
    out = np.empty((n_points, 3))
    for i in range(n_points):
        while True:
            x, y, z = stream.normal(), stream.normal(), stream.normal()
            if x * x + y * y + z * z <= limit2:
                out[i] = [x * spread, y * spread, z * spread]
                break
    return out


def match_closure_loop(warped, mask, r_match):
    """Occlude every kept point whose warp lies within r_match of an
    occluded point's warp, pass after pass until a pass adds nothing.
    Returns the mask and the number of passes."""
    mask = np.array(mask, dtype=bool)
    r2 = r_match * r_match
    passes = 0
    while True:
        passes += 1
        kept = np.flatnonzero(~mask)
        if kept.size == 0:
            raise ValueError("closure removed every frame-2 point")
        clash = []
        for i in np.flatnonzero(mask):
            for j in kept:
                d2 = ((warped[j, 0] - warped[i, 0]) ** 2 + (warped[j, 1] - warped[i, 1]) ** 2
                      + (warped[j, 2] - warped[i, 2]) ** 2)
                if d2 <= r2:
                    clash.append(j)
        if not clash:
            return mask, passes
        mask[clash] = True


def forward_loops(raw, points, context, motion, nbr_idx, qk_dim,
                  scale_logits=True, disable_local=False, disable_global=False):
    """The whole aggregation pass, one point at a time.

    ``raw`` maps parameter names (as serialized) to numpy arrays. Returns
    the corrected motion features as an (N, Dm) array.
    """
    points = np.asarray(points, dtype=float)
    context = np.asarray(context, dtype=float)
    motion = np.asarray(motion, dtype=float)
    n, dm = motion.shape
    k = nbr_idx.shape[1]

    qk = matmul_loops(context, raw["qk_proj"])
    v = matmul_loops(motion, raw["v_proj"])

    g_global = np.zeros((n, dm))
    if not disable_global:
        logits = np.zeros((n, n))
        for i in range(n):
            for j in range(n):
                logits[i, j] = sum(qk[i, t] * qk[j, t] for t in range(qk_dim))
                if scale_logits:
                    logits[i, j] /= math.sqrt(qk_dim)
        w = softmax_rows_direct(logits)
        for i in range(n):
            for c in range(dm):
                g_global[i, c] = sum(w[i, j] * v[j, c] for j in range(n))

    g_local = np.zeros((n, dm))
    if not disable_local:
        disp_layers = [(raw["disp_encoder.w0"], raw["disp_encoder.b0"]),
                       (raw["disp_encoder.w1"], raw["disp_encoder.b1"])]
        score_layers = [(raw["score.w0"], raw["score.b0"]),
                        (raw["score.w1"], raw["score.b1"])]
        for i in range(n):
            scores = np.zeros((1, k))
            for jj in range(k):
                j = nbr_idx[i, jj]
                disp = (points[j] - points[i]).reshape(1, 3)
                enc = mlp_loops(disp_layers, disp)
                feat = np.concatenate([enc[0], context[j], context[i]]).reshape(1, -1)
                scores[0, jj] = mlp_loops(score_layers, feat)[0, 0]
            w_row = softmax_rows_direct(scores)[0]
            for jj in range(k):
                j = nbr_idx[i, jj]
                for c in range(dm):
                    g_local[i, c] += w_row[jj] * v[j, c]

    resid = motion - (g_local + g_global)
    g_offset = norm_head_loops(raw["offset_head.weight"], raw["offset_head.bias"],
                               raw["offset_head.gain"], raw["offset_head.shift"], resid)
    return motion + float(raw["alpha"]) * g_offset
