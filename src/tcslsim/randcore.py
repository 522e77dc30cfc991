"""Deterministic, stream-splittable random sampling.

Every random quantity in the simulator is drawn from a stream keyed by
(master_seed, drop_index, substream_label). A stream position is a pure
function of the key, so any stream can be recreated independently of
how many other streams exist or in what order they are consumed.

Every variate is one uniform through an inverse CDF, which keeps replay
stable if sampling code is reordered. Each family is a function
`f(u, *params)` on an array of uniforms: `normal`, `lognormal`,
`exponential`, `uniform`, `discrete_uniform`, `poisson_shifted` and
`composite_subpath`. They do not check their parameters; those are
checked once where they enter, in `ScenarioParams` and
`validate_config`. Layout of one stream:

    key      the first 16 bytes of sha256("{seed}:{drop}:{label}") as
             two little-endian uint64 words;
    counter  uniforms 4j .. 4j+3 come from the Philox4x64-10 block
             (Salmon et al., SC'11) of counter (j + 1, 0, 0, 0);
    uniform  output word w gives (w >> 11) * 2**-53, in [0, 1).

This is bit for bit `np.random.Generator(np.random.Philox(key=k))
.random(n)`: numpy's Philox starts from counter 0 and increments it
before each block, hands out the block's four words in order, and
`Generator.random` converts a word with the same shift and scale. With
no generator state, `stream_uniforms` computes the streams of a whole
block of drops in one vectorized call.
"""

from __future__ import annotations

import hashlib

import numpy as np
from scipy.special import ndtri

_U_MIN = 2.0**-53  # smallest uniform passed to the normal inverse CDF
_POISSON_MAX_K = 1000  # where the Poisson search stops if its CDF never reaches u

# Philox4x64 multipliers (M) and Weyl key increments (W), one row per
# multiplied counter word (0 and 2); uint64 arithmetic wraps modulo 2**64
_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_LOW32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_32 = np.array(32, dtype=np.uint64)
_M_LO, _M_HI = _M & _LOW32, _M >> _32
_ROUNDS = 10


def derive_keys(master_seed: int, drop_indices, labels) -> np.ndarray:
    """Philox keys of every (label, drop) pair, label-major: row
    `i * len(drop_indices) + j` is the key of `labels[i]` in drop
    `drop_indices[j]`. Shape (len(labels) * len(drop_indices), 2)."""
    seed = hashlib.sha256(f"{master_seed}:".encode())  # hashed once, copied per key
    digests = []
    for label in labels:
        for drop in drop_indices:
            key = seed.copy()
            key.update(f"{drop}:{label}".encode())
            digests.append(key.digest()[:16])
    return np.frombuffer(b"".join(digests), dtype=np.uint64).reshape(-1, 2)


def _philox4x64(keys: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Philox4x64-10 blocks of counters (c, 0, 0, 0) under `keys`:
    shape (n, 4) of uint64 for n keys and counters.

    A round maps counter words (c0, c1, c2, c3) under key (k0, k1) to
    (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)),
    hi/lo being the halves of the 128-bit product; the key gains W
    before every round but the first. `x` holds (c0, c2), `y` (c1, c3).
    """
    k = np.ascontiguousarray(keys.T)
    x = np.zeros((2, len(counters)), dtype=np.uint64)
    x[0] = counters
    y = np.zeros_like(x)
    for r in range(_ROUNDS):
        if r:
            k = k + _W
        # high words of M * x from 32-bit limbs, so no partial product overflows
        x_lo, x_hi = x & _LOW32, x >> _32
        hi_lo, lo_hi = x_hi * _M_LO, x_lo * _M_HI
        carry = ((x_lo * _M_LO) >> _32) + (hi_lo & _LOW32) + (lo_hi & _LOW32)  # < 3 * 2**32
        hi = x_hi * _M_HI + (hi_lo >> _32) + (lo_hi >> _32) + (carry >> _32)
        x, y = hi[::-1] ^ y ^ k, (x * _M)[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=1)


def stream_uniforms(keys: np.ndarray, counts, starts=None) -> np.ndarray:
    """Uniforms of many streams at once: stream i's positions
    `starts[i]` to `starts[i] + counts[i] - 1` (starts default to 0),
    stream after stream in one flat array."""
    counts = np.asarray(counts, dtype=np.int64)
    starts = np.zeros_like(counts) if starts is None else np.asarray(starts, dtype=np.int64)
    first_block = starts // 4
    num_blocks = (starts + counts + 3) // 4 - first_block
    block_start = np.cumsum(num_blocks) - num_blocks
    stream_of_block = np.repeat(np.arange(len(counts)), num_blocks)
    counters = (np.arange(len(stream_of_block)) - block_start[stream_of_block]
                + first_block[stream_of_block] + 1).astype(np.uint64)
    words = _philox4x64(keys[stream_of_block], counters).reshape(-1)
    # stream i's position p sits at word 4 * (block_start[i] - first_block[i]) + p
    shift = 4 * (block_start - first_block) + starts - (np.cumsum(counts) - counts)
    picked = words[np.repeat(shift, counts) + np.arange(counts.sum())]
    return (picked >> np.uint64(11)).astype(np.float64) * 2.0**-53


class RandomStream:
    """One (seed, drop, label) stream, read from its current position on.

    A view for inspection and tests: generation reads whole blocks of
    streams through `stream_uniforms` and gets the same values.
    """

    __slots__ = ("master_seed", "drop_index", "label", "position", "_key")

    def __init__(self, master_seed: int, drop_index: int, label: str):
        self.master_seed = master_seed
        self.drop_index = drop_index
        self.label = label
        self.position = 0  # uniforms read so far
        self._key = derive_keys(master_seed, (drop_index,), (label,))

    def uniform(self, size: int | None = None):
        """Draw uniforms in [0, 1): a float for size=None, else an array."""
        count = 1 if size is None else size
        u = stream_uniforms(self._key, (count,), (self.position,))
        self.position += count
        return float(u[0]) if size is None else u

    def sample(self, inverse, *params, size: int | None = None):
        """Draw `inverse(u, *params)` on this stream's next uniforms: a
        scalar for size=None, else an array."""
        out = inverse(self.uniform(1 if size is None else size), *params)
        return out[0].item() if size is None else out


# --- inverse CDFs: f(u, *params) maps uniforms in [0, 1) to variates -------

def normal(u, mu, sigma):
    return mu + sigma * ndtri(np.maximum(u, _U_MIN))


def lognormal(u, mu, sigma):
    return np.exp(normal(u, mu, sigma))


def exponential(u, mu):
    return -mu * np.log1p(-u)


def uniform(u, a, b):
    return a + (b - a) * u


def discrete_uniform(u, lo, hi):
    """Integers lo..hi, equally likely."""
    span = hi - lo + 1
    return lo + np.minimum((u * span).astype(np.int64), span - 1)


def poisson_shifted(u, lam):
    """1 + Poisson(lam), counts that are at least one, by sequential CDF
    search."""
    k = np.zeros(u.shape, dtype=np.int64)
    pmf = np.full(u.shape, np.exp(-lam))
    cdf = pmf.copy()
    active = u >= cdf
    while active.any():
        k[active] += 1
        pmf[active] *= lam / k[active]
        cdf[active] += pmf[active]
        active &= u >= cdf
        if k.max() >= _POISSON_MAX_K:
            break
    return k + 1


def composite_subpath(u, beta, mu_s):
    """1 + M', where M' is 0 with weight (1 - beta) and, with weight
    beta, discrete-exponential: the integer part of an Exponential(mu_s)
    variate, entered when the uniform falls in the beta-weighted upper
    region."""
    out = np.zeros(u.shape, dtype=np.int64)
    tail = u >= (1.0 - beta)
    v = (u[tail] - (1.0 - beta)) / beta
    out[tail] = np.floor(-mu_s * np.log1p(-np.minimum(v, 1.0 - _U_MIN))).astype(np.int64)
    return out + 1
