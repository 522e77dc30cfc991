"""Deterministic, stream-splittable random sampling.

Every random quantity in the simulator is drawn from a stream keyed by
(master_seed, drop_index, substream_label). A stream position is a pure
function of the key, so any stream can be recreated independently of
how many other streams exist or in what order they are consumed. A key
depends on that triple only, never on the scenario or its parameters,
so one derivation of a block's keys serves every scenario at its seed.

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
block of drops in one vectorized call. Position p depends on the key and
p alone, so a stream read to n positions starts with its shorter reads:
one read to the longest length any reader needs serves them all.

Replay's float primitives, whose last bits it depends on, are named at
the end of this module, and the replay path calls them by these names.
Each is numpy's, glibc's, scipy's or OpenBLAS's own call, so its bits
follow the host; scipy's `ndtri` is imported on the first normal draw,
so a command that draws none loads no scipy. Under another CPU's
kernels (`NOT_PORTABLE` in `tests/test_randcore.py`) these round
otherwise, and the rest do not:

    exp, log1p, log10, exp10  numpy's AVX-512 exp, log1p, log10 and power
    profile_sums dots         OpenBLAS's ddot/zdotu kernel, picked by CPU
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import InvalidParamsError

_U_MIN = 2.0**-53  # smallest uniform passed to the normal inverse CDF

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
    heads = [f"{master_seed}:{drop}:".encode() for drop in drop_indices]
    sha256 = hashlib.sha256
    digests = b"".join([sha256(head + label).digest()
                        for label in [label.encode() for label in labels] for head in heads])
    # each digest is four words; a key is the first two
    return np.frombuffer(digests, dtype=np.uint64).reshape(-1, 4)[:, :2]


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
        # high words of M * x from 32-bit limbs by the carry chain: each
        # partial product is below 2**64 - 2**33 + 2, so neither sum overflows
        x_lo, x_hi = x & _LOW32, x >> _32
        t = x_hi * _M_LO + ((x_lo * _M_LO) >> _32)
        w = (t & _LOW32) + x_lo * _M_HI
        hi = x_hi * _M_HI + (t >> _32) + (w >> _32)
        x, y = hi[::-1] ^ y ^ k, (x * _M)[::-1]
    return np.stack([x[0], y[0], x[1], y[1]], axis=1)


def stream_uniforms(keys: np.ndarray, counts) -> np.ndarray:
    """Uniforms of many streams at once: stream i's positions 0 to
    `counts[i] - 1`, stream after stream in one flat array."""
    counts = np.asarray(counts, dtype=np.int64)
    num_blocks = (counts + 3) // 4
    block_start = np.cumsum(num_blocks) - num_blocks
    stream_of_block = np.repeat(np.arange(len(counts)), num_blocks)
    counters = (np.arange(len(stream_of_block)) - block_start[stream_of_block]
                + 1).astype(np.uint64)
    words = _philox4x64(keys[stream_of_block], counters).reshape(-1)
    # stream i's position p sits at word 4 * block_start[i] + p
    shift = 4 * block_start - (np.cumsum(counts) - counts)
    picked = words[np.repeat(shift, counts) + np.arange(counts.sum())]
    return (picked >> np.uint64(11)).astype(np.float64) * 2.0**-53


class RandomStream:
    """One (seed, drop, label) stream, read from its current position on.

    A view for inspection and tests: generation reads whole blocks of
    streams through `stream_uniforms` and gets the same values. Each
    read recomputes the stream from position 0 and keeps its tail.
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
        if count < 0:  # the tail of a shorter stream would be empty
            raise ValueError(f"size must be >= 0, got {count}")
        u = stream_uniforms(self._key, (self.position + count,))[self.position:]
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
    return exp(normal(u, mu, sigma))


def exponential(u, mu):
    return -mu * log1p(-u)


def uniform(u, a, b):
    return a + (b - a) * u


def discrete_uniform(u, lo, hi):
    """Integers lo..hi, equally likely."""
    span = hi - lo + 1
    return lo + np.minimum((u * span).astype(np.int64), span - 1)


def poisson_shifted(u, lam):
    """1 + Poisson(lam), counts that are at least one, by sequential CDF
    search. A uniform's search also ends once adding the pmf leaves its
    float CDF unchanged, which a uniform just below 1 may never pass."""
    k = np.zeros(u.shape, dtype=np.int64)
    pmf = np.full(u.shape, exp(-lam))
    cdf = pmf.copy()
    active = u >= cdf
    while active.any():
        k[active] += 1
        pmf[active] *= lam / k[active]
        grown = cdf + np.where(active, pmf, 0.0)
        active &= (u >= grown) & (grown != cdf)
        cdf = grown
    return k + 1


def composite_subpath(u, beta, mu_s):
    """1 + M', where M' is 0 with weight (1 - beta) and, with weight
    beta, discrete-exponential: the integer part of an Exponential(mu_s)
    variate, entered when the uniform falls in the beta-weighted upper
    region."""
    out = np.zeros(u.shape, dtype=np.int64)
    tail = u >= (1.0 - beta)
    v = (u[tail] - (1.0 - beta)) / beta
    out[tail] = np.floor(-mu_s * log1p(-np.minimum(v, 1.0 - _U_MIN))).astype(np.int64)
    return out + 1


# --- float primitives: the one place replay's last bits are decided --------
exp = np.exp
log1p = np.log1p
log10 = np.log10
float_log10 = math.log10


def exp10(x):
    return 10.0 ** x


def float_exp10(x: float) -> float:
    """10.0 ** x by glibc's pow, inf above the float range."""
    try:
        return 10.0 ** x
    except OverflowError:
        return math.inf


def phasors(angles_deg):
    return np.exp(1j * np.deg2rad(angles_deg))


def log_each(values) -> np.ndarray:
    return np.fromiter(map(math.log, values.tolist()), float, len(values))


def ndtri(u):
    """scipy.special.ndtri: its import, most of a command's start-up,
    waits for this first call, which puts scipy's ufunc in its place."""
    global ndtri
    from scipy.special import ndtri
    return ndtri(u)


def profile_sums(weights, lengths, columns=()) -> tuple:
    """`(totals, dots)` of the profiles that are the segments of
    `lengths` laid end to end in `weights`: each one's total weight,
    and for each of `columns` (float64 or complex128, as long as
    `weights`) an array of its dot product with each profile. Every
    value equals in every bit `.sum()` and `ndarray.dot` of the
    profile's slices laid contiguous, on which replay depends.
    Generation's power shares take their totals here, as the metrics
    take their totals and dots.

    The profiles of one length n are reduced together. One gather lays
    out the weights, and one `np.take` per dtype that dtype's columns,
    with the profiles in length order, so the profiles of each length
    are a (profiles, n) view; the weight rows are summed, and
    `np.matmul` of each 1 x n weight row by its n x 1 column slice
    calls BLAS ddot (zdotu) once per pair, from C. The slices are
    unit-stride along n, as a profile's own slice is: OpenBLAS reads a
    strided vector with another kernel, whose sums differ in the last
    bits. Profiles of one term are multiplied, as `ndarray.dot` does
    (`_product`).
    """
    weights = np.asarray(weights, dtype=float)
    lengths = np.asarray(lengths, dtype=np.int64)
    columns = [np.asarray(column) for column in columns]
    if (lengths < 0).any() or lengths.sum() != len(weights):
        raise InvalidParamsError(f"profile lengths must be >= 0 and sum to {len(weights)}")
    if any(len(column) != len(weights) for column in columns):
        raise InvalidParamsError("the columns and the weights differ in length")
    kinds: dict = {}  # dtype -> the positions of its columns
    for c, column in enumerate(columns):
        kinds.setdefault(column.dtype, []).append(c)
    order = np.argsort(lengths, kind="stable")
    ordered = lengths[order]
    ends = np.cumsum(ordered)
    index = np.arange(len(weights)) + np.repeat(
        (np.cumsum(lengths) - lengths)[order] - (ends - ordered), ordered)
    laid = weights[index]
    stacks = {dtype: np.take(np.array([columns[c] for c in at], dtype), index, axis=1)
              for dtype, at in kinds.items()}
    totals = np.empty(len(lengths))
    sums = {dtype: np.empty((len(at), len(lengths)), dtype) for dtype, at in kinds.items()}
    # each length's profiles: a to b of `order`, their terms lo to hi of `laid`
    groups = np.flatnonzero(np.diff(ordered, prepend=-1))
    bounds = [*(ends - ordered)[groups].tolist(), len(laid)]
    groups = [*groups.tolist(), len(lengths)]
    for a, b, lo, hi in zip(groups, groups[1:], bounds, bounds[1:]):
        n = (hi - lo) // (b - a)
        rows = laid[lo:hi].reshape(b - a, n)
        totals[a:b] = rows.sum(axis=1)
        for dtype, stack in stacks.items():
            x = stack[:, lo:hi].reshape(len(stack), b - a, n)
            sums[dtype][:, a:b] = (_product(rows[:, 0].astype(dtype), x[:, :, 0]) if n == 1
                                   else np.matmul(rows[:, None, :], x[..., None])[..., 0, 0])
    rank = np.empty_like(order)  # each profile's position in `order`
    rank[order] = np.arange(len(order))
    dots = [None] * len(columns)
    for at, out in zip(kinds.values(), sums.values()):
        for c, values in zip(at, out[:, rank]):
            dots[c] = values
    return totals[rank], dots


def _product(a, b) -> np.ndarray:
    """a * b as `ndarray.dot` gives it for vectors of one term, which it
    multiplies itself, not by BLAS from 0.0 (0.0 + -0.0 is 0.0); a
    complex one part by part, as numpy's complex multiply rounds some
    signed zeros differently."""
    if a.dtype != complex:
        return a * b
    product = np.empty(np.broadcast_shapes(a.shape, b.shape), complex)
    product.real = a.real * b.real - a.imag * b.imag
    product.imag = a.real * b.imag + a.imag * b.real
    return product
