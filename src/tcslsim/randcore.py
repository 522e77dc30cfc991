"""Deterministic, stream-splittable random sampling.

Every random quantity in the simulator is drawn from a RandomStream
keyed by (master_seed, drop_index, substream_label). The key is hashed
into a Philox counter-based generator, so any stream can be recreated
independently of how many other streams exist or in what order they are
consumed. All distribution families are sampled by inverting their CDF
on uniform draws, consuming exactly one uniform per variate, which keeps
replay stable if sampling code is reordered.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtri

from .errors import InvalidParamsError

_U_MIN = 2.0**-53  # smallest uniform passed to the normal inverse CDF


def _derive_key(master_seed: int, drop_index: int, label: str) -> np.ndarray:
    digest = hashlib.sha256(f"{master_seed}:{drop_index}:{label}".encode()).digest()
    return np.frombuffer(digest[:16], dtype=np.uint64)


class _Engine:
    """A Philox generator shared by the substreams of one drop.

    Streams save and restore the generator state when they take over,
    so interleaved use of sibling streams still yields each stream's own
    deterministic sequence.
    """

    def __init__(self):
        self._bit_gen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bit_gen)
        self._owner = None

    def acquire(self, stream: "RandomStream") -> np.random.Generator:
        if self._owner is stream:
            return self.generator
        if self._owner is not None:
            self._owner._saved_state = self._bit_gen.state
        if stream._saved_state is not None:
            self._bit_gen.state = stream._saved_state
        else:
            state = self._bit_gen.state
            state["state"]["key"] = stream._key
            state["state"]["counter"] = np.zeros(4, dtype=np.uint64)
            state["buffer_pos"] = 4
            state["has_uint32"] = 0
            state["uinteger"] = 0
            self._bit_gen.state = state
        self._owner = stream
        return self.generator


_local = threading.local()


def _thread_engine() -> _Engine:
    """Engine shared by all drop substreams on this thread.

    Safe because acquire() saves and restores per-stream state on every
    ownership change, so interleaved streams keep their own sequences.
    """
    engine = getattr(_local, "engine", None)
    if engine is None:
        engine = _local.engine = _Engine()
    return engine


class RandomStream:
    """Deterministic uniform source for one (seed, drop, label) triple."""

    __slots__ = ("master_seed", "drop_index", "label", "_key", "_engine", "_saved_state")

    def __init__(self, master_seed: int, drop_index: int, label: str, engine: _Engine | None = None):
        self.master_seed = master_seed
        self.drop_index = drop_index
        self.label = label
        self._key = _derive_key(master_seed, drop_index, label)
        self._engine = engine if engine is not None else _Engine()
        self._saved_state = None

    @property
    def provenance(self) -> tuple[int, int, str]:
        return (self.master_seed, self.drop_index, self.label)

    def uniform(self, size: int | None = None):
        """Draw uniforms in [0, 1): a float for size=None, else an array."""
        gen = self._engine.acquire(self)
        if size is None:
            return float(gen.random())
        return gen.random(size)

    def sample(self, spec: "DistSpec", size: int | None = None):
        """Sample a distribution family by inverse CDF on this stream."""
        scalar = size is None
        u = np.atleast_1d(self.uniform(1 if scalar else size))
        out = _invert(spec, u)
        if scalar:
            return out[0].item()
        return out


class StreamFamily:
    """Factory for the labeled substreams of one drop, sharing an engine."""

    def __init__(self, master_seed: int, drop_index: int):
        self.master_seed = master_seed
        self.drop_index = drop_index
        self._engine = _thread_engine()

    def substream(self, label: str) -> RandomStream:
        return RandomStream(self.master_seed, self.drop_index, label, engine=self._engine)


# --- distribution families ------------------------------------------------

@dataclass(frozen=True)
class Uniform:
    a: float
    b: float

    def __post_init__(self):
        if not self.b > self.a:
            raise InvalidParamsError(f"Uniform needs a < b, got ({self.a}, {self.b})")


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidParamsError(f"Normal sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class Exponential:
    mu: float

    def __post_init__(self):
        if self.mu <= 0:
            raise InvalidParamsError(f"Exponential mu must be > 0, got {self.mu}")


@dataclass(frozen=True)
class Lognormal:
    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma < 0:
            raise InvalidParamsError(f"Lognormal sigma must be >= 0, got {self.sigma}")


@dataclass(frozen=True)
class PoissonShifted:
    """1 + Poisson(lam): counts that are at least one."""

    lam: float

    def __post_init__(self):
        if self.lam <= 0:
            raise InvalidParamsError(f"PoissonShifted lam must be > 0, got {self.lam}")


@dataclass(frozen=True)
class DiscreteUniform:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise InvalidParamsError(f"DiscreteUniform needs lo <= hi, got ({self.lo}, {self.hi})")


@dataclass(frozen=True)
class CompositeSubpath:
    """1 + M' where M' is 0 with weight (1 - beta) and discrete-exponential
    (the integer part of an Exponential(mu_s) draw) with weight beta."""

    beta: float
    mu_s: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise InvalidParamsError(f"CompositeSubpath beta must be in [0, 1], got {self.beta}")
        if self.mu_s <= 0:
            raise InvalidParamsError(f"CompositeSubpath mu_s must be > 0, got {self.mu_s}")

    def pmf(self, m: int) -> float:
        """P(value = m) for the shifted count m >= 1."""
        k = m - 1
        if k < 0:
            return 0.0
        q = np.exp(-1.0 / self.mu_s)
        p = self.beta * q**k * (1.0 - q)
        if k == 0:
            p += 1.0 - self.beta
        return float(p)


DistSpec = Union[Uniform, Normal, Exponential, Lognormal, PoissonShifted,
                 DiscreteUniform, CompositeSubpath]


def _invert(spec: DistSpec, u: np.ndarray) -> np.ndarray:
    if isinstance(spec, Normal):
        return spec.mu + spec.sigma * ndtri(np.maximum(u, _U_MIN))
    if isinstance(spec, Exponential):
        return -spec.mu * np.log1p(-u)
    if isinstance(spec, Uniform):
        return spec.a + (spec.b - spec.a) * u
    if isinstance(spec, DiscreteUniform):
        span = spec.hi - spec.lo + 1
        return spec.lo + np.minimum((u * span).astype(np.int64), span - 1)
    if isinstance(spec, CompositeSubpath):
        return _composite_inverse(u, spec.beta, spec.mu_s) + 1
    if isinstance(spec, PoissonShifted):
        return _poisson_inverse(u, spec.lam) + 1
    if isinstance(spec, Lognormal):
        return np.exp(spec.mu + spec.sigma * ndtri(np.maximum(u, _U_MIN)))
    raise InvalidParamsError(f"unknown distribution spec {spec!r}")


def _poisson_inverse(u: np.ndarray, lam: float, max_k: int = 1000) -> np.ndarray:
    """Poisson variates by sequential CDF search, one uniform per draw."""
    if u.size == 1:
        # scalar fast path, same operation order as the vector loop
        target = float(u[0])
        k = 0
        pmf = np.exp(-lam)
        cdf = pmf
        while target >= cdf and k < max_k:
            k += 1
            pmf *= lam / k
            cdf += pmf
        return np.array([k], dtype=np.int64)
    k = np.zeros(u.shape, dtype=np.int64)
    pmf = np.full(u.shape, np.exp(-lam))
    cdf = pmf.copy()
    active = u >= cdf
    while active.any():
        k[active] += 1
        pmf[active] *= lam / k[active]
        cdf[active] += pmf[active]
        active &= u >= cdf
        if k.max() >= max_k:
            break
    return k


def _composite_inverse(u: np.ndarray, beta: float, mu_s: float) -> np.ndarray:
    """Extra-subpath counts M' from a single uniform per draw.

    The discrete-exponential component is the integer part of an
    Exponential(mu_s) variate, entered when the uniform falls in the
    beta-weighted upper region.
    """
    out = np.zeros(u.shape, dtype=np.int64)
    if beta == 0.0:
        return out
    tail = u >= (1.0 - beta)
    v = (u[tail] - (1.0 - beta)) / beta
    out[tail] = np.floor(-mu_s * np.log1p(-np.minimum(v, 1.0 - _U_MIN))).astype(np.int64)
    return out
