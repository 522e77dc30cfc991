import hashlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

import tcslsim as t
from conftest import composite_pmf, family_gof_pvalue
from tcslsim.errors import ConfigError
from tcslsim.randcore import (
    RandomStream,
    composite_subpath,
    derive_keys,
    discrete_uniform,
    exponential,
    lognormal,
    normal,
    poisson_shifted,
    stream_uniforms,
    uniform,
)


def numpy_philox_uniforms(key, n):
    """Independent oracle: numpy's own Philox4x64-10 generator."""
    k0, k1 = (int(w) for w in key)
    return np.random.Generator(np.random.Philox(key=k0 | (k1 << 64))).random(n)


def test_same_provenance_identical_sequence():
    a = RandomStream(42, 0, "delay").uniform(100)
    b = RandomStream(42, 0, "delay").uniform(100)
    assert np.array_equal(a, b)


def test_distinct_labels_differ():
    a = RandomStream(42, 0, "delay").uniform(100)
    b = RandomStream(42, 0, "power").uniform(100)
    assert not np.array_equal(a, b)


def test_distinct_drops_differ():
    a = RandomStream(42, 0, "delay").uniform(100)
    b = RandomStream(42, 1, "delay").uniform(100)
    assert not np.array_equal(a, b)


def test_fork_independent_of_sibling_consumption():
    lone = RandomStream(7, 3, "x").uniform(50)
    first = RandomStream(7, 3, "y")
    first.uniform(999)  # consuming a sibling must not disturb 'x'
    again = RandomStream(7, 3, "x").uniform(50)
    assert np.array_equal(lone, again)


# key words at the edges of the 32-bit limbs the round's products are built from
EDGE_WORDS = (0, 2**32 - 1, 2**32, 2**64 - 1)


@pytest.mark.parametrize("count", range(10))
def test_uniforms_match_numpy_philox_for_random_keys(count):
    keys = np.concatenate([
        np.random.default_rng(count).integers(0, 2**64, size=(8, 2), dtype=np.uint64),
        np.array([(k0, k1) for k0 in EDGE_WORDS for k1 in EDGE_WORDS], dtype=np.uint64)])
    got = stream_uniforms(keys, [count] * len(keys)).reshape(len(keys), count)
    for key, row in zip(keys, got):
        assert np.array_equal(row, numpy_philox_uniforms(key, count))


def test_uniforms_match_numpy_philox_for_derived_keys():
    labels = ("shadow", "intra_delay", "")
    keys = derive_keys(20210928, range(3, 7), labels)
    counts = np.arange(len(keys)) % 10  # crosses the four-output block edge
    got = np.split(stream_uniforms(keys, counts), np.cumsum(counts)[:-1])
    for i, (key, row) in enumerate(zip(keys, got)):
        label, drop = labels[i // 4], 3 + i % 4
        assert np.array_equal(key, derive_keys(20210928, [drop], [label])[0])
        assert np.array_equal(row, numpy_philox_uniforms(key, counts[i]))


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
def test_derived_keys_are_the_sha256_of_the_stream_triple(seed):
    # drop indices whose decimal lengths differ, so the key text does too
    drops, labels = [9, 10, 99, 100], ["shadow", "intra_delay", "angle_offset", ""]
    keys = derive_keys(seed, drops, labels)
    assert keys.shape == (len(drops) * len(labels), 2) and keys.dtype == np.uint64
    expected = b"".join(hashlib.sha256(f"{seed}:{drop}:{label}".encode()).digest()[:16]
                        for label in labels for drop in drops)
    assert keys.tobytes() == expected


def test_interleaved_sibling_streams_match_numpy_philox():
    streams = {label: RandomStream(11, 5, label) for label in ("a", "b", "c")}
    got = {label: [] for label in streams}
    for step in range(12):  # alternate reads of 1, 2 or 3 uniforms
        for k, (label, stream) in enumerate(streams.items()):
            size = 1 + (step + k) % 3
            got[label].extend(stream.uniform(size) if size > 1 else [stream.uniform()])
    for label, values in got.items():
        assert streams[label].position == len(values)
        key = derive_keys(11, [5], [label])[0]
        assert np.array_equal(values, numpy_philox_uniforms(key, len(values)))


def test_an_empty_read_stays_put_and_a_negative_size_is_refused():
    stream = RandomStream(11, 5, "a")
    stream.uniform(6)
    assert stream.uniform(0).shape == (0,) and stream.position == 6
    with pytest.raises(ValueError, match="size must be >= 0, got -1"):
        stream.uniform(-1)
    assert stream.position == 6
    key = derive_keys(11, [5], ["a"])[0]
    assert stream.uniform() == numpy_philox_uniforms(key, 7)[6]


def test_next_uniform_advances_and_bounds():
    s = RandomStream(1, 0, "u")
    vals = [s.uniform() for _ in range(1000)]
    assert len(set(vals)) > 990
    assert all(0.0 <= v < 1.0 for v in vals)


def test_uniform_sample_mean():
    u = RandomStream(123, 0, "mean").uniform(1_000_000)
    assert abs(u.mean() - 0.5) < 0.002


def test_uniform_ks_statistic():
    u = RandomStream(321, 0, "ks").uniform(100_000)
    assert sps.kstest(u, "uniform").statistic < 0.006


def test_uniform_range_bounds():
    u = RandomStream(7, 0, "rng").uniform(100_000)
    assert u.min() >= 0.0
    assert u.max() < 1.0


@given(seed=st.integers(min_value=0, max_value=2**64 - 1),
       drop=st.integers(min_value=0, max_value=2**31),
       label=st.text(min_size=0, max_size=12))
@settings(max_examples=30, deadline=None)
def test_replay_is_bit_identical(seed, drop, label):
    a = RandomStream(seed, drop, label)
    b = RandomStream(seed, drop, label)
    assert np.array_equal(a.uniform(16), b.uniform(16))
    assert a.sample(normal, 0, 1, size=4).tolist() == b.sample(normal, 0, 1, size=4).tolist()


def test_exponential_closed_form_inversion():
    u = np.array([1.0 - math.exp(-1.0)])
    out = exponential(u, 10.0)
    assert out[0] == pytest.approx(10.0, rel=1e-12)


def test_normal_inverse_median_and_quartile():
    out = normal(np.array([0.5, 0.975]), 2.0, 3.0)
    assert out[0] == pytest.approx(2.0, abs=1e-12)
    assert out[1] == pytest.approx(2.0 + 3.0 * 1.959963985, abs=1e-6)


def test_poisson_shifted_minimum_frequency():
    draws = RandomStream(5, 0, "pois").sample(poisson_shifted, 1.3, size=1_000_000)
    assert draws.min() >= 1
    freq = np.mean(draws == 1)
    assert abs(freq - math.exp(-1.3)) < 0.002


def test_composite_point_mass_frequency():
    draws = RandomStream(6, 0, "comp").sample(composite_subpath, 0.8, 2.4, size=1_000_000)
    expected = composite_pmf(0, 0.8, 2.4)
    assert expected == pytest.approx(0.4726, abs=5e-4)
    assert abs(np.mean(draws == 1) - expected) < 0.002


def test_composite_beta_zero_is_constant_one():
    draws = RandomStream(6, 0, "comp0").sample(composite_subpath, 0.0, 5.0, size=10_000)
    assert (draws == 1).all()


def test_composite_beta_one_reduces_to_discrete_exponential():
    a = RandomStream(8, 0, "de").sample(composite_subpath, 1.0, 1.7, size=50_000)
    exp_draws = RandomStream(8, 0, "de").sample(exponential, 1.7, size=50_000)
    assert np.array_equal(a, 1 + np.floor(exp_draws).astype(np.int64))


def test_composite_tiny_scale_degenerates_to_one():
    draws = RandomStream(6, 0, "tiny").sample(composite_subpath, 1.0, 1e-12, size=10_000)
    assert (draws == 1).all()


def test_discrete_uniform_bounds_and_balance():
    draws = RandomStream(4, 0, "du").sample(discrete_uniform, 1, 5, size=1_000_000)
    assert draws.min() == 1 and draws.max() == 5
    for k in range(1, 6):
        assert abs(np.mean(draws == k) - 0.2) < 0.005


def test_lognormal_matches_exp_of_normal():
    a = RandomStream(2, 0, "ln").sample(lognormal, 2.7, 1.4, size=1000)
    b = RandomStream(2, 0, "ln").sample(normal, 2.7, 1.4, size=1000)
    assert np.allclose(a, np.exp(b), rtol=1e-12)


def validated(label, distance_m=10.0, **overrides):
    return t.validate_config(t.SimConfig(scenario=t.Scenario.parse(label),
                                         distance_m=distance_m, overrides=overrides))


# The inverse CDFs take their parameters unchecked: each parameter a
# family cannot take is rejected where it enters, in validate_config.
@pytest.mark.parametrize("bad", [
    lambda: validated("28-nlos", mu_tau=0.0),               # exponential mu = 0
    lambda: validated("28-nlos", mu_rho=-1.0),              # exponential mu < 0
    lambda: validated("28-los", sigma_tau=-0.1),            # lognormal sigma < 0
    lambda: validated("28-nlos", sigma_z=-1.0),             # normal sigma < 0
    lambda: validated("28-nlos", distance_m=(1.0, 1.0)),    # uniform a = b
    lambda: validated("28-los", n_c_max=0),                 # discrete uniform lo > hi
    lambda: validated("28-nlos", lambda_c=0.0),             # shifted Poisson lam = 0
    lambda: validated("28-nlos", beta_s=1.2),               # composite beta > 1
    lambda: validated("28-nlos", mu_s=0.0),                 # composite mu_s = 0
])
def test_invalid_params_raise(bad):
    with pytest.raises(ConfigError):
        bad()


@pytest.mark.parametrize("lam", [1.3, 3.4, 10.0])
@pytest.mark.parametrize("u", [1 - 2**-53, 1 - 2**-52])
def test_poisson_shifted_ends_near_the_tail_at_the_top_uniforms(lam, u):
    # the float CDF of the search never reaches these uniforms; the
    # search ends where it stops growing, near the exact tail quantile
    got = poisson_shifted(np.array([u]), lam)[0]
    assert abs(got - (sps.poisson.isf(2**-53, lam) + 1)) <= 3


def test_poisson_shifted_search_ends_at_the_lambda_c_bound():
    got = poisson_shifted(np.array([0.5, 1 - 2**-53]), 700.0)
    assert got[0] == 701 and 701 < got[1] <= sps.poisson.isf(2**-53, 700.0) + 3


def test_poisson_shifted_holds_its_mean_near_the_lambda_c_bound():
    draws = RandomStream(9, 0, "pois700").sample(poisson_shifted, 700.0, size=2000)
    assert abs(draws.mean() - 701.0) < 5 * math.sqrt(700.0 / 2000)


@pytest.mark.parametrize("spec", [
    (uniform, 0.0, 1.0),
    (uniform, 0.0, 2.0 * math.pi),
    (normal, 0.0, 7.0),
    (exponential, 12.1),
    (lognormal, 2.7, 1.4),
    (poisson_shifted, 3.4),
    (poisson_shifted, 1.3),
    (discrete_uniform, 1, 5),
    (composite_subpath, 0.6, 4.1),
    (composite_subpath, 1.0, 1.0),
])
def test_each_family_fits_its_law_at_1pct(spec):
    assert family_gof_pvalue(*spec, n=100_000, seed=424242) > 0.01


def test_sample_scalar_and_vector_types():
    s = RandomStream(1, 0, "types")
    assert isinstance(s.sample(exponential, 1.0), float)
    assert isinstance(s.sample(poisson_shifted, 1.0), int)
    arr = s.sample(normal, 0, 1, size=5)
    assert arr.shape == (5,)


# --- portability of replay's float primitives --------------------------------

# settings of a host that change which kernel a primitive runs: numpy
# without its AVX-512 kernels (glibc's run instead), and OpenBLAS on two
# older x86-64 kernels
HOST_SETTINGS = [{}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
                 {"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_CORETYPE": "Sandybridge"}]
# the primitives whose bits move under one of them, as the randcore
# docstring says and why; portable replay (ROADMAP item 1) empties it
NOT_PORTABLE = {"exp", "log1p", "log10", "exp10", "profile_sums dots"}
# prints {primitive: sha256 of its outputs} of each randcore primitive
# over fixed inputs: uniforms of the Philox integer path, whose bits no
# setting moves
PRIMITIVE_HASHES = """
import hashlib, json
import numpy as np
from tcslsim import randcore as r

u = r.stream_uniforms(r.derive_keys(31, [0], ["portability"]), [1 << 18])
few = u[:4096].tolist()
lengths = np.diff(np.flatnonzero(u < 0.02), prepend=0)  # 1 to a few hundred terms
w = u[:lengths.sum()]
totals, dots = r.profile_sums(w, lengths, (w * 40.0, r.phasors(w * 360.0)))
outputs = {
    "exp": r.exp(-60.0 * u + 5.0),
    "log1p": r.log1p(-u),
    "log10": r.log10(u),
    "exp10": r.exp10(40.0 * u - 20.0),
    "ndtri": r.ndtri(u),
    "phasors": r.phasors(720.0 * u - 360.0),
    "log_each": r.log_each(u[:65536]),
    "float_log10": [r.float_log10(v) for v in few],
    "float_exp10": [r.float_exp10(80.0 * v - 40.0) for v in few],
    "profile_sums totals": totals,
    "profile_sums dots": dots,
}
print(json.dumps({name: hashlib.sha256(np.asarray(v).tobytes()).hexdigest()
                  for name, v in outputs.items()}))
"""


@pytest.mark.skipif(platform.machine() not in ("x86_64", "AMD64"),
                    reason="the settings name x86-64 CPU features and OpenBLAS kernels")
def test_only_the_primitives_recorded_not_portable_change_bits_under_another_kernel():
    src = str(Path(t.__file__).parents[1])
    hashes = []
    for setting in HOST_SETTINGS:
        child = subprocess.run([sys.executable, "-c", PRIMITIVE_HASHES], capture_output=True,
                               text=True, check=True,
                               env={**os.environ, "PYTHONPATH": src, **setting})
        hashes.append(json.loads(child.stdout))
    assert NOT_PORTABLE <= set(hashes[0])
    moved = {name for other in hashes[1:] for name in other if other[name] != hashes[0][name]}
    assert moved <= NOT_PORTABLE, f"{sorted(moved - NOT_PORTABLE)} changed bits"


def test_ndtri_imports_scipy_on_the_first_normal_draw_and_then_is_scipys():
    code = ("import sys\n"
            "import numpy as np\n"
            "from tcslsim import randcore as r\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "u = np.array([2.0**-53, 0.25, 0.5, 0.975])\n"
            "drawn = r.normal(u, 0.0, 1.0)\n"
            "from scipy import special\n"
            "print(r.ndtri is special.ndtri, drawn.tobytes() == special.ndtri(u).tobytes())\n")
    src = str(Path(t.__file__).parents[1])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           check=True, env={**os.environ, "PYTHONPATH": src})
    assert child.stdout.splitlines() == ["[]", "True True"]
