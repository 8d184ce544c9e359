import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from swarmdcop.rng import (
    GOLDEN,
    MASK64,
    SplitMix64,
    derive_seed,
    keyed_uniforms,
    mix64,
    stream_key,
)


def test_splitmix64_reference_vector():
    # canonical first outputs for seed 0
    s = SplitMix64(0)
    assert [s.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_range_and_determinism():
    a = SplitMix64(99)
    b = SplitMix64(99)
    for _ in range(200):
        x = a.random()
        assert 0.0 <= x < 1.0
        assert x == b.random()


def test_below_bounds():
    s = SplitMix64(5)
    draws = [s.below(7) for _ in range(500)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7  # all residues show up over 500 draws


def test_keyed_uniforms_match_scalar_mix():
    # the vectorized path must equal the documented scalar formula
    seed, ordinal, iteration, draw, n = 12345, 3, 17, 1, 8
    got = keyed_uniforms(seed, ordinal, iteration, draw, n)
    h = stream_key(seed, ordinal, iteration, draw)
    expected = [
        (mix64((h + GOLDEN * (k + 1)) & MASK64) >> 11) * 2.0**-53 for k in range(n)
    ]
    assert got.tolist() == expected


@given(
    seed=st.integers(0, MASK64),
    ordinal=st.integers(0, 1000),
    iteration=st.integers(0, 10_000),
    draw=st.integers(0, 2),
)
def test_keyed_uniforms_deterministic_and_in_range(seed, ordinal, iteration, draw):
    a = keyed_uniforms(seed, ordinal, iteration, draw, 16)
    b = keyed_uniforms(seed, ordinal, iteration, draw, 16)
    assert np.array_equal(a, b)
    assert (a >= 0.0).all() and (a < 1.0).all()


@given(
    seed=st.integers(0, MASK64),
    ordinals=st.lists(st.integers(0, 100_000), min_size=1, max_size=20),
    iteration=st.integers(0, 10_000),
    draw=st.integers(0, 2),
    n=st.integers(1, 40),
)
# rows hashed one by one and as one array
@example(seed=MASK64, ordinals=[3, 1, 4], iteration=9, draw=2, n=5)
@example(seed=MASK64, ordinals=list(range(100_000, 99_980, -1)), iteration=9, draw=2, n=5)
def test_key_grid_rows_equal_scalar_calls(seed, ordinals, iteration, draw, n):
    grid = keyed_uniforms(seed, np.array(ordinals), iteration, draw, n)
    stacked = np.stack([keyed_uniforms(seed, o, iteration, draw, n) for o in ordinals])
    assert grid.shape == (len(ordinals), n)
    assert grid.tobytes() == stacked.tobytes()


def test_streams_distinct_across_keys():
    base = keyed_uniforms(7, 0, 0, 0, 32)
    assert not np.array_equal(base, keyed_uniforms(7, 1, 0, 0, 32))
    assert not np.array_equal(base, keyed_uniforms(7, 0, 1, 0, 32))
    assert not np.array_equal(base, keyed_uniforms(7, 0, 0, 1, 32))
    assert not np.array_equal(base, keyed_uniforms(8, 0, 0, 0, 32))


def test_derive_seed_spreads():
    seeds = {derive_seed(0, k) for k in range(100)}
    assert len(seeds) == 100
