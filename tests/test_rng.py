import numpy as np
import pytest
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
    stream_keys,
    uniforms,
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


def test_below_needs_a_positive_bound():
    with pytest.raises(ValueError, match=r"^below\(\) needs n >= 1$"):
        SplitMix64(5).below(0)


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
# a short grid and a long one, at the largest seed
@example(seed=MASK64, ordinals=[3, 1, 4], iteration=9, draw=2, n=5)
@example(seed=MASK64, ordinals=list(range(100_000, 99_980, -1)), iteration=9, draw=2, n=5)
def test_key_grid_rows_equal_scalar_calls(seed, ordinals, iteration, draw, n):
    grid = keyed_uniforms(seed, np.array(ordinals), iteration, draw, n)
    stacked = np.stack([keyed_uniforms(seed, o, iteration, draw, n) for o in ordinals])
    assert grid.shape == (len(ordinals), n)
    assert grid.tobytes() == stacked.tobytes()


def documented_row(seed, ordinal, iteration, draw, n):
    """keyed_uniforms' documented formula, in Python integers."""
    h = stream_key(seed, ordinal, iteration, draw)
    return [(mix64((h + GOLDEN * (k + 1)) & MASK64) >> 11) * 2.0**-53 for k in range(n)]


@given(
    seed=st.integers(0, MASK64),
    ordinals=st.lists(st.integers(0, 100_000), min_size=1, max_size=40),
    iteration=st.integers(0, 10_000),
    draw=st.integers(0, 2),
    n=st.integers(1, 40),
)
@example(seed=MASK64, ordinals=[0], iteration=0, draw=0, n=1)
@example(seed=MASK64, ordinals=list(range(40)), iteration=10_000, draw=2, n=40)
def test_key_grid_rows_follow_the_documented_formula(seed, ordinals, iteration, draw, n):
    keys = np.array(ordinals)
    grid = keyed_uniforms(seed, keys, iteration, draw, n)
    assert grid.shape == (len(ordinals), n)
    assert grid.tolist() == [documented_row(seed, o, iteration, draw, n) for o in ordinals]
    assert keys.tolist() == ordinals  # the ordinals are not written


@given(
    seed=st.integers(0, MASK64),
    ordinals=st.lists(st.integers(0, 100_000), min_size=1, max_size=8),
    iterations=st.lists(st.integers(0, 10_000), min_size=1, max_size=4),
    draws=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    n=st.integers(1, 20),
)
@example(seed=0, ordinals=[0], iterations=[0], draws=[0], n=1)
@example(seed=MASK64, ordinals=[3, 1, 4], iterations=[10_000, 0, 9], draws=[1, 2], n=5)
def test_stream_keys_are_stream_key_element_by_element(seed, ordinals, iterations, draws, n):
    # a (iterations, draws, ordinals) grid, as a swarm's key schedule is
    keys = stream_keys(seed, np.array(ordinals), np.array(iterations)[:, None, None],
                       np.array(draws)[:, None])
    assert keys.dtype == np.uint64
    assert keys.tolist() == [[[stream_key(seed, o, i, d) for o in ordinals] for d in draws]
                             for i in iterations]
    one = stream_keys(seed, ordinals[0], iterations[0], draws[0])
    assert one.shape == () and int(one) == stream_key(seed, ordinals[0], iterations[0], draws[0])
    rows = uniforms(keys, n)
    assert rows.shape == keys.shape + (n,)
    for a, i in enumerate(iterations):
        for b, d in enumerate(draws):
            assert rows[a, b].tobytes() == keyed_uniforms(seed, np.array(ordinals), i, d,
                                                          n).tobytes()


@pytest.mark.parametrize("ordinal", [np.int64(3), np.uint64(3), np.int32(3)],
                         ids=["int64", "uint64", "int32"])
def test_a_numpy_integer_ordinal_draws_one_row(ordinal):
    got = keyed_uniforms(12345, ordinal, 17, 1, 8)
    assert got.shape == (8,)
    assert got.tolist() == documented_row(12345, 3, 17, 1, 8)


def test_streams_distinct_across_keys():
    base = keyed_uniforms(7, 0, 0, 0, 32)
    assert not np.array_equal(base, keyed_uniforms(7, 1, 0, 0, 32))
    assert not np.array_equal(base, keyed_uniforms(7, 0, 1, 0, 32))
    assert not np.array_equal(base, keyed_uniforms(7, 0, 0, 1, 32))
    assert not np.array_equal(base, keyed_uniforms(8, 0, 0, 0, 32))


def test_derive_seed_spreads():
    seeds = {derive_seed(0, k) for k in range(100)}
    assert len(seeds) == 100
