"""The stream keys against numpy's SeedSequence, the reference they
reproduce: same Philox key, same doubles, same errors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cltlab import rng as rngmod

SEEDS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -1, -(2**64)]),
)
# one-, two- and three-word components, and the edges of the one-word range
KEY_PARTS = st.one_of(
    st.integers(0, 2**34),
    st.integers(2**32 - 3, 2**32 + 3),
    st.integers(0, 2**96),
    st.sampled_from([0, 2**32 - 1, 2**64 - 1, 2**64]),
)
REPLICATE_STARTS = st.one_of(
    st.integers(0, 10**6),
    st.integers(2**32 - 40, 2**32 + 5),
    st.integers(2**64 - 60, 2**64 - 40),
)


def _reference(seed, *key):
    ss = np.random.SeedSequence(entropy=int(seed) & (2**64 - 1), spawn_key=key)
    return np.random.Generator(np.random.Philox(ss))


def _key(gen):
    return gen.bit_generator.state["state"]["key"]


@given(seed=SEEDS, key=st.lists(KEY_PARTS, max_size=4))
@settings(max_examples=300, deadline=None)
def test_stream_matches_seed_sequence(seed, key):
    gen, ref = rngmod.stream(seed, *key), _reference(seed, *key)
    np.testing.assert_array_equal(_key(gen), _key(ref))
    np.testing.assert_array_equal(gen.random(1000), ref.random(1000))


@given(seed=SEEDS, role=st.integers(0, 5), start=REPLICATE_STARTS, count=st.integers(0, 30),
       tail=KEY_PARTS, as_list=st.booleans())
@settings(max_examples=150, deadline=None)
def test_streams_match_seed_sequence(seed, role, start, count, tail, as_list):
    reps = range(start, start + count)
    gens = rngmod.streams(seed, role, list(reps)[::-1] if as_list else reps, tail)
    assert len(gens) == count
    for rep, gen in zip(list(reps)[::-1] if as_list else reps, gens):
        ref = _reference(seed, role, rep, tail)
        np.testing.assert_array_equal(_key(gen), _key(ref))
        np.testing.assert_array_equal(gen.random(1000), ref.random(1000))


def test_streams_equal_stream_per_replicate():
    reps = [0, 7, 2**32 - 1, 2**32, 5, 2**63]  # one- and two-word replicates mixed
    for gen, rep in zip(rngmod.streams(3, rngmod.ROLE_STEP, reps, 9), reps):
        np.testing.assert_array_equal(gen.random(64), rngmod.stream(3, rngmod.ROLE_STEP, rep, 9).random(64))


@given(seed=SEEDS, key=st.lists(KEY_PARTS, max_size=3), negative=st.integers(max_value=-1),
       where=st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_negative_key_components_raise_as_seed_sequence_does(seed, key, negative, where):
    key = key[:where] + [negative] + key[where:]
    with pytest.raises(ValueError, match="expected non-negative integer"):
        _reference(seed, *key)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        rngmod.stream(seed, *key)


@pytest.mark.parametrize("role, reps, tail", [(-1, range(3), 0), (1, [2, -5, 4], 0), (1, range(-2, 2), 0), (1, range(3), -1)])
def test_streams_rejects_negative_components(role, reps, tail):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        rngmod.streams(0, role, reps, tail)


def test_streams_of_no_replicates():
    assert rngmod.streams(1, rngmod.ROLE_INIT, range(0)) == []


@pytest.mark.parametrize("seed", [0, 11, 2**32 + 5, 2**64 + 3])
@pytest.mark.parametrize("role", [rngmod.ROLE_INIT, rngmod.ROLE_STEP])
@pytest.mark.parametrize("tail", [0, 7])
@pytest.mark.parametrize("reps", [range(0, 40), range(2**32 - 20, 2**32 + 20), range(5, 5)],
                         ids=["one-word", "straddles-2**32", "empty"])
def test_first_draws_equal_each_streams_first_double(seed, role, tail, reps):
    expect = np.array([g.random() for g in rngmod.streams(seed, role, reps, tail)], dtype=float)
    got = rngmod.first_draws(seed, role, reps, tail)
    assert got.dtype == np.float64 and got.shape == expect.shape
    np.testing.assert_array_equal(got.view(np.uint64), expect.view(np.uint64))
