"""Counter-based random streams.

Every stream is keyed by (global seed, *key integers) through a Philox
generator, so replicates can be produced in any order, on any number of
threads, with bit-exact replay.

A Philox stream is fully determined by its 128-bit key. The key is numpy's
SeedSequence(entropy=seed mod 2**64, spawn_key=key).generate_state(2,
uint64), a pure 32-bit hash that `_key_state` evaluates on ints or on uint32
arrays with one entry per stream, so `streams` keys a whole replicate range
in one vectorized pass.

Philox is counter-based (Salmon et al., SC 2011): a stream's first double is
word 0 of Philox4x64-10 at counter 1 under its key, so `first_draws`
computes it for a whole replicate range with no generator.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# stream roles, part of the key
ROLE_INIT = 0
ROLE_STEP = 1
ROLE_INNOVATION = 2
ROLE_BOOTSTRAP = 3
ROLE_CALIBRATION = 4
ROLE_CENTERING = 5

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
MASK32 = 0xFFFFFFFF
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(k: int) -> list:
    """Little-endian 32-bit words of a non-negative key integer (0 is one word)."""
    k = int(k)
    if k < 0:
        raise ValueError("expected non-negative integer")
    words = [k & MASK32]
    while k > MASK32:
        k >>= 32
        words.append(k & MASK32)
    return words


# Every product is reduced mod 2**32, so the same code hashes ints and uint32
# arrays (where the reduction is the wraparound itself).
def _hashmix(value, hash_const: int) -> tuple:
    value = value ^ hash_const
    hash_const = hash_const * MULT_A & MASK32
    value = value * hash_const & MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    result = ((MIX_MULT_L * x & MASK32) - (MIX_MULT_R * y & MASK32)) & MASK32
    return result ^ (result >> 16)


@lru_cache(maxsize=64)
def _seed_pool(seed: int) -> tuple:
    """(pool, hash constant) after the seed's words are hashed in and mixed.
    SeedSequence zero-pads the seed to the pool size whenever a spawn key is
    present; without one the pool hashes the missing words as 0 anyway."""
    pool, hash_const = [], INIT_A
    for w in (seed & MASK32, seed >> 32, 0, 0):
        w, hash_const = _hashmix(w, hash_const)
        pool.append(w)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                w, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], w)
    return tuple(pool), hash_const


def _key_state(seed: int, words: list) -> list:
    """SeedSequence(seed mod 2**64, spawn_key).generate_state(4, uint32) for
    the spawn key's 32-bit words; a word is an int or a uint32 array."""
    pool, hash_const = _seed_pool(int(seed) & (2**64 - 1))
    pool = list(pool)
    for w in words:
        for dst in range(POOL_SIZE):
            v, hash_const = _hashmix(w, hash_const)
            pool[dst] = _mix(pool[dst], v)
    state, hash_const = [], INIT_B
    for w in pool:
        w = w ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        w = w * hash_const & MASK32
        state.append(w ^ (w >> 16))
    return state


class _Key(ISeedSequence):
    """Seed sequence that hands Philox its precomputed key."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


def _generator(key: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(_Key(key)))


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for the given (seed, key...) tuple."""
    s = _key_state(seed, [w for k in key for w in _words(k)])
    return _generator(np.array([s[0] | s[1] << 32, s[2] | s[3] << 32], dtype=np.uint64))


def _stream_keys(seed: int, role: int, replicates, tail: int) -> np.ndarray:
    """The Philox key of stream(seed, role, rep, tail) for each rep in
    replicates, one uint64 pair per row."""
    reps = list(replicates)
    if reps and min(reps) < 0:
        raise ValueError("expected non-negative integer")
    reps = np.array(reps, dtype=np.uint64)
    lo = (reps & np.uint64(MASK32)).astype(np.uint32)
    hi = (reps >> np.uint64(32)).astype(np.uint32)
    role_words, tail_words = _words(role), _words(tail)
    keys = np.empty((reps.size, 2), dtype=np.uint64)
    # a replicate above 2**32 - 1 is two key words, which changes the hash
    for rows, rep_words in ((hi == 0, [lo]), (hi != 0, [lo, hi])):
        if rows.any():
            state = _key_state(seed, role_words + [w[rows] for w in rep_words] + tail_words)
            keys[rows] = np.column_stack(state).astype("<u4").view("<u8")
    return keys


def streams(seed: int, role: int, replicates, tail: int = 0) -> list:
    """[stream(seed, role, rep, tail) for rep in replicates], keyed in one
    vectorized pass. Replicates are integers in [0, 2**64)."""
    return [_generator(k) for k in _stream_keys(seed, role, replicates, tail)]


def _mulhilo(m: int, b: np.ndarray) -> tuple:
    """High and low 64-bit words of the 128-bit product m * b, from 32-bit
    halves whose partial sums fit in 64 bits."""
    m_lo, m_hi = np.uint64(m & MASK32), np.uint64(m >> 32)
    b_lo, b_hi = b & np.uint64(MASK32), b >> np.uint64(32)
    low = m_lo * b_lo
    mid = m_hi * b_lo
    cross = (low >> np.uint64(32)) + (mid & np.uint64(MASK32)) + m_lo * b_hi
    return m_hi * b_hi + (mid >> np.uint64(32)) + (cross >> np.uint64(32)), b * np.uint64(m)


def first_draws(seed: int, role: int, replicates, tail: int = 0) -> np.ndarray:
    """[g.random() for g in streams(seed, role, replicates, tail)], bit for
    bit, with no generator: numpy's Philox draws its first double from word 0
    of Philox4x64-10 at counter (1, 0, 0, 0), the top 53 bits times 2**-53."""
    keys = _stream_keys(seed, role, replicates, tail)
    k0, k1 = keys.T.copy()
    c0 = np.ones_like(k0)
    c1 = c2 = c3 = np.zeros_like(k0)  # never written in place, so one array serves
    # ten rounds with Random123's multipliers; the key takes its Weyl
    # increments before every round but the first
    for r in range(10):
        if r:
            k0 += np.uint64(0x9E3779B97F4A7C15)
            k1 += np.uint64(0xBB67AE8584CAA73B)
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    return (c0 >> np.uint64(11)) * 2.0**-53
