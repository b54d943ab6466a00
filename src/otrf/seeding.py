"""Trial generators derived in one numpy pass from a cell's SeedSequence.

Trial i of a cell labelled L draws the stream of
``default_rng(SeedSequence([seed, crc32(L)]).spawn(count)[i])``.  Spawning
and seeding those children one at a time took about a fifth of a walk
benchmark's run, so this module repeats numpy's SeedSequence arithmetic
(``hashmix``, ``mix`` and ``generate_state`` of
``numpy/random/bit_generator.pyx``, pool size 4) on uint32 arrays, every
child of a cell at once.  numpy's own SeedSequence is the oracle in the
tests.  This module imports ``numpy.random``, which numpy loads only on
first use, so the experiments import it when a run first seeds.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


def _hash_const(init: int, mult: int, n: int) -> int:
    """A hash constant after ``n`` multiplies by ``mult``."""
    return init * pow(mult, n, 1 << 32) & _MASK


def _xorshift(value: np.ndarray) -> np.ndarray:
    return value ^ (value >> 16)


def _spawned_pools(pool, n_hash: int, keys: np.ndarray) -> np.ndarray:
    """The pools of children ``keys`` of a sequence whose pool is ``pool``
    after ``n_hash`` hashmix calls: each slot mixed with hashmix(key)."""
    out = np.empty((keys.size, 4), dtype=np.uint32)
    for slot in range(4):
        const = _hash_const(_INIT_A, _MULT_A, n_hash + slot)
        hashed = _xorshift((keys ^ const) * _hash_const(_INIT_A, _MULT_A, n_hash + slot + 1))
        out[:, slot] = _xorshift(np.uint32(_MIX_L * int(pool[slot]) & _MASK) - _MIX_R * hashed)
    return out


def _pcg64_words(pools: np.ndarray) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of each pool row: eight hashes of
    the pool's cycle, paired little-endian into four words."""
    state = np.empty((len(pools), 8), dtype=np.uint32)
    for k in range(8):
        mult = _hash_const(_INIT_B, _MULT_B, k + 1)
        state[:, k] = _xorshift((pools[:, k % 4] ^ _hash_const(_INIT_B, _MULT_B, k)) * mult)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class TrialSeed(ISpawnableSeedSequence):
    """``SeedSequence(entropy, spawn_key=spawn_key)`` with its pool, its
    hashmix count and, below the root, its PCG64 seed words precomputed.

    Any other ``generate_state`` request goes to the real SeedSequence.
    ``spawn`` numbers children on from its own counter, as SeedSequence does.
    """

    def __init__(self, entropy, spawn_key, pool, n_hash: int, words=None):
        self.entropy, self.spawn_key, self.pool = entropy, spawn_key, pool
        self.n_hash, self.words = n_hash, words
        self.n_children_spawned = 0

    @classmethod
    def of_cell(cls, master: int, label: str) -> TrialSeed:
        """The parent ``SeedSequence([master, crc32(label)])`` of a cell."""
        entropy = [int(master), zlib.crc32(label.encode())]
        n_words = sum(max(1, -(-value.bit_length() // 32)) for value in entropy)
        # 4 hashmix calls fill the pool, 12 cross-mix it, 4 per further word
        return cls(entropy, (), SeedSequence(entropy).pool, 16 + 4 * max(0, n_words - 4))

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64 and self.words is not None:
            return self.words.copy()
        return SeedSequence(self.entropy, spawn_key=self.spawn_key).generate_state(n_words, dtype)

    def derive(self, count: int):
        """Keys, pools and PCG64 words of the next ``count`` children."""
        start = self.n_children_spawned
        self.n_children_spawned += count
        pools = _spawned_pools(self.pool, self.n_hash, np.arange(start, start + count, dtype=np.uint32))
        return range(start, start + count), pools, _pcg64_words(pools)

    def child(self, key: int, pool, words) -> TrialSeed:
        return TrialSeed(self.entropy, self.spawn_key + (key,), pool, self.n_hash + 4, words)

    def spawn(self, n_children):
        keys, pools, words = self.derive(n_children)
        return [self.child(key, pools[j], words[j]) for j, key in enumerate(keys)]


def trial_generators(master: int, label: str, count: int, batch: int):
    """The generators of a cell's ``count`` trials, ``batch`` per list.

    Every trial's seed words come from one pass; the generators are built
    one list at a time.
    """
    root = TrialSeed.of_cell(master, label)
    _, pools, words = root.derive(count)
    for i in range(0, count, batch):
        keys = range(i, min(i + batch, count))
        yield [Generator(PCG64(root.child(k, pools[k], words[k]))) for k in keys]
