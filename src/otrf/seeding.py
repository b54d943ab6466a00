"""Trial generators from one ``SeedSequence.generate_state`` call per cell.

Trial i of a cell labelled L seeds PCG64 with row i of
``SeedSequence([seed, crc32(L)]).generate_state(4 * count, np.uint64)
.reshape(count, 4)``.  ``generate_state`` output is prefix-stable, so a
trial's stream does not depend on ``count``.  This module imports
``numpy.random``, which numpy loads only on first use, so the experiments
import it when a run first seeds.
"""

from __future__ import annotations

import zlib

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence


class SeedWords(ISpawnableSeedSequence):
    """Four PCG64 seed words as a seed sequence; ``spawn(n)`` seeds its children
    with the rows of ``SeedSequence(words).generate_state(4 * n, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError(f"SeedWords holds 4 np.uint64 words, not {n_words} {dtype}")
        return self.words

    def spawn(self, n_children):
        rows = SeedSequence(self.words).generate_state(4 * n_children, np.uint64)
        return [SeedWords(row) for row in rows.reshape(n_children, 4)]


def trial_generators(master: int, label: str, count: int, batch: int):
    """The generators of a cell's ``count`` trials, ``batch`` per list."""
    entropy = [master, zlib.crc32(label.encode())]
    words = SeedSequence(entropy).generate_state(4 * count, np.uint64).reshape(count, 4)
    for i in range(0, count, batch):
        yield [Generator(PCG64(SeedWords(row))) for row in words[i : i + batch]]
