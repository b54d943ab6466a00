"""Trial seeds are rows of numpy's public ``SeedSequence.generate_state``."""

import zlib

import numpy as np
import pytest

from otrf.experiments import _rng
from otrf.seeding import SeedWords, trial_generators

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**100 + 5]
LABELS = ["", "pr/iid/0.1", "grf/sigma/0.5"]


def cell_words(master, label, count):
    entropy = [master, zlib.crc32(label.encode())]
    return np.random.SeedSequence(entropy).generate_state(4 * count, np.uint64).reshape(count, 4)


def same_stream(ours, theirs):
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(5), theirs.random(5))


def trials(master, label, count, batch):
    return [rng for rngs in trial_generators(master, label, count, batch) for rng in rngs]


@pytest.mark.parametrize("count", [1, 2, 7, 300])
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("master", MASTERS)
def test_trials_draw_rows_of_numpys_generate_state(master, label, count):
    derived = trials(master, label, count, 3)
    assert len(derived) == count
    for row, rng in zip(cell_words(master, label, count), derived, strict=True):
        assert np.array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), row)
        same_stream(rng, np.random.Generator(np.random.PCG64(SeedWords(row))))


@pytest.mark.parametrize("label", LABELS)
def test_trial_stream_independent_of_count_and_batch(label):
    for count, batch in [(1, 1), (7, 3), (40, 1), (41, 8), (300, 64)]:
        for ours, theirs in zip(trials(5, label, count, batch), trials(5, label, 40, 40)):
            same_stream(ours, theirs)


@pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (8, np.uint64), (2, np.uint64),
                                            (4, np.int64), (0, np.uint64)])
def test_seed_words_refuse_any_other_request(n_words, dtype):
    seed = SeedWords(cell_words(0, "x", 1)[0])
    with pytest.raises(ValueError, match="SeedWords holds 4 np.uint64 words"):
        seed.generate_state(n_words, dtype)
    assert seed.generate_state(4, np.uint64).shape == (4,)


@pytest.mark.parametrize("label", ["data", "tokens", "sigma-train/0.1", "grf-graph"])
@pytest.mark.parametrize("master", MASTERS)
def test_single_streams_are_numpys_first_spawned_child(master, label):
    child = np.random.SeedSequence([master, zlib.crc32(label.encode())]).spawn(1)[0]
    same_stream(_rng(master, label), np.random.default_rng(child))


def test_generators_come_a_batch_at_a_time():
    assert [len(rngs) for rngs in trial_generators(3, "x", 7, 3)] == [3, 3, 1]
