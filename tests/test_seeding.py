"""Trial seeds derived in one pass, checked against numpy's own SeedSequence."""

import zlib

import numpy as np
import pytest

from otrf.seeding import trial_generators

MASTERS = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**100 + 5]
LABELS = ["", "pr/iid/0.1", "grf/sigma/0.5"]


def same_stream(ours, theirs):
    assert ours.bit_generator.state == theirs.bit_generator.state
    assert np.array_equal(ours.random(5), theirs.random(5))


@pytest.mark.parametrize("count", [1, 2, 7, 300])
@pytest.mark.parametrize("label", LABELS)
@pytest.mark.parametrize("master", MASTERS)
def test_trials_draw_numpys_spawned_streams(master, label, count):
    children = np.random.SeedSequence([master, zlib.crc32(label.encode())]).spawn(count)
    derived = [rng for rngs in trial_generators(master, label, count, 3) for rng in rngs]
    assert len(derived) == count
    for child, rng in zip(children, derived):
        oracle = np.random.default_rng(child)
        same_stream(rng, oracle)
        # a second spawn numbers its children on from the first, as numpy's does
        for _ in range(2):
            for ours, theirs in zip(rng.spawn(3), oracle.spawn(3), strict=True):
                assert ours.bit_generator.seed_seq.spawn_key == theirs.bit_generator.seed_seq.spawn_key
                same_stream(ours, theirs)
        seed = rng.bit_generator.seed_seq
        assert np.array_equal(seed.generate_state(8, np.uint32), child.generate_state(8, np.uint32))


def test_generators_come_a_batch_at_a_time():
    assert [len(rngs) for rngs in trial_generators(3, "x", 7, 3)] == [3, 3, 1]
