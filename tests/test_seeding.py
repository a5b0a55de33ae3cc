"""Tests for the chunk-wide stream seeding against numpy's own SeedSequence and default_rng."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdoa
from conftest import reference_trial_seeds
from csdoa.seeding import _generate_state, _pool, _words_type, stream_generators, stream_seeds

SEEDS = st.one_of(
    st.integers(0, 2**32 - 1),  # one entropy word
    st.integers(2**32, 2**64 - 1),  # two words: the pool is full
    st.integers(2**64, 2**300),  # past the pool: the tail-mixing loop
)


@settings(max_examples=60, deadline=None)
@given(
    seed=SEEDS,
    trials=st.sampled_from([1, 7, 64]),
    snr_points=st.integers(1, 9),
    first_trial=st.one_of(st.integers(0, 2000), st.just(2**32 - 64)),
)
@example(seed=0, trials=1, snr_points=1, first_trial=0)
@example(seed=2**32, trials=7, snr_points=3, first_trial=0)
@example(seed=2**64 - 1, trials=64, snr_points=7, first_trial=0)
@example(seed=2**200 + 1, trials=64, snr_points=9, first_trial=2**32 - 64)
def test_chunk_seeding_equals_numpys(seed, trials, snr_points, first_trial):
    tasks = [(k % snr_points, first_trial + k // snr_points) for k in range(trials)]
    seeds = stream_seeds(seed, tasks)
    generators = stream_generators(seed, tasks)
    assert seeds.shape == (trials, 2) and len(generators) == 2 * trials
    for k, (snr_index, trial_index) in enumerate(tasks):
        expected = np.random.SeedSequence([seed, snr_index, trial_index]).generate_state(
            2, np.uint64
        )
        assert np.array_equal(seeds[k], expected)
        assert csdoa.trial_seeds(seed, snr_index, trial_index) == reference_trial_seeds(
            seed, snr_index, trial_index
        )
        for j, stream_seed in enumerate(expected):
            expected_state = np.random.default_rng(int(stream_seed)).bit_generator.state
            assert generators[2 * k + j].bit_generator.state == expected_state


@pytest.mark.parametrize("data_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_pcg64_states_equal_numpys_at_word_edges(data_seed):
    # A stream seed below 2**32 is one entropy word, as numpy splits it; 0 is
    # [0]. No trial is known whose stream has such a seed, so its words go
    # straight into the pool and PCG64 seeding that a chunk runs.
    entropy = np.array([data_seed], dtype="<u8").view("<u4").reshape(-1, 2).T
    (row,) = _generate_state(_pool(entropy), 2)
    rng = np.random.Generator(np.random.PCG64(_words_type()(row)))
    expected = np.random.default_rng(data_seed)
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rng.standard_normal(5).tobytes() == expected.standard_normal(5).tobytes()


@pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 10**30])
@pytest.mark.parametrize("trials", [1, 2, 21])
def test_stream_generators_equal_numpys_default_rng(seed, trials):
    # Run seeds at the 32- and 64-bit word edges and past 2**64, one trial
    # (numpy's own path) or a chunk, trial positions at both ends of a word.
    tasks = [(k % 3, k // 3 if k % 2 else 2**32 - 1 - k // 3) for k in range(trials)]
    generators = stream_generators(seed, tasks)
    assert len(generators) == 2 * trials
    for k, task in enumerate(tasks):
        for j, stream_seed in enumerate(csdoa.trial_seeds(seed, *task)):
            expected = np.random.default_rng(stream_seed)
            rng = generators[2 * k + j]
            assert rng.bit_generator.state == expected.bit_generator.state
            assert rng.standard_normal(5).tobytes() == expected.standard_normal(5).tobytes()


@pytest.mark.parametrize(
    "n_words, dtype", [(4, np.uint32), (8, np.uint32), (2, np.uint64), (8, np.uint64)]
)
def test_stream_words_refuse_any_request_but_four_uint64_words(n_words, dtype):
    words = _words_type()(np.zeros(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    with pytest.raises(ValueError):
        words.generate_state(n_words, dtype)


def test_trial_seeds_reject_what_numpy_cannot_seed_or_a_chunk_cannot_hold():
    assert csdoa.trial_seeds(5, 2**32 - 1, 0) == reference_trial_seeds(5, 2**32 - 1, 0)
    for args in [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 2**32, 0), (0, 0, 2**32)]:
        with pytest.raises(ValueError):
            csdoa.trial_seeds(*args)
