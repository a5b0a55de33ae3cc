"""Tests for the chunk-wide stream seeding against numpy's own SeedSequence and PCG64."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import csdoa
from conftest import reference_trial_seeds
from csdoa.seeding import pcg64_states, stream_seeds

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
    states = pcg64_states(seeds)
    assert seeds.shape == (trials, 2) and len(states) == 2 * trials
    for k, (snr_index, trial_index) in enumerate(tasks):
        expected = np.random.SeedSequence([seed, snr_index, trial_index]).generate_state(
            2, np.uint64
        )
        assert np.array_equal(seeds[k], expected)
        assert csdoa.trial_seeds(seed, snr_index, trial_index) == reference_trial_seeds(
            seed, snr_index, trial_index
        )
        for j, stream_seed in enumerate(expected):
            assert states[2 * k + j] == np.random.default_rng(int(stream_seed)).bit_generator.state


@pytest.mark.parametrize("data_seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_pcg64_states_equal_numpys_at_word_edges(data_seed):
    # A seed below 2**32 is one entropy word, as numpy splits it; 0 is [0].
    (state,) = pcg64_states(np.array([data_seed], dtype=np.uint64))
    assert state == np.random.default_rng(data_seed).bit_generator.state
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    assert rng.standard_normal(5).tobytes() == np.random.default_rng(data_seed).standard_normal(5).tobytes()


def test_trial_seeds_reject_what_numpy_cannot_seed_or_a_chunk_cannot_hold():
    assert csdoa.trial_seeds(5, 2**32 - 1, 0) == reference_trial_seeds(5, 2**32 - 1, 0)
    for args in [(-1, 0, 0), (0, -1, 0), (0, 0, -1), (0, 2**32, 0), (0, 0, 2**32)]:
        with pytest.raises(ValueError):
            csdoa.trial_seeds(*args)
