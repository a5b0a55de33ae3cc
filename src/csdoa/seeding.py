"""Per-trial stream seeding: numpy's own for a lone trial, vectorised for a chunk.

Trial ``(snr_index, trial_index)`` of a run seeded ``seed`` draws from two
streams, ``np.random.default_rng(d)`` and ``np.random.default_rng(p)``, where
``d, p = np.random.SeedSequence([seed, snr_index, trial_index])
.generate_state(2, np.uint64)``. :func:`stream_generators` builds a chunk's
generators of those streams. A chunk of one trial uses numpy's
``SeedSequence`` and ``default_rng`` themselves. A larger chunk runs
``SeedSequence``'s ``hashmix``/``mix`` entropy pool on ``uint32`` arrays
shaped (words, T), one ufunc call per step for all T trials, for the stream
seeds and then for each stream's PCG64 seed words, which it hands to
``PCG64`` through numpy's ``ISeedSequence`` interface; the tests check them
against numpy itself. ``np.random`` is loaded by the first call, not by the
import.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4  # SeedSequence's default pool, in 32-bit words
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# Largest sweep or trial position: each is one 32-bit word of a trial's seed entropy.
_MAX_INDEX = 2**32 - 1


def _sequence(init: int, mult: int, count: int) -> list[int]:
    """The first ``count`` hash constants ``init * mult**k mod 2**32``."""
    consts = [init]
    for _ in range(count - 1):
        consts.append(consts[-1] * mult & _MASK32)
    return consts


def _column(values: Sequence[int]) -> np.ndarray:
    return np.array(values, dtype=np.uint32)[:, None]


# hashmix call k xors with hash constant k and multiplies by constant k + 1.
# Calls 0-3 fill the pool; calls 4-15 mix it, pool word by pool word (the
# source), each into the other three words in ascending order.
_A = _sequence(_INIT_A, _MULT_A, 17)
_FILL = (_column(_A[0:4]), _column(_A[1:5]))


def _mixing_steps() -> list[tuple[int, np.ndarray, np.ndarray]]:
    """Each pool word's mixing step: the word, and its xor and multiply constant per row."""
    steps = []
    k = _POOL_SIZE
    for src in range(_POOL_SIZE):
        xor, mul = [0] * _POOL_SIZE, [0] * _POOL_SIZE  # the source's own row is kept as it was
        for dst in range(_POOL_SIZE):
            if dst != src:
                xor[dst], mul[dst] = _A[k], _A[k + 1]
                k += 1
        steps.append((src, _column(xor), _column(mul)))
    return steps


_MIXING = _mixing_steps()
# generate_state's word i hashes pool word i % 4 with constants i and i + 1:
# (cycles, 4, 1) tables for up to two passes over the pool.
_B = _sequence(_INIT_B, _MULT_B, 9)
_OUTPUT = (_column(_B[:8]).reshape(2, 4, 1), _column(_B[1:9]).reshape(2, 4, 1))


def _hashmix(value: np.ndarray, xor: np.ndarray, mul: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix``, with the hash constants broadcast against ``value``."""
    value = value ^ xor
    value *= mul
    value ^= value >> _XSHIFT
    return value


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """SeedSequence's ``mix``: ``L x - R y`` mod 2**32, then an xor-shift."""
    result = x * _MIX_MULT_L
    result -= y * _MIX_MULT_R
    result ^= result >> _XSHIFT
    return result


def _pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence's mixed pool (4, T) of the entropy words (W, T), one column per trial.

    Fewer than 4 words count as zero-padded, since numpy hashes a missing
    word as it hashes a zero; each word past the pool is mixed into all four
    pool words.
    """
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[: len(entropy)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, *_FILL)
    for src, xor, mul in _MIXING:
        mixed = _mix(pool, _hashmix(pool[src], xor, mul))
        mixed[src] = pool[src]
        pool = mixed
    tail = _sequence(_A[-1], _MULT_A, 4 * max(len(entropy) - _POOL_SIZE, 0) + 1)
    for w, word in enumerate(entropy[_POOL_SIZE:]):
        consts = tail[4 * w : 4 * w + 5]
        pool = _mix(pool, _hashmix(word, _column(consts[:-1]), _column(consts[1:])))
    return pool


def _generate_state(pool: np.ndarray, cycles: int) -> np.ndarray:
    """``generate_state``'s first ``4 * cycles`` 32-bit words of each column, as (T, 2 * cycles) uint64."""
    words = _hashmix(pool, _OUTPUT[0][:cycles], _OUTPUT[1][:cycles])
    # Word pairs are little-endian uint64s, as numpy reads them.
    return np.ascontiguousarray(words.reshape(-1, pool.shape[1]).T, dtype="<u4").view("<u8")


def _int_words(value: int) -> list[int]:
    """A non-negative int's 32-bit words, least significant first (``[0]`` for 0), as numpy splits it."""
    if value < 0:
        raise ValueError(f"seed must be >= 0, got {value}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def stream_seeds(seed: int, tasks: Sequence[tuple[int, int]]) -> np.ndarray:
    """Each trial's ``(data_seed, phi_seed)``: a (T, 2) uint64 array.

    Row ``k`` equals ``np.random.SeedSequence([seed, *tasks[k]])
    .generate_state(2, np.uint64)`` for the ``(snr_index, trial_index)``
    pair ``tasks[k]``. ``seed`` is any non-negative int; the indices lie in
    ``[0, 2**32)``, one entropy word each.
    """
    snr_index, trial_index = zip(*tasks)
    seed_rows = ([word] * len(tasks) for word in _int_words(seed))
    entropy = np.array([*seed_rows, snr_index, trial_index], dtype=np.uint32)
    return _generate_state(_pool(entropy), 1)


def trial_seeds(seed: int, snr_index: int, trial_index: int) -> tuple[int, int]:
    """Derive independent (data_seed, phi_seed) for one trial.

    Uses a splittable seed sequence over (scenario seed, sweep position,
    trial position) so trials are reproducible regardless of execution order
    or worker count: numpy's own ``np.random.SeedSequence([seed, snr_index,
    trial_index]).generate_state(2, np.uint64)``. The positions lie in
    ``[0, 2**32)``, the range a chunk's vectorised seeding takes.
    """
    if not (0 <= snr_index <= _MAX_INDEX and 0 <= trial_index <= _MAX_INDEX):
        raise ValueError(f"snr_index and trial_index must lie in [0, {_MAX_INDEX}]")
    entropy = np.random.SeedSequence([seed, snr_index, trial_index])
    data_seed, phi_seed = entropy.generate_state(2, np.uint64).tolist()
    return data_seed, phi_seed


@cache
def _words_type() -> type:
    """The ``ISeedSequence`` that hands a ``PCG64`` one stream's precomputed seed words.

    Built on first use, since importing ``numpy.random.bit_generator`` loads
    ``np.random``; numpy seeds a bit generator only from an ``ISeedSequence``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class StreamWords(ISeedSequence):
        """``SeedSequence(s).generate_state(4, np.uint64)`` of a stream seed ``s``, computed beforehand.

        ``words`` must be a C-contiguous uint64 row: ``PCG64`` reads it
        through its data pointer, so a strided view would seed a wrong state.
        """

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
            if n_words != 4 or dtype is not np.uint64:
                raise ValueError(f"holds 4 uint64 words only, asked for {n_words} of {dtype}")
            return self.words

    return StreamWords


def stream_generators(
    seed: int, tasks: Sequence[tuple[int, int]], streams: int = 2
) -> list[np.random.Generator]:
    """Each trial's data and Phi stream generators, in that order: 2T ``Generator``s.

    ``streams=1`` gives the T data streams only. Each one's state equals
    ``np.random.default_rng(s)``'s for the trial's stream seed ``s``. A lone
    trial builds them with ``default_rng`` from :func:`trial_seeds`; two or
    more take every stream's PCG64 seed words from :func:`stream_seeds` and
    the same pool for the whole chunk at once.
    """
    if len(tasks) == 1:
        return [np.random.default_rng(s) for s in trial_seeds(seed, *tasks[0])[:streams]]
    # Each stream seed is its own entropy, two 32-bit words, low word first.
    seeds = stream_seeds(seed, tasks)[:, :streams].ravel().view("<u4").reshape(-1, 2).T
    # (streams * T, 4): rows of a C-contiguous array, one stream's PCG64 seed words each.
    words = _generate_state(_pool(seeds), 2)
    stream_words, generator, pcg64 = _words_type(), np.random.Generator, np.random.PCG64
    return [generator(pcg64(stream_words(row))) for row in words]
