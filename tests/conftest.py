"""Shared fixtures and synthetic-data helpers."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from melogram.encoding import NoteVocabulary, default_vocabulary
from melogram.notes import Melody, NoteEvent


@pytest.fixture
def vocab() -> NoteVocabulary:
    return default_vocabulary()


@pytest.fixture
def small_vocab() -> NoteVocabulary:
    # 13 pitches (the minimum legal span) and 4 durations keeps tests quick.
    return NoteVocabulary(pitch_lo=60, pitch_hi=72, durations=(1, 2, 4, 8))


def random_melody(
    rng: np.random.Generator,
    vocab: NoteVocabulary,
    length: int,
) -> Melody:
    """Uniformly random in-vocabulary melody."""
    notes = [
        NoteEvent(
            pitch=int(rng.integers(vocab.pitch_lo, vocab.pitch_hi + 1)),
            duration=int(vocab.durations[rng.integers(0, vocab.duration_count)]),
        )
        for _ in range(length)
    ]
    return Melody(notes=notes)


def walk_melody(
    rng: np.random.Generator,
    vocab: NoteVocabulary,
    length: int,
    diatonic_fraction: float = 0.5,
    leap_fraction: float = 0.12,
) -> Melody:
    """Mostly stepwise random walk with controlled chromaticity and leaps.

    Used to build corpora whose diatonic share sits near
    ``diatonic_fraction``, whose over-octave leap rate sits near
    ``leap_fraction``, and whose stepwise motion keeps incidental triads
    rare (so triad-direction effects are visible against the baseline).
    """
    diatonic = {0, 2, 4, 5, 7, 9, 11}
    lo, hi = vocab.pitch_lo + 6, vocab.pitch_hi - 6
    pitch = (vocab.pitch_lo + vocab.pitch_hi) // 2
    notes = []
    for _ in range(length):
        if rng.random() < leap_fraction:
            step = int(rng.integers(13, 19)) * (1 if rng.random() < 0.5 else -1)
        else:
            step = int(rng.integers(1, 3)) * (1 if rng.random() < 0.5 else -1)
        pitch = int(np.clip(pitch + step, lo, hi))
        want_diatonic = rng.random() < diatonic_fraction
        for _ in range(12):
            if (pitch % 12 in diatonic) == want_diatonic:
                break
            pitch += 1 if rng.random() < 0.5 else -1
            pitch = int(np.clip(pitch, vocab.pitch_lo, vocab.pitch_hi))
        duration = int(vocab.durations[rng.integers(0, min(6, vocab.duration_count))])
        notes.append(NoteEvent(pitch, duration))
    return Melody(notes=notes)


@st.composite
def damaged(draw, valid_files) -> bytes:
    """One of ``valid_files`` cut short at some byte, or with one to three bits flipped."""
    data = bytearray(draw(st.sampled_from(valid_files)))
    if draw(st.booleans()):
        return bytes(data[: draw(st.integers(0, len(data) - 1))])
    for bit in draw(st.lists(st.integers(0, 8 * len(data) - 1), min_size=1, max_size=3)):
        data[bit // 8] ^= 1 << (bit % 8)
    return bytes(data)
