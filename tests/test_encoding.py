"""Tests for the vocabulary, one-hot encoding and window construction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melogram.encoding import (
    EncodingError,
    NoteVocabulary,
    cumulative_table,
    default_vocabulary,
    draw_index,
    encode_note,
    make_training_windows,
    note_indices,
    sample_index,
    split_distribution,
    stack_examples,
)
from melogram.network import one_hot
from melogram.notes import Melody, NoteEvent, fold_octaves

VOCAB = default_vocabulary()


def decode(vec, vocab=VOCAB):
    """The note a vector encodes, the oracle for ``encode_note``.

    Fails unless the vector holds exactly two 1s, one in each segment, and
    0 everywhere else.
    """
    assert vec.shape == (vocab.dim,)
    hot = np.flatnonzero(vec)
    assert len(hot) == 2 and np.all(vec[hot] == 1.0), f"hot slots {hot} of {vec[hot]}"
    pitch_slot, duration_slot = int(hot[0]), int(hot[1]) - vocab.pitch_count
    assert pitch_slot < vocab.pitch_count and duration_slot >= 0, f"hot slots {hot}"
    return NoteEvent(vocab.pitch_lo + pitch_slot, vocab.durations[duration_slot])


in_vocab_notes = st.builds(
    NoteEvent,
    pitch=st.integers(VOCAB.pitch_lo, VOCAB.pitch_hi),
    duration=st.sampled_from(VOCAB.durations),
)


class TestNoteVocabulary:
    def test_default_dimensions(self):
        assert VOCAB.pitch_count == 59
        assert VOCAB.duration_count == 30
        assert VOCAB.dim == 89
        assert VOCAB.durations[0] == 1 and VOCAB.durations[-1] == 32

    def test_rejects_sub_octave_range(self):
        with pytest.raises(ValueError, match="octave|span"):
            NoteVocabulary(pitch_lo=60, pitch_hi=65, durations=(1, 2))

    def test_rejects_non_increasing_durations(self):
        with pytest.raises(ValueError, match="increasing"):
            NoteVocabulary(durations=(1, 2, 2, 4))

    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError, match=">= 1"):
            NoteVocabulary(durations=(0, 1, 2))

    @pytest.mark.parametrize("fields, match", [
        ({"pitch_lo": -1}, r"pitch bounds -1\.\.94 must lie in 0\.\.127"),
        ({"pitch_hi": 128}, r"pitch bounds 36\.\.128 must lie in 0\.\.127"),
        ({"pitch_lo": 80, "pitch_hi": 70}, r"pitch bounds 80\.\.70 must lie in 0\.\.127"),
        ({"durations": ()}, "duration table must be non-empty"),
    ], ids=["lo-negative", "hi-past-127", "lo-above-hi", "no-durations"])
    def test_rejects_bounds_outside_midi_and_an_empty_duration_table(self, fields, match):
        with pytest.raises(ValueError, match=match):
            NoteVocabulary(**fields)

    def test_contains_exactly_the_notes_it_encodes(self):
        vocab = NoteVocabulary(pitch_lo=55, pitch_hi=79, durations=(1, 2, 4, 8))
        for pitch in range(128):
            for duration in range(1, 10):
                note = NoteEvent(pitch, duration)
                inside = 55 <= pitch <= 79 and duration in (1, 2, 4, 8)
                assert vocab.contains(note) is inside, note
                if inside:
                    note_indices(note, vocab)
                else:
                    with pytest.raises(EncodingError):
                        note_indices(note, vocab)


class TestEncodeDecode:
    def test_a5_quarter_note_slots(self):
        # Pitch 81 with a four-sixteenth duration: hot at 81-36=45 and 59+3=62.
        vec = encode_note(NoteEvent(81, 4), VOCAB)
        assert vec[45] == 1.0
        assert vec[59 + 3] == 1.0
        assert vec.sum() == 2.0

    def test_lower_boundary_slots(self):
        vec = encode_note(NoteEvent(VOCAB.pitch_lo, VOCAB.durations[0]), VOCAB)
        assert vec[0] == 1.0 and vec[VOCAB.pitch_count] == 1.0
        assert vec.sum() == 2.0

    def test_out_of_vocabulary_pitch_named_in_error(self):
        with pytest.raises(EncodingError, match="35"):
            encode_note(NoteEvent(35, 4), VOCAB)

    def test_out_of_vocabulary_duration_named_in_error(self):
        with pytest.raises(EncodingError, match="29"):
            encode_note(NoteEvent(60, 29), VOCAB)

    def test_boundary_decode(self):
        note = NoteEvent(VOCAB.pitch_hi, VOCAB.durations[-1])
        vec = encode_note(note, VOCAB)
        assert vec[VOCAB.pitch_count - 1] == 1.0 and vec[-1] == 1.0
        assert decode(vec) == note

    @settings(max_examples=200, deadline=None)
    @given(note=in_vocab_notes)
    def test_round_trip_property(self, note):
        vec = encode_note(note, VOCAB)
        # Two-segment invariant: exactly one 1 per segment.
        assert vec[: VOCAB.pitch_count].sum() == 1.0
        assert vec[VOCAB.pitch_count :].sum() == 1.0
        assert set(np.unique(vec)) <= {0.0, 1.0}
        assert decode(vec) == note

    def test_round_trip_1000_random_notes(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            note = NoteEvent(
                int(rng.integers(VOCAB.pitch_lo, VOCAB.pitch_hi + 1)),
                int(VOCAB.durations[rng.integers(0, VOCAB.duration_count)]),
            )
            assert decode(encode_note(note, VOCAB)) == note


class TestSplitDistribution:
    @pytest.mark.parametrize("size", [VOCAB.dim - 1, VOCAB.dim + 1])
    def test_refuses_a_vector_of_the_wrong_length(self, size):
        with pytest.raises(EncodingError, match=f"expected vector of length {VOCAB.dim}"):
            split_distribution(np.zeros(size), VOCAB)

    def test_zeros_give_uniform_segments(self):
        pitch, dur = split_distribution(np.zeros(VOCAB.dim), VOCAB)
        assert np.allclose(pitch, 1.0 / 59)
        assert np.allclose(dur, 1.0 / 30)

    def test_saturated_slot_dominates(self):
        raw = np.zeros(VOCAB.dim)
        raw[10] = 1000.0
        pitch, _ = split_distribution(raw, VOCAB)
        assert pitch[10] > 1.0 - 1e-9

    def test_segments_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            raw = rng.normal(size=VOCAB.dim) * 10
            pitch, dur = split_distribution(raw, VOCAB)
            assert abs(pitch.sum() - 1.0) <= 1e-9
            assert abs(dur.sum() - 1.0) <= 1e-9

    def test_shift_invariance_per_segment(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=VOCAB.dim)
        shifted = raw.copy()
        shifted[: VOCAB.pitch_count] += 7.5
        base_p, base_d = split_distribution(raw, VOCAB)
        shift_p, shift_d = split_distribution(shifted, VOCAB)
        assert int(np.argmax(shift_p)) == int(np.argmax(base_p))
        assert np.allclose(shift_p, base_p)
        assert np.allclose(shift_d, base_d)


class TestSampleIndex:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        probs = np.zeros(10)
        probs[3] = 1.0
        assert all(sample_index(probs, rng) == 3 for _ in range(50))

    def test_empirical_matches_distribution(self):
        rng = np.random.default_rng(1)
        probs = np.array([0.5, 0.25, 0.25])
        draws = np.array([sample_index(probs, rng) for _ in range(20000)])
        freq = np.bincount(draws, minlength=3) / len(draws)
        assert np.abs(freq - probs).max() < 0.02

    def test_table_draw_is_the_searchsorted_inverse_cdf(self):
        # numpy's searchsorted on the running sums, zero-mass slots (ties) included.
        rng = np.random.default_rng(7)
        for case in range(300):
            probs = rng.dirichlet(np.ones(12)) * (rng.random(12) < 0.6)
            if not probs.sum():
                continue
            table = cumulative_table(probs)
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            for _ in range(20):
                cum = np.cumsum(probs)
                want = int(np.searchsorted(cum, theirs.random() * cum[-1], side="right"))
                assert draw_index(table, ours) == min(want, len(probs) - 1)

    @pytest.mark.parametrize("probs", [
        np.full(5, np.nan), np.zeros(5), np.array([0.5, np.inf, 0.5]),
    ], ids=["nan", "zero", "inf"])
    def test_mass_not_finite_and_positive_raises(self, probs):
        # A diverged model gives NaN probabilities; they must not pick a slot.
        with pytest.raises(ValueError, match="total mass"):
            sample_index(probs, np.random.default_rng(0))


class TestFoldPitch:
    def test_in_range_untouched(self):
        assert fold_octaves(60, VOCAB.pitch_lo, VOCAB.pitch_hi) == 60

    def test_folds_preserve_pitch_class(self):
        assert fold_octaves(24, VOCAB.pitch_lo, VOCAB.pitch_hi) == 36
        assert fold_octaves(108, VOCAB.pitch_lo, VOCAB.pitch_hi) == 96 - 12
        for pitch in (0, 12, 127, 95, 35):
            folded = fold_octaves(pitch, VOCAB.pitch_lo, VOCAB.pitch_hi)
            assert VOCAB.pitch_lo <= folded <= VOCAB.pitch_hi
            assert folded % 12 == pitch % 12


class TestMakeTrainingWindows:
    def _melody(self, n):
        return Melody(notes=[NoteEvent(60 + (i % 12), 4) for i in range(n)])

    def test_eight_notes_one_example(self):
        assert len(make_training_windows(self._melody(8), 7, VOCAB)) == 1

    def test_windows_are_int16_slot_pairs(self):
        melody = self._melody(12)
        windows = make_training_windows(melody, 7, VOCAB)
        assert windows.dtype == np.int16
        assert windows.shape == (5, 8, 2)
        for k, window in enumerate(windows):
            assert [tuple(pair) for pair in window] == [
                note_indices(note, VOCAB) for note in melody.notes[k : k + 8]
            ]

    def test_ten_notes_three_examples_with_targets(self):
        melody = self._melody(10)
        windows = make_training_windows(melody, 7, VOCAB)
        assert len(windows) == 3
        contexts, yp, yd = stack_examples(windows, VOCAB)
        dense = one_hot(contexts, VOCAB.dim)
        for i in range(3):
            assert dense[i].shape == (7, VOCAB.dim)
            expected_target = note_indices(melody.notes[7 + i], VOCAB)
            assert (yp[i], yd[i]) == expected_target
            for j in range(7):
                assert decode(dense[i, j]) == melody.notes[i + j]

    def test_window_zero_rejected(self):
        with pytest.raises(ValueError, match="window must be >= 1, got 0"):
            make_training_windows(self._melody(8), 0, VOCAB)

    def test_window_boundary_yields_nothing(self):
        windows = make_training_windows(self._melody(7), 7, VOCAB)
        assert windows.shape == (0, 8, 2)

    def test_stack_examples_shapes(self):
        windows = make_training_windows(self._melody(12), 7, VOCAB)
        contexts, yp, yd = stack_examples(windows, VOCAB)
        assert contexts.shape == (5, 7, 2)
        assert one_hot(contexts, VOCAB.dim).shape == (5, 7, VOCAB.dim)
        assert yp.shape == (5,) and yd.shape == (5,)

    def test_stack_empty_rejected(self):
        with pytest.raises(ValueError):
            stack_examples(make_training_windows(self._melody(7), 7, VOCAB), VOCAB)
