"""Tests for the core note and key types."""

import pytest

from melogram.midi import estimate_key
from melogram.notes import Key, Melody, NoteEvent


class TestNoteEvent:
    def test_valid_note(self):
        note = NoteEvent(60, 4)
        assert (note.pitch, note.duration) == (60, 4)

    def test_pitch_out_of_midi_range(self):
        with pytest.raises(ValueError, match="pitch"):
            NoteEvent(128, 4)
        with pytest.raises(ValueError, match="pitch"):
            NoteEvent(-1, 4)

    def test_non_positive_duration(self):
        with pytest.raises(ValueError, match="duration"):
            NoteEvent(60, 0)


class TestKey:
    def test_parse_major_minor(self):
        assert Key.parse("D:major") == Key(2, "major")
        assert Key.parse("f#:minor") == Key(6, "minor")
        assert Key.parse("Bb:major") == Key(10, "major")

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            Key.parse("D")
        with pytest.raises(ValueError):
            Key.parse("H:major")
        with pytest.raises(ValueError):
            Key.parse("D:dorian")

    def test_tonic_outside_the_pitch_classes_rejected(self):
        with pytest.raises(ValueError, match="tonic must be a pitch class 0-11, got 12"):
            Key(12, "major")

    def test_name(self):
        assert Key(9, "minor").name == "A minor"


class TestEstimateKey:
    def test_d_major_scale(self):
        notes = [NoteEvent(p, 4) for p in (62, 64, 66, 67, 69, 71, 73, 74, 69, 62, 66, 67)]
        key = estimate_key(Melody(notes=notes))
        assert key == Key(2, "major")

    def test_a_minor_profile(self):
        pitches = (69, 71, 72, 74, 76, 77, 79, 81, 76, 72, 69, 74, 69, 76, 69)
        key = estimate_key(Melody(notes=[NoteEvent(p, 4) for p in pitches]))
        assert key.tonic == 9

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_key(Melody(notes=[]))

    def test_flat_histogram_ties_to_c_major(self):
        # Every class weighs the same, so every profile correlates 0 and the
        # tie goes to the lowest tonic, major first.
        notes = [NoteEvent(60 + k, 4) for k in range(12)]
        assert estimate_key(Melody(notes=notes)) == Key(0, "major")
