"""Tests for SMF parsing, melody extraction, transposition and quantization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melogram.encoding import default_vocabulary
from melogram.midi import (
    EmptyMelodyError,
    KEY_SIGNATURE,
    MidiParseError,
    NOTE_OFF,
    NOTE_ON,
    RawTrackEvent,
    TIME_SIGNATURE,
    extract_melody,
    first_key_signature,
    first_time_signature,
    monophonic_spans,
    parse_midi,
    quantize_durations,
    transpose_to_c,
    transposition_shift,
    write_midi,
)
from melogram.notes import Key, Melody, NoteEvent

from conftest import damaged

VOCAB = default_vocabulary()


# --- hand-rolled SMF bytes, independent of write_midi -----------------------

def vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def smf(events: list[tuple[int, bytes]], division: int = 480,
        header_length: int = 6, fmt: int = 0, end_of_track: bool = True) -> bytes:
    track = b"".join(vlq(delta) + payload for delta, payload in events)
    if end_of_track:
        track += vlq(0) + b"\xff\x2f\x00"
    return (
        b"MThd" + header_length.to_bytes(4, "big")
        + fmt.to_bytes(2, "big") + (1).to_bytes(2, "big") + division.to_bytes(2, "big")
        + b"MTrk" + len(track).to_bytes(4, "big") + track
    )


def on(pitch: int, velocity: int = 64) -> bytes:
    return bytes([0x90, pitch, velocity])


def off(pitch: int) -> bytes:
    return bytes([0x80, pitch, 0])


def note(tick: int, kind: str, pitch: int) -> RawTrackEvent:
    return RawTrackEvent(tick=tick, kind=kind, pitch=pitch)


class TestParseMidi:
    def test_minimal_file_one_quarter_note(self):
        data = smf([(0, on(60)), (480, off(60))])
        parsed = parse_midi(data)
        assert parsed.division == 480
        melody = extract_melody(parsed.events)
        melody = quantize_durations(melody, parsed.division, VOCAB)
        assert melody.notes == [NoteEvent(60, 4)]

    def test_velocity_zero_note_on_is_note_off(self):
        data = smf([(0, on(60)), (480, bytes([0x90, 60, 0]))])
        events = parse_midi(data).events
        kinds = [(ev.kind, ev.pitch) for ev in events if ev.kind in (NOTE_ON, NOTE_OFF)]
        assert kinds == [(NOTE_ON, 60), (NOTE_OFF, 60)]

    def test_bad_header_length_rejected(self):
        data = smf([(0, on(60)), (480, off(60))], header_length=7)
        with pytest.raises(MidiParseError, match="length"):
            parse_midi(data)

    def test_missing_mthd_rejected(self):
        with pytest.raises(MidiParseError, match="MThd"):
            parse_midi(b"RIFF" + bytes(20))

    def test_smpte_division_rejected(self):
        data = smf([(0, on(60)), (480, off(60))], division=0x8000 | 0x4000)
        with pytest.raises(MidiParseError, match="SMPTE"):
            parse_midi(data)

    def test_truncated_chunk_names_offset(self):
        data = smf([(0, on(60)), (480, off(60))])[:-4]
        with pytest.raises(MidiParseError, match="byte offset"):
            parse_midi(data)

    def test_data_byte_with_high_bit_rejected(self):
        data = smf([(0, on(60)), (240, off(60)), (0, on(0xD7)), (240, off(0xD7))])
        with pytest.raises(MidiParseError, match="data byte.*byte offset"):
            parse_midi(data)

    def test_running_status(self):
        # Second note-on omits the status byte.
        events = [(0, on(60)), (120, bytes([62, 64])), (120, off(60)), (0, off(62))]
        parsed = parse_midi(smf(events))
        ons = [ev.pitch for ev in parsed.events if ev.kind == NOTE_ON]
        assert ons == [60, 62]

    def test_absolute_ticks_accumulate(self):
        parsed = parse_midi(smf([(10, on(60)), (20, off(60)), (30, on(62)), (5, off(62))]))
        ticks = [ev.tick for ev in parsed.events]
        assert ticks == [10, 30, 60, 65]

    def test_meta_events_decoded(self):
        events = [
            (0, bytes([0xFF, 0x58, 0x04, 4, 2, 24, 8])),
            (0, bytes([0xFF, 0x59, 0x02, 2, 0])),
            (0, bytes([0xFF, 0x51, 0x03]) + (500000).to_bytes(3, "big")),
            (0, on(60)),
            (480, off(60)),
        ]
        parsed = parse_midi(smf(events))
        assert first_time_signature(parsed.events) == (4, 4)
        assert first_key_signature(parsed.events) == Key(2, "major")  # two sharps
        # The tempo event is read past, not kept.
        assert [ev.kind for ev in parsed.events] == [
            TIME_SIGNATURE, KEY_SIGNATURE, NOTE_ON, NOTE_OFF,
        ]

    def test_tracks_merge_in_tick_order_stable_across_tracks(self):
        def track(events):
            body = b"".join(vlq(delta) + payload for delta, payload in events)
            body += vlq(0) + b"\xff\x2f\x00"
            return b"MTrk" + len(body).to_bytes(4, "big") + body

        data = (
            b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big")
            + (2).to_bytes(2, "big") + (480).to_bytes(2, "big")
            + track([(0, on(72)), (240, off(72)), (0, on(74)), (240, off(74))])
            + track([(0, on(48)), (240, off(48)), (240, on(50)), (240, off(50))])
        )
        events = [(ev.tick, ev.kind, ev.pitch) for ev in parse_midi(data).events]
        assert events == [
            (0, NOTE_ON, 72), (0, NOTE_ON, 48),
            (240, NOTE_OFF, 72), (240, NOTE_ON, 74), (240, NOTE_OFF, 48),
            (480, NOTE_OFF, 74), (480, NOTE_ON, 50),
            (720, NOTE_OFF, 50),
        ]

    def test_key_signature_relative_minor(self):
        events = [(0, bytes([0xFF, 0x59, 0x02, 0, 1])), (0, on(60)), (480, off(60))]
        decoded = parse_midi(smf(events)).events
        assert first_key_signature(decoded) == Key(9, "minor")  # no accidentals, minor

    def test_flat_key_signature(self):
        events = [(0, bytes([0xFF, 0x59, 0x02, 0xFE, 0])), (0, on(60)), (480, off(60))]
        decoded = parse_midi(smf(events)).events
        assert first_key_signature(decoded) == Key(10, "major")  # two flats = Bb


class TestExtractMelody:
    def test_simultaneous_onsets_keep_highest(self):
        events = [
            note(0, NOTE_ON, 60), note(0, NOTE_ON, 76),
            note(480, NOTE_OFF, 60), note(480, NOTE_OFF, 76),
        ]
        melody = extract_melody(events)
        assert [(n.pitch, n.duration) for n in melody.notes] == [(76, 480)]

    def test_monophonic_stream_identity(self):
        events = [
            note(0, NOTE_ON, 60), note(480, NOTE_OFF, 60),
            note(480, NOTE_ON, 64), note(720, NOTE_OFF, 64),
        ]
        melody = extract_melody(events)
        assert [(n.pitch, n.duration) for n in melody.notes] == [(60, 480), (64, 240)]

    def test_higher_note_truncates_lower(self):
        # C4 held a whole note, E5 entering halfway: C4 becomes a half note.
        events = [
            note(0, NOTE_ON, 60), note(960, NOTE_ON, 76),
            note(1920, NOTE_OFF, 60), note(1920, NOTE_OFF, 76),
        ]
        melody = extract_melody(events)
        assert [(n.pitch, n.duration) for n in melody.notes] == [(60, 960), (76, 960)]

    def test_lower_note_entering_under_higher_is_dropped(self):
        events = [
            note(0, NOTE_ON, 76), note(240, NOTE_ON, 60),
            note(480, NOTE_OFF, 60), note(960, NOTE_OFF, 76),
        ]
        melody = extract_melody(events)
        assert [(n.pitch, n.duration) for n in melody.notes] == [(76, 960)]

    def test_no_notes_is_error(self):
        with pytest.raises(EmptyMelodyError):
            extract_melody([RawTrackEvent(0, KEY_SIGNATURE, payload=b"\x00\x00")])

    def test_output_never_overlaps(self):
        rng = np.random.default_rng(11)
        spans = []
        for _ in range(300):
            onset = int(rng.integers(0, 2000))
            length = int(rng.integers(1, 500))
            pitch = int(rng.integers(40, 90))
            spans.append((onset, onset + length, pitch))
        kept = monophonic_spans(spans)
        assert kept, "dense random input must keep some notes"
        for onset, offset, _ in kept:
            assert offset > onset
        for (_, a_off, _), (b_on, _, _) in zip(kept, kept[1:]):
            assert a_off <= b_on

    def test_equal_onset_keeps_only_highest(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            onset = int(rng.integers(0, 100))
            length = int(rng.integers(1, 50))
            pitches = rng.choice(np.arange(40, 90), size=3, replace=False)
            spans = [(onset, onset + length, int(p)) for p in pitches]
            kept = monophonic_spans(spans)
            assert kept == [(onset, onset + length, int(pitches.max()))]


class TestTransposeToC:
    def test_d_major_down_two(self):
        melody = Melody(notes=[NoteEvent(62, 4)])
        out = transpose_to_c(melody, Key.parse("D:major"))
        assert out.notes == [NoteEvent(60, 4)]

    def test_c_major_identity(self):
        melody = Melody(notes=[NoteEvent(60, 4), NoteEvent(67, 2)])
        out = transpose_to_c(melody, Key(0, "major"))
        assert out.notes == melody.notes

    def test_b_major_up_one(self):
        # +1 lies in (-6, +6], so it beats -11.
        melody = Melody(notes=[NoteEvent(71, 4)])
        out = transpose_to_c(melody, Key(11, "major"))
        assert out.notes == [NoteEvent(72, 4)]

    def test_a_minor_identity(self):
        melody = Melody(notes=[NoteEvent(69, 4)])
        out = transpose_to_c(melody, Key(9, "minor"))
        assert out.notes == [NoteEvent(69, 4)]

    def test_e_minor_down(self):
        # E minor -> A minor is a shift of +5 (in (-6, +6]).
        assert transposition_shift(Key(4, "minor")) == 5

    def test_shift_always_in_half_octave_window(self):
        for tonic in range(12):
            for mode in ("major", "minor"):
                shift = transposition_shift(Key(tonic, mode))
                assert -6 < shift <= 6

    def test_out_of_range_clamped_by_octaves(self, caplog):
        melody = Melody(notes=[NoteEvent(124, 4)])
        with caplog.at_level("WARNING"):
            out = transpose_to_c(melody, Key(7, "major"))  # shift +5 -> 129
        assert out.notes == [NoteEvent(117, 4)]
        assert "clamped" in caplog.text

    def test_preserves_durations_and_intervals(self):
        rng = np.random.default_rng(3)
        notes = [NoteEvent(int(p), int(d)) for p, d in
                 zip(rng.integers(40, 90, 30), rng.integers(1, 16, 30))]
        melody = Melody(notes=notes)
        out = transpose_to_c(melody, Key(5, "major"))
        assert [n.duration for n in out.notes] == [n.duration for n in notes]
        orig_iv = [b.pitch - a.pitch for a, b in zip(notes, notes[1:])]
        new_iv = [b.pitch - a.pitch for a, b in zip(out.notes, out.notes[1:])]
        assert new_iv == orig_iv


class TestQuantizeDurations:
    def test_exact_grid_hit(self):
        melody = Melody(notes=[NoteEvent(60, 480)])
        out = quantize_durations(melody, 480, VOCAB)
        assert out.notes == [NoteEvent(60, 4)]

    def test_nearest_neighbor(self):
        # 350 ticks at division 480 = 2.92 sixteenths -> 3.
        melody = Melody(notes=[NoteEvent(60, 350)])
        out = quantize_durations(melody, 480, VOCAB)
        assert out.notes == [NoteEvent(60, 3)]

    def test_overlong_duration_clamps_to_breve(self):
        # 40 sixteenths: |40-32| = 8 beats |40-30| = 10 and |40-28| = 12.
        melody = Melody(notes=[NoteEvent(60, 40 * 120)])
        out = quantize_durations(melody, 480, VOCAB)
        assert out.notes == [NoteEvent(60, 32)]

    def test_tie_snaps_to_shorter(self):
        # 28 -> 30 has midpoint 29: exactly halfway snaps to 28.
        melody = Melody(notes=[NoteEvent(60, 29 * 120)])
        out = quantize_durations(melody, 480, VOCAB)
        assert out.notes == [NoteEvent(60, 28)]

    def test_output_always_in_table(self):
        rng = np.random.default_rng(8)
        melody = Melody(notes=[NoteEvent(60, int(t)) for t in rng.integers(1, 5000, 200)])
        out = quantize_durations(melody, 480, VOCAB)
        assert all(n.duration in VOCAB.durations for n in out.notes)


class TestWriteMidi:
    def test_quarter_a5_round_trip(self):
        data = write_midi(Melody(notes=[NoteEvent(81, 4)]))
        parsed = parse_midi(data)
        melody = quantize_durations(
            extract_melody(parsed.events), parsed.division, VOCAB
        )
        assert melody.notes == [NoteEvent(81, 4)]

    def test_empty_melody_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            write_midi(Melody(notes=[]))

    def test_seed_phrase_round_trip_and_size(self):
        notes = [NoteEvent(60 + i, 4) for i in range(7)]
        data = write_midi(Melody(notes=notes))
        assert len(data) < 200
        parsed = parse_midi(data)
        melody = quantize_durations(
            extract_melody(parsed.events), parsed.division, VOCAB
        )
        assert melody.notes == notes

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.tuples(
                st.integers(VOCAB.pitch_lo, VOCAB.pitch_hi),
                st.sampled_from(VOCAB.durations),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_round_trip_is_identity(self, data):
        notes = [NoteEvent(p, d) for p, d in data]
        raw = write_midi(Melody(notes=notes))
        parsed = parse_midi(raw)
        melody = quantize_durations(
            extract_melody(parsed.events), parsed.division, VOCAB
        )
        assert melody.notes == notes


class TestHostileBytes:
    VALID = (
        write_midi(Melody(notes=[NoteEvent(60 + i % 12, 1 + i % 8) for i in range(12)])),
        smf([(0, bytes([0xFF, 0x59, 0x02, 0x02, 0x00])), (0, on(62)), (240, off(62)),
             (0, on(66)), (120, bytes([66, 0])), (0, bytes([0xC0, 5]))], fmt=1),
    )

    @settings(max_examples=300, deadline=None)
    @given(data=st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(lambda tail: b"MThd" + (6).to_bytes(4, "big") + tail),
        damaged(VALID),
    ))
    def test_only_parse_error_escapes(self, data):
        try:
            parse_midi(data)
        except MidiParseError:
            pass
