"""Standard MIDI File reading and writing for monophonic melody work.

Reads SMF format 0 and 1 (big-endian chunk lengths, variable-length delta
times, running status), keeping the note, time-signature and key-signature
events, and writes format 0. Melody extraction keeps only the
highest sounding note at any instant, then pitches are transposed to
C major / A minor and durations snapped onto the vocabulary grid.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from dataclasses import dataclass

from .encoding import NoteVocabulary
from .notes import A_MINOR, C_MAJOR, Key, Melody, NoteEvent, fold_octaves

log = logging.getLogger(__name__)

NOTE_ON = "note_on"
NOTE_OFF = "note_off"
TIME_SIGNATURE = "time_signature"
KEY_SIGNATURE = "key_signature"

DIVISION = 480  # ticks per quarter note of every written file
TEMPO_US = 500_000  # 120 BPM; tempo never affects the metric encoding

_META_KINDS = {0x58: TIME_SIGNATURE, 0x59: KEY_SIGNATURE}  # other meta events are skipped
_CHANNEL_DATA_BYTES = {0x80: 2, 0x90: 2, 0xA0: 2, 0xB0: 2, 0xC0: 1, 0xD0: 1, 0xE0: 2}


class MidiParseError(ValueError):
    """Malformed SMF data; carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EmptyMelodyError(ValueError):
    """No note events to build a melody from."""


@dataclass(frozen=True)
class RawTrackEvent:
    """One decoded track event at an absolute tick."""

    tick: int
    kind: str
    pitch: int = 0
    payload: bytes = b""


@dataclass(frozen=True)
class ParsedMidi:
    """Ticks per quarter note, and every track's events in tick order (stable across tracks)."""

    division: int
    events: tuple[RawTrackEvent, ...]


class _Reader:
    """Byte cursor with bounds-checked big-endian reads."""

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def remaining(self) -> int:
        return self.end - self.pos

    def read_bytes(self, n: int) -> bytes:
        if self.remaining() < n:
            raise MidiParseError(
                f"truncated chunk: wanted {n} bytes, {self.remaining()} left", self.pos
            )
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def read_int(self, n: int) -> int:
        """An unsigned big-endian integer of ``n`` bytes."""
        return int.from_bytes(self.read_bytes(n), "big")

    def read_vlq(self) -> int:
        value = 0
        for _ in range(4):  # VLQ is at most 4 bytes
            byte = self.read_int(1)
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError("variable-length quantity longer than 4 bytes", self.pos)


def parse_midi(data: bytes) -> ParsedMidi:
    """Decode SMF bytes into the events ingest reads, at absolute ticks."""
    reader = _Reader(data)
    if reader.remaining() < 4 or reader.read_bytes(4) != b"MThd":
        raise MidiParseError("missing MThd header chunk", 0)
    header_len = reader.read_int(4)
    if header_len != 6:
        raise MidiParseError(f"MThd length must be 6, got {header_len}", 4)
    fmt = reader.read_int(2)
    if fmt not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {fmt}", 8)
    ntrks = reader.read_int(2)
    division = reader.read_int(2)
    if division & 0x8000:
        raise MidiParseError("SMPTE divisions are not supported", 12)
    if division == 0:
        raise MidiParseError("division must be positive", 12)

    events: list[RawTrackEvent] = []
    found = 0
    while found < ntrks:
        if reader.remaining() < 8:
            raise MidiParseError(f"expected {ntrks} tracks, found {found}", reader.pos)
        chunk_id = reader.read_bytes(4)
        chunk_len = reader.read_int(4)
        if reader.remaining() < chunk_len:
            raise MidiParseError(
                f"chunk length {chunk_len} exceeds remaining data", reader.pos
            )
        if chunk_id != b"MTrk":
            reader.pos += chunk_len  # unknown chunks are skipped, per the SMF spec
            continue
        events += _parse_track(_Reader(reader.data, reader.pos, reader.pos + chunk_len))
        found += 1
        reader.pos += chunk_len
    events.sort(key=lambda ev: ev.tick)  # stable: tracks stay in file order at one tick
    return ParsedMidi(division=division, events=tuple(events))


def _parse_track(reader: _Reader) -> list[RawTrackEvent]:
    events: list[RawTrackEvent] = []
    tick = 0
    running_status: int | None = None
    while reader.remaining() > 0:
        tick += reader.read_vlq()
        status = reader.read_int(1)
        if status < 0x80:
            if running_status is None:
                raise MidiParseError("data byte with no running status", reader.pos - 1)
            reader.pos -= 1
            status = running_status
        if status == 0xFF:
            running_status = None
            meta_type = reader.read_int(1)
            payload = reader.read_bytes(reader.read_vlq())
            if meta_type == 0x2F:  # end of track
                break
            if meta_type in _META_KINDS:
                events.append(RawTrackEvent(tick, _META_KINDS[meta_type], payload=payload))
        elif status in (0xF0, 0xF7):  # sysex: skipped, cancels running status
            running_status = None
            reader.read_bytes(reader.read_vlq())
        elif status >= 0xF0:
            raise MidiParseError(f"unexpected status byte 0x{status:02X}", reader.pos - 1)
        else:
            running_status = status
            data = reader.read_bytes(_CHANNEL_DATA_BYTES[status & 0xF0])
            if max(data) >= 0x80:
                raise MidiParseError("channel data byte >= 0x80", reader.pos - len(data))
            hi = status & 0xF0
            if hi == 0x90 and data[1] > 0:
                events.append(RawTrackEvent(tick, NOTE_ON, data[0]))
            elif hi == 0x80 or hi == 0x90:  # note-on with velocity 0 is a note-off
                events.append(RawTrackEvent(tick, NOTE_OFF, data[0]))
    return events


def first_time_signature(events: Sequence[RawTrackEvent]) -> tuple[int, int] | None:
    """First declared time signature as (numerator, denominator), if any."""
    for ev in events:
        if ev.kind == TIME_SIGNATURE and len(ev.payload) >= 2:
            return ev.payload[0], 2 ** ev.payload[1]
    return None


def first_key_signature(events: Sequence[RawTrackEvent]) -> Key | None:
    """First declared key signature decoded to tonic pitch class + mode."""
    for ev in events:
        if ev.kind == KEY_SIGNATURE and len(ev.payload) >= 2:
            sharps = int.from_bytes(ev.payload[:1], "big", signed=True)
            minor = ev.payload[1] == 1
            # Each sharp moves the tonic up a fifth; minor sits a minor third
            # below its relative major.
            tonic = (sharps * 7 + (9 if minor else 0)) % 12
            return Key(tonic, "minor" if minor else "major")
    return None


def extract_melody(events: Sequence[RawTrackEvent]) -> Melody:
    """Reduce note events to a monophonic melody, keeping the highest note.

    A note starting while an equal-or-higher note sounds is dropped; a
    surviving note is truncated at the onset of a higher note that enters
    during it. Durations stay in MIDI ticks until quantization.
    """
    spans = _note_spans(events)
    if not spans:
        raise EmptyMelodyError("no note events found")
    notes = [
        NoteEvent(pitch=pitch, duration=offset - onset)
        for onset, offset, pitch in monophonic_spans(spans)
    ]
    if not notes:
        raise EmptyMelodyError("all note events had zero length")
    return Melody(notes=notes, source_key=first_key_signature(events))


def monophonic_spans(spans: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Reduce (onset, offset, pitch) spans so at most one sounds at a time.

    Spans are taken in onset order, highest pitch first at equal onsets.
    Since every kept span ends no later than the next kept onset, a new span
    can only collide with the most recent one.
    """
    surviving: list[list[int]] = []  # [onset, offset, pitch]
    for onset, offset, pitch in sorted(spans, key=lambda s: (s[0], -s[2])):
        if surviving and onset < surviving[-1][1]:
            last = surviving[-1]
            if pitch > last[2]:
                last[1] = onset  # truncate the lower note at the higher onset
                if last[1] <= last[0]:
                    surviving.pop()
                surviving.append([onset, offset, pitch])
            # else: a lower or equal note under a sounding note is dropped
        else:
            surviving.append([onset, offset, pitch])
    return [(on, off, pitch) for on, off, pitch in surviving if off > on]


def _note_spans(events: Sequence[RawTrackEvent]) -> list[tuple[int, int, int]]:
    """Pair note-ons with note-offs (FIFO per pitch) into (on, off, pitch)."""
    open_notes: dict[int, list[int]] = {}
    spans: list[tuple[int, int, int]] = []
    for ev in events:
        if ev.kind == NOTE_ON:
            open_notes.setdefault(ev.pitch, []).append(ev.tick)
        elif ev.kind == NOTE_OFF:
            onsets = open_notes.get(ev.pitch)
            if onsets:
                spans.append((onsets.pop(0), ev.tick, ev.pitch))
    dangling = sum(len(v) for v in open_notes.values())
    if dangling:
        log.warning("dropping %d note-on events without matching note-off", dangling)
    return spans


def transposition_shift(key: Key) -> int:
    """Semitone shift moving the tonic to C (major) or A (minor).

    The shift is folded into (-6, +6] to minimize register change.
    """
    target = 0 if key.mode == "major" else 9
    raw = (target - key.tonic) % 12
    return raw - 12 if raw > 6 else raw


def transpose_to_c(melody: Melody, key: Key) -> Melody:
    """Shift every pitch so the piece sits in C major / A minor.

    Pitches pushed outside the MIDI range are pulled back by whole octaves
    with a warning, preserving their pitch class.
    """
    shift = transposition_shift(key)
    notes = []
    for note in melody.notes:
        pitch = note.pitch + shift
        if not 0 <= pitch <= 127:
            clamped = fold_octaves(pitch, 0, 127)
            log.warning("pitch %d out of MIDI range after transposition, clamped to %d",
                        pitch, clamped)
            pitch = clamped
        notes.append(NoteEvent(pitch=pitch, duration=note.duration))
    return Melody(notes=notes, source_key=C_MAJOR if key.mode == "major" else A_MINOR)


def quantize_durations(melody: Melody, division: int, vocab: NoteVocabulary) -> Melody:
    """Snap tick durations onto the vocabulary's sixteenth-note table.

    Each duration becomes ticks * 4 / division sixteenths, then snaps to the
    nearest table entry; exact ties snap to the shorter entry.
    """
    notes = []
    for note in melody.notes:
        sixteenths = note.duration * 4.0 / division
        # min keeps the first of equal errors, so a tie snaps to the shorter entry.
        best = min(vocab.durations, key=lambda entry: abs(sixteenths - entry))
        notes.append(NoteEvent(pitch=note.pitch, duration=best))
    return Melody(notes=notes, source_key=melody.source_key)


# Krumhansl-Kessler key profiles, used only by the optional key estimator.
_MAJOR_PROFILE = (6.35, 2.23, 3.48, 2.33, 4.38, 4.09, 2.52, 5.19, 2.39, 3.66, 2.29, 2.88)
_MINOR_PROFILE = (6.33, 2.68, 3.52, 5.38, 2.60, 3.53, 2.54, 4.75, 3.98, 2.69, 3.34, 3.17)


def estimate_key(melody: Melody) -> Key:
    """Guess the key from a duration-weighted pitch-class histogram.

    Correlates the histogram against all 24 rotated major/minor profiles and
    picks the best match (ties resolve to the lowest tonic, major first).
    """
    if not melody.notes:
        raise EmptyMelodyError("cannot estimate the key of an empty melody")
    histogram = [0.0] * 12
    for note in melody.notes:
        histogram[note.pitch % 12] += note.duration

    best: tuple[float, int, int] | None = None  # (-corr, tonic, minor?)
    for mode_idx, profile in enumerate((_MAJOR_PROFILE, _MINOR_PROFILE)):
        for tonic in range(12):
            rotated = [histogram[(tonic + i) % 12] for i in range(12)]
            score = _pearson(rotated, profile)
            candidate = (-score, tonic, mode_idx)
            if best is None or candidate < best:
                best = candidate
    assert best is not None
    return Key(best[1], "minor" if best[2] else "major")


def _pearson(xs, ys) -> float:
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / (vx * vy) ** 0.5


def _vlq(value: int) -> bytes:
    if not 0 <= value < 1 << 28:  # four 7-bit bytes, the most a reader accepts
        raise ValueError(f"delta time {value} does not fit a 4-byte variable-length quantity")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def write_midi(melody: Melody) -> bytes:
    """Serialize a quantized melody as a format-0 SMF, notes back-to-back.

    Durations are sixteenth-note units, written at ``DIVISION`` ticks per
    quarter note and ``TEMPO_US`` microseconds per quarter note. Re-parsing,
    extracting and quantizing the output reproduces the melody exactly. An
    empty melody, or a note too long for a 4-byte delta time, raises
    ``ValueError``.
    """
    if not melody.notes:
        raise ValueError("cannot write an empty melody")

    track = bytearray()
    track += _vlq(0) + bytes([0xFF, 0x51, 0x03]) + TEMPO_US.to_bytes(3, "big")
    track += _vlq(0) + bytes([0xFF, 0x58, 0x04, 4, 2, 24, 8])  # 4/4
    key = melody.source_key or C_MAJOR
    # The inverse of first_key_signature: the relative major's tonic, a fifth per sharp.
    minor = key.mode == "minor"
    sharps = (key.tonic - 9 * minor) * 7 % 12
    sharps -= 12 if sharps > 6 else 0
    track += _vlq(0) + bytes([0xFF, 0x59, 0x02, sharps & 0xFF, minor])
    for note in melody.notes:
        track += _vlq(0) + bytes([0x90, note.pitch, 64])
        track += _vlq(note.duration * DIVISION // 4) + bytes([0x80, note.pitch, 0])
    track += _vlq(0) + bytes([0xFF, 0x2F, 0x00])

    header = b"MThd" + (6).to_bytes(4, "big")
    header += (0).to_bytes(2, "big") + (1).to_bytes(2, "big") + DIVISION.to_bytes(2, "big")
    return header + b"MTrk" + len(track).to_bytes(4, "big") + bytes(track)

