"""Seeded benchmark inputs: a MIDI directory, the corpus it should ingest to,
and the program config.

Everything here is derived from the workload seed with Python's own
``random`` module and written with the benchmark's own Standard MIDI File
writer, so the inputs do not change when the program under test changes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

DIVISION = 480  # ticks per quarter; a sixteenth is 120 ticks
WINDOW = 7
PITCH_LO, PITCH_HI = 36, 94  # the program's default vocabulary
WALK_LO, WALK_HI = PITCH_LO + 6, PITCH_HI - 6
DIATONIC = frozenset({0, 2, 4, 5, 7, 9, 11})
# Sharps (negative: flats) in the major key signature of each tonic class.
SHARPS_FOR_TONIC = {0: 0, 7: 1, 2: 2, 9: 3, 4: 4, 11: 5, 6: 6, 1: -5, 8: -4, 3: -3, 10: -2, 5: -1}


@dataclass(frozen=True)
class Sizes:
    """How much work one repeat of a workload does."""

    pieces: int  # accepted 4/4 pieces in the MIDI directory
    notes: int  # notes per piece
    format1_every: int  # every n-th piece is format 1 with accompaniment; 0: never
    epochs: int
    phase1_notes: int  # filtered notes per amend stream
    phase2_notes: int  # free notes per generated melody


def walk_piece(rng: random.Random, length: int) -> list[list[int]]:
    """Half-chromatic, mostly stepwise random walk with occasional leaps.

    About half the pitches are diatonic and about one interval in eight is a
    leap over an octave, so every grammar rule rejects a real share of what a
    weakly trained model proposes.
    """
    pitch = (WALK_LO + WALK_HI) // 2
    notes = []
    for _ in range(length):
        if rng.random() < 0.12:
            step = rng.randint(13, 18) * rng.choice((1, -1))
        else:
            step = rng.randint(1, 2) * rng.choice((1, -1))
        pitch = min(max(pitch + step, WALK_LO), WALK_HI)
        want_diatonic = rng.random() < 0.5
        for _ in range(12):
            if (pitch % 12 in DIATONIC) == want_diatonic:
                break
            pitch = min(max(pitch + rng.choice((1, -1)), WALK_LO), WALK_HI)
        notes.append([pitch, rng.randint(1, 6)])
    return notes


def _vlq(value: int) -> bytes:
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track(events: list[tuple[int, bytes]]) -> bytes:
    """Encode (absolute tick, message) pairs, already in tick order, as MTrk."""
    body = bytearray()
    tick = 0
    for at, message in events:
        body += _vlq(at - tick) + message
        tick = at
    body += _vlq(0) + b"\xff\x2f\x00"
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def smf(notes: list[list[int]], offset: int, minor: bool, meter: int, accompaniment: bool) -> bytes:
    """A piece in the key ``offset`` semitones above C major (or A minor).

    Format 0 holds the melody alone. Format 1 adds a second track of long
    bass notes that always sound below the melody and end with it, so
    highest-note extraction has to drop them.
    """
    sharps = SHARPS_FOR_TONIC[offset % 12]
    header_events = [
        (0, b"\xff\x51\x03" + (500_000).to_bytes(3, "big")),
        (0, bytes([0xFF, 0x58, 0x04, meter, 2, 24, 8])),
        (0, bytes([0xFF, 0x59, 0x02, sharps & 0xFF, 1 if minor else 0])),
    ]
    melody = []
    tick = 0
    for pitch, duration in notes:
        end = tick + duration * DIVISION // 4
        melody += [(tick, bytes([0x90, pitch + offset, 80])), (end, bytes([0x80, pitch + offset, 0]))]
        tick = end
    if not accompaniment:
        tracks = [_track(header_events + melody)]
    else:
        bass = []
        low = min(p for p, _ in notes) + offset - 12
        for start in range(0, tick, DIVISION * 2):
            pitch = low - (start // (DIVISION * 2)) % 5
            bass += [(start, bytes([0x91, pitch, 60])),
                     (min(start + DIVISION * 2, tick), bytes([0x81, pitch, 0]))]
        tracks = [_track(header_events + melody), _track(bass)]
    fmt = 1 if accompaniment else 0
    header = b"MThd" + (6).to_bytes(4, "big") + fmt.to_bytes(2, "big")
    header += len(tracks).to_bytes(2, "big") + DIVISION.to_bytes(2, "big")
    return header + b"".join(tracks)


def write_midi_dir(midi_dir: Path, sizes: Sizes, seed: int) -> dict:
    """Write the MIDI directory; return the corpus ``melogram ingest`` must make.

    The accepted pieces are written in keys from five semitones below to five
    above C (major) or A (minor), which ingest transposes back exactly. One
    extra 3/4 piece is there to be rejected by the 4/4 rule.
    """
    rng = random.Random(seed)
    midi_dir.mkdir(parents=True)
    pieces = []
    for index in range(sizes.pieces):
        notes = walk_piece(rng, sizes.notes)
        offset = rng.randint(-5, 5)
        minor = rng.random() < 0.3
        accompaniment = sizes.format1_every > 0 and index % sizes.format1_every == 0
        data = smf(notes, offset, minor, meter=4, accompaniment=accompaniment)
        (midi_dir / f"piece{index:03d}.mid").write_bytes(data)
        pieces.append({"notes": notes, "source_key": {"tonic": 9 if minor else 0,
                                                       "mode": "minor" if minor else "major"}})
    waltz = smf(walk_piece(rng, sizes.notes), 0, False, meter=3, accompaniment=False)
    (midi_dir / "waltz.mid").write_bytes(waltz)
    return {"pieces": pieces}


def config(sizes: Sizes, seed: int) -> dict:
    """Program config: default model, fixed epoch count, no early stop.

    ``plateau_patience`` equals ``epochs``, so the plateau rule can never end
    training early and every commit trains the same number of batches.
    """
    return {
        "training": {"epochs": sizes.epochs, "plateau_patience": sizes.epochs},
        "generation": {"phase1_notes": sizes.phase1_notes, "phase2_notes": sizes.phase2_notes},
        "seeds": {"init": 4 * seed + 1, "shuffle": 4 * seed + 2,
                  "phase1": 4 * seed + 3, "public": 4 * seed + 4},
    }


def corpus_windows(corpus: dict) -> int:
    return sum(max(0, len(piece["notes"]) - WINDOW) for piece in corpus["pieces"])


def prepare(inputs_dir: Path, sizes: Sizes, seed: int) -> dict:
    """Write every input of one session; return the expected corpus."""
    expected = write_midi_dir(inputs_dir / "midi", sizes, seed)
    (inputs_dir / "config.json").write_text(json.dumps(config(sizes, seed), indent=2))
    return expected
