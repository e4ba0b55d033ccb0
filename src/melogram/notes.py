"""Core note, key and melody types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass, field

PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")
MODES = ("major", "minor")


def fold_octaves(pitch: int, lo: int, hi: int) -> int:
    """Shift a pitch by whole octaves until it lies in ``lo..hi``.

    Octave shifts keep the pitch class. The range must hold at least 12
    pitches, so some octave of every pitch class lies inside it.
    """
    while pitch < lo:
        pitch += 12
    while pitch > hi:
        pitch -= 12
    return pitch


@dataclass(frozen=True)
class NoteEvent:
    """A single melodic note: MIDI pitch plus an integer duration count.

    The duration unit depends on the processing stage: raw MIDI ticks right
    after melody extraction, sixteenth-note units after quantization.
    """

    pitch: int
    duration: int

    def __post_init__(self) -> None:
        if not 0 <= self.pitch <= 127:
            raise ValueError(f"pitch {self.pitch} outside MIDI range 0-127")
        if self.duration < 1:
            raise ValueError(f"duration must be >= 1, got {self.duration}")


@dataclass(frozen=True)
class Key:
    """A tonal center: tonic pitch class (0 = C) plus major/minor mode."""

    tonic: int
    mode: str

    def __post_init__(self) -> None:
        if not 0 <= self.tonic <= 11:
            raise ValueError(f"tonic must be a pitch class 0-11, got {self.tonic}")
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")

    @property
    def name(self) -> str:
        return f"{PITCH_CLASS_NAMES[self.tonic]} {self.mode}"

    @classmethod
    def parse(cls, text: str) -> "Key":
        """Parse a key spelled like ``D:major``, ``f#:minor`` or ``Bb:major``."""
        try:
            tonic_name, mode = text.split(":")
        except ValueError:
            raise ValueError(f"key must look like 'D:major', got {text!r}") from None
        tonic_name = tonic_name.strip()
        normalized = tonic_name[:1].upper() + tonic_name[1:].lower()
        flats = {"Db": "C#", "Eb": "D#", "Gb": "F#", "Ab": "G#", "Bb": "A#"}
        normalized = flats.get(normalized, normalized)
        if normalized not in PITCH_CLASS_NAMES:
            raise ValueError(f"unknown tonic {tonic_name!r}")
        return cls(PITCH_CLASS_NAMES.index(normalized), mode.strip().lower())


C_MAJOR = Key(0, "major")
A_MINOR = Key(9, "minor")


@dataclass
class Melody:
    """An ordered monophonic note sequence with an optional declared key."""

    notes: list[NoteEvent] = field(default_factory=list)
    source_key: Key | None = None
