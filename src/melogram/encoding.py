"""Note vocabulary and the two-segment one-hot vector representation.

Each note becomes a single binary vector of length P + D: a pitch segment
with one hot bit among P semitone slots, concatenated with a duration
segment with one hot bit among D duration-table slots. Model outputs over
the same layout are normalized per segment before sampling. Training data keeps
each note as its (pitch slot, duration slot) pair and becomes vectors one
mini-batch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .notes import Melody, NoteEvent, fold_octaves

DEFAULT_PITCH_LO = 36
DEFAULT_PITCH_HI = 94
DEFAULT_DURATIONS = tuple(range(1, 29)) + (30, 32)

MIN_PITCH_SPAN = 13  # at least one full octave, keeps interval rules satisfiable


class EncodingError(ValueError):
    """A note or vector does not fit the vocabulary layout."""


@dataclass(frozen=True)
class NoteVocabulary:
    """Pitch range and duration table defining the vector layout.

    Pitches run from ``pitch_lo`` to ``pitch_hi`` inclusive (P slots);
    ``durations`` is a strictly increasing table of sixteenth-note counts
    (D slots). The encoded vector length is P + D.
    """

    pitch_lo: int = DEFAULT_PITCH_LO
    pitch_hi: int = DEFAULT_PITCH_HI
    durations: tuple[int, ...] = DEFAULT_DURATIONS

    def __post_init__(self) -> None:
        if not (0 <= self.pitch_lo <= self.pitch_hi <= 127):
            raise ValueError(
                f"pitch bounds {self.pitch_lo}..{self.pitch_hi} must lie in 0..127"
            )
        if self.pitch_count < MIN_PITCH_SPAN:
            raise ValueError(
                f"pitch range must span at least {MIN_PITCH_SPAN} semitones, "
                f"got {self.pitch_count}"
            )
        if len(self.durations) == 0:
            raise ValueError("duration table must be non-empty")
        if any(d < 1 for d in self.durations):
            raise ValueError("durations must all be >= 1")
        if any(b <= a for a, b in zip(self.durations, self.durations[1:])):
            raise ValueError("duration table must be strictly increasing")
        object.__setattr__(
            self, "_dur_index", {d: i for i, d in enumerate(self.durations)}
        )

    @property
    def pitch_count(self) -> int:
        return self.pitch_hi - self.pitch_lo + 1

    @property
    def duration_count(self) -> int:
        return len(self.durations)

    @property
    def dim(self) -> int:
        return self.pitch_count + self.duration_count

    def pitch_index(self, pitch: int) -> int:
        if not self.pitch_lo <= pitch <= self.pitch_hi:
            raise EncodingError(
                f"pitch {pitch} outside vocabulary range "
                f"{self.pitch_lo}..{self.pitch_hi}"
            )
        return pitch - self.pitch_lo

    def duration_index(self, duration: int) -> int:
        try:
            return self._dur_index[duration]  # type: ignore[attr-defined]
        except KeyError:
            raise EncodingError(
                f"duration {duration} not in vocabulary table {self.durations}"
            ) from None

    def contains(self, note: NoteEvent) -> bool:
        return (
            self.pitch_lo <= note.pitch <= self.pitch_hi
            and note.duration in self._dur_index  # type: ignore[attr-defined]
        )


def default_vocabulary() -> NoteVocabulary:
    return NoteVocabulary()


def note_indices(note: NoteEvent, vocab: NoteVocabulary) -> tuple[int, int]:
    """Return the (pitch slot, duration slot) index pair for a note."""
    return vocab.pitch_index(note.pitch), vocab.duration_index(note.duration)


def encode_note(note: NoteEvent, vocab: NoteVocabulary) -> np.ndarray:
    """Encode a note as a two-segment one-hot vector of length P + D."""
    pi, di = note_indices(note, vocab)
    vec = np.zeros(vocab.dim)
    vec[pi] = 1.0
    vec[vocab.pitch_count + di] = 1.0
    return vec


def decode_note(vec: np.ndarray, vocab: NoteVocabulary) -> NoteEvent:
    """Invert :func:`encode_note`, validating the two-segment invariant."""
    vec = np.asarray(vec)
    if vec.shape != (vocab.dim,):
        raise EncodingError(f"expected vector of length {vocab.dim}, got {vec.shape}")
    p = vocab.pitch_count
    pitch_hot = np.flatnonzero(vec[:p])
    dur_hot = np.flatnonzero(vec[p:])
    if len(pitch_hot) != 1 or vec[pitch_hot[0]] != 1.0:
        raise EncodingError("pitch segment must contain exactly one 1")
    if len(dur_hot) != 1 or vec[p + dur_hot[0]] != 1.0:
        raise EncodingError("duration segment must contain exactly one 1")
    return NoteEvent(
        pitch=vocab.pitch_lo + int(pitch_hot[0]),
        duration=vocab.durations[int(dur_hot[0])],
    )


def split_distribution(
    raw: np.ndarray, vocab: NoteVocabulary
) -> tuple[np.ndarray, np.ndarray]:
    """Softmax-normalize the pitch and duration segments independently."""
    raw = np.asarray(raw, dtype=float)
    if raw.shape != (vocab.dim,):
        raise EncodingError(f"expected vector of length {vocab.dim}, got {raw.shape}")
    return _softmax(raw[: vocab.pitch_count]), _softmax(raw[vocab.pitch_count :])


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - np.max(x))
    return e / e.sum()


def sample_index(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector via the inverse CDF.

    The draw is scaled by the actual total mass so tiny normalization
    residue cannot push the cut point past the last slot. A total mass that
    is not finite and positive (a diverged model gives NaN) raises
    ``ValueError`` instead of yielding a slot.
    """
    cum = np.cumsum(probs)
    total = cum[-1]
    if not 0.0 < total < np.inf:  # also false for NaN
        raise ValueError(f"cannot sample from a distribution with total mass {total}")
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    return min(idx, len(probs) - 1)


def sample_note(pitch_dist: np.ndarray, dur_dist: np.ndarray, vocab: NoteVocabulary,
                rng: np.random.Generator) -> NoteEvent:
    """Draw a note from per-segment distributions: the pitch first, then the duration."""
    pitch = vocab.pitch_lo + sample_index(pitch_dist, rng)
    return NoteEvent(pitch, vocab.durations[sample_index(dur_dist, rng)])


def fold_pitch(pitch: int, vocab: NoteVocabulary) -> int:
    """Shift a pitch by whole octaves until it lands in the vocabulary range.

    Octave shifts preserve the pitch class, which every grammar rule and
    metric depends on. The vocabulary spans at least an octave, so the fold
    always terminates.
    """
    return fold_octaves(pitch, vocab.pitch_lo, vocab.pitch_hi)


def make_training_windows(
    melody: Melody, window: int, vocab: NoteVocabulary
) -> np.ndarray:
    """Slide a next-note prediction window over one melody.

    Returns an int16 array of shape (N, window + 1, 2): row k holds the
    (pitch slot, duration slot) pairs of notes k .. k + window, the context
    then the target. Every note is encoded, so a note outside the vocabulary
    raises ``EncodingError`` even in a melody shorter than ``window + 1``
    notes, which yields no rows. Windows never cross melody boundaries
    because each melody is processed on its own.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    slots = np.array(
        [note_indices(note, vocab) for note in melody.notes], dtype=np.int16
    ).reshape(-1, 2)
    starts = np.arange(len(slots) - window)
    return slots[starts[:, None] + np.arange(window + 1)]


def stack_examples(
    windows: np.ndarray, vocab: NoteVocabulary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split windows into (contexts, pitch targets, duration targets) arrays.

    ``contexts`` is (N, W, 2) int16: the two hot columns of each context
    note's ``encode_note`` vector, its pitch slot and P plus its duration
    slot. The targets are int64 slot indices.
    """
    if not len(windows):
        raise ValueError("no training examples to stack")
    contexts = windows[:, :-1] + np.array([0, vocab.pitch_count], dtype=np.int16)
    pitch_targets = windows[:, -1, 0].astype(np.int64)
    dur_targets = windows[:, -1, 1].astype(np.int64)
    return contexts, pitch_targets, dur_targets
