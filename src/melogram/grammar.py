"""Music-theory note filters and the constrained resampling step.

Three rules act on candidate notes during filtered generation:

* DIA - the pitch class must lie in the C major diatonic scale.
* SPI - the interval to the previous note must not exceed an octave.
* TRI - the last up-to-three sounding pitch classes must fit inside some
  major, minor, augmented or diminished triad. Fitting means subset of the
  triad's pitch-class set, so repeated pitches and two-note fragments of a
  chord pass; demanding exactly three distinct classes would reject the
  repeated notes every real melody contains.

All three rules constrain pitch only; durations pass untouched.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .encoding import NoteVocabulary, cumulative_table, draw_index, sample_index
from .notes import NoteEvent

DIATONIC_CLASSES = frozenset({0, 2, 4, 5, 7, 9, 11})  # C D E F G A B
OCTAVE_SEMITONES = 12

_QUALITY_INTERVALS = {
    "major": (0, 4, 7),
    "minor": (0, 3, 7),
    "augmented": (0, 4, 8),
    "diminished": (0, 3, 6),
}
TRIAD_QUALITIES = tuple(_QUALITY_INTERVALS)


class Rule(enum.Enum):
    """One grammar filter, named as on the command line."""

    DIA = "dia"
    SPI = "spi"
    TRI = "tri"


def parse_rules(text: str) -> frozenset[Rule]:
    """Parse a comma-separated rule list such as ``dia,tri``."""
    names = [part.strip().lower() for part in text.split(",") if part.strip()]
    if not names:
        raise ValueError("rule set must not be empty")
    try:
        return frozenset(Rule(name) for name in names)
    except ValueError:
        valid = ", ".join(r.value for r in Rule)
        raise ValueError(f"unknown rule in {text!r}; valid rules: {valid}") from None


# Each triad's pitch-class set and its quality (no set has two qualities),
# and every nonempty subset of a triad's set.
TRIAD_SETS = {
    frozenset((root + step) % 12 for step in intervals): quality
    for quality, intervals in _QUALITY_INTERVALS.items()
    for root in range(12)
}
_TRIAD_SUBSETS = frozenset(
    frozenset(combo)
    for pcs in TRIAD_SETS for size in (1, 2, 3) for combo in combinations(pcs, size)
)


def pitch_class(pitch: int) -> int:
    """Pitch class of a MIDI note number; 0 = C."""
    return pitch % 12


def classify_triad(pcs: frozenset[int] | set[int]) -> str | None:
    """The quality of a pitch-class set that is exactly a triad's, else None."""
    return TRIAD_SETS.get(frozenset(pcs))


def conforms_dia(note: NoteEvent) -> bool:
    return pitch_class(note.pitch) in DIATONIC_CLASSES


def conforms_spi(prev: NoteEvent, note: NoteEvent) -> bool:
    return abs(note.pitch - prev.pitch) <= OCTAVE_SEMITONES


def conforms_tri(history: list[NoteEvent], candidate: NoteEvent) -> bool:
    """Check the candidate against the last up-to-two emitted notes.

    An empty history always passes: every single pitch class belongs to
    some triad.
    """
    pcs = {pitch_class(n.pitch) for n in history[-2:]}
    pcs.add(pitch_class(candidate.pitch))
    return frozenset(pcs) in _TRIAD_SUBSETS


def conforms(note: NoteEvent, history: list[NoteEvent], rules: frozenset[Rule]) -> bool:
    """Check a candidate note against every active rule.

    Rules needing more history than exists pass vacuously.
    """
    if Rule.DIA in rules and not conforms_dia(note):
        return False
    if Rule.SPI in rules and history and not conforms_spi(history[-1], note):
        return False
    if Rule.TRI in rules and not conforms_tri(history, note):
        return False
    return True


@dataclass(frozen=True)
class AmendedPair:
    """A context window plus the conforming note that replaced a rejection."""

    context: tuple[NoteEvent, ...]
    note: NoteEvent
    attempts: int


def constrained_sample(
    pitch_dist: np.ndarray,
    dur_dist: np.ndarray,
    history: list[NoteEvent],
    rules: frozenset[Rule],
    vocab: NoteVocabulary,
    rng: np.random.Generator,
    *,
    cap: int,
) -> tuple[NoteEvent, int]:
    """Sample a rule-conforming note from per-segment distributions.

    Rejection-samples up to ``cap`` rounds from the unmodified
    distributions, each round a pitch then a duration, as ``sample_note``
    draws them, from one cumulative table per distribution. If every round
    is rejected, falls back to the exact restriction: a duration is drawn,
    then the pitch distribution is sampled once over the conforming pitches
    alone (uniformly if they carry no mass), which preserves the conditional
    distribution instead of distorting it. Durations are unconstrained by
    all rules and keep their sampled value.

    Returns ``(note, attempts)``; the fallback draw counts as attempt
    ``cap + 1``, so ``attempts > 1`` whenever the first sample was refused.
    """
    if cap < 1:
        raise ValueError(f"resample cap must be >= 1, got {cap}")
    pitches, durations = cumulative_table(pitch_dist), cumulative_table(dur_dist)
    for attempt in range(1, cap + 1):
        pitch = vocab.pitch_lo + draw_index(pitches, rng)
        note = NoteEvent(pitch, vocab.durations[draw_index(durations, rng)])
        if conforms(note, history, rules):
            return note, attempt

    duration = vocab.durations[draw_index(durations, rng)]
    support = _conforming_pitch_slots(history, rules, vocab, duration)
    if not support and Rule.TRI in rules:
        # No pitch satisfies TRI against both history notes (e.g. they sit a
        # whole step apart, which no triad contains). Relax the window to the
        # last note alone; duplicating its pitch class always conforms.
        support = _conforming_pitch_slots(history[-1:], rules, vocab, duration)
    assert support, "conforming pitch support empty even after TRI relaxation"

    restricted = np.asarray(pitch_dist, dtype=float)[support]
    if restricted.sum() == 0.0:  # sample_index scales its draw by any other total
        restricted = np.ones(len(support))
    slot = support[sample_index(restricted, rng)]
    return NoteEvent(pitch=vocab.pitch_lo + slot, duration=duration), cap + 1


def _conforming_pitch_slots(
    history: list[NoteEvent],
    rules: frozenset[Rule],
    vocab: NoteVocabulary,
    duration: int,
) -> list[int]:
    return [
        slot
        for slot in range(vocab.pitch_count)
        if conforms(NoteEvent(vocab.pitch_lo + slot, duration), history, rules)
    ]
