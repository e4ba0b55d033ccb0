"""Evaluation metrics for melodies and the mode-comparison report.

Three quantities describe how well a melody fits the grammar rules:

* per-tone percentages over C, D, E, F, G, A, B and their sum ``p_dia``;
* ``spi_violation_rate``, the percentage of consecutive intervals larger
  than an octave (reported instead of its complement so that smaller is
  unambiguously better);
* triad percentages over sliding three-note windows and their sum
  ``p_tri``. Counting here is strict: a window counts only when its three
  distinct pitch classes are exactly a triad's set, unlike the generation
  filter which accepts subsets.

``evaluate`` (one melody) and ``evaluate_many`` (pieces pooled) share one
count, so a melody and a one-piece corpus of it report the same numbers.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .grammar import DIATONIC_CLASSES, OCTAVE_SEMITONES, TRIAD_QUALITIES, classify_triad, pitch_class
from .notes import NoteEvent

TONE_NAMES = ("C", "D", "E", "F", "G", "A", "B")
_TONE_CLASSES = dict(zip(TONE_NAMES, sorted(DIATONIC_CLASSES)))

# Each mode's report column, in report order after the corpus's "DS".
MODE_COLUMNS = {"orig": "Orig", "dia": "DIA", "spi": "SPI", "tri": "TRI", "mix": "MIX"}


@dataclass(frozen=True)
class MetricsReport:
    """All three metrics for one note sequence."""

    per_tone: dict[str, float]
    p_dia: float
    spi_violation_rate: float
    triad_counts: dict[str, float]
    p_tri: float
    n_notes: int


def evaluate(notes: list[NoteEvent]) -> MetricsReport:
    """All three metrics for one melody (needs at least three notes)."""
    return _pooled_counts([notes])


def evaluate_many(melodies: Iterable[list[NoteEvent]]) -> MetricsReport:
    """Pooled metrics over several melodies.

    Counts are summed over the pieces before any percentage is taken, and
    intervals and triad windows never span piece boundaries. At least one
    piece needs three notes.
    """
    return _pooled_counts(melodies)


def _pooled_counts(melodies: Iterable[list[NoteEvent]]) -> MetricsReport:
    class_counts = [0] * 12
    triads = dict.fromkeys(TRIAD_QUALITIES, 0)
    n_notes = leaps = intervals = windows = 0
    for notes in melodies:
        classes = [pitch_class(note.pitch) for note in notes]
        for pc in classes:
            class_counts[pc] += 1
        leaps += sum(abs(b.pitch - a.pitch) > OCTAVE_SEMITONES for a, b in zip(notes, notes[1:]))
        for window in zip(classes, classes[1:], classes[2:]):
            quality = classify_triad(frozenset(window))
            if quality is not None:
                triads[quality] += 1
        n_notes += len(notes)
        intervals += max(len(notes) - 1, 0)
        windows += max(len(notes) - 2, 0)
    if windows == 0:
        raise ValueError("interval and triad statistics need a melody of at least three notes")
    per_tone = {name: 100.0 * class_counts[pc] / n_notes for name, pc in _TONE_CLASSES.items()}
    triad_counts = {q: 100.0 * triads[q] / windows for q in TRIAD_QUALITIES}
    return MetricsReport(
        per_tone=per_tone,
        p_dia=sum(per_tone.values()),
        spi_violation_rate=100.0 * leaps / intervals,
        triad_counts=triad_counts,
        p_tri=sum(triad_counts.values()),
        n_notes=n_notes,
    )


def report_to_json(reports: Mapping[str, MetricsReport]) -> str:
    """Machine-readable rendering; parses back losslessly."""
    ordered = {mode: asdict(reports[mode]) for mode in _column_order(reports)}
    return json.dumps(ordered, indent=2)


def report_table(reports: Mapping[str, MetricsReport]) -> str:
    """Aligned plain-text comparison table, one column per mode."""
    columns = _column_order(reports)
    rows: list[tuple[str, list[str]]] = []
    for name in TONE_NAMES:
        rows.append((name, [f"{reports[m].per_tone[name]:.1f}" for m in columns]))
    rows.append(("p_dia", [f"{reports[m].p_dia:.1f}" for m in columns]))
    rows.append(("spi_violation_rate", [f"{reports[m].spi_violation_rate:.1f}" for m in columns]))
    for quality in TRIAD_QUALITIES:
        rows.append(
            (quality.capitalize(), [f"{reports[m].triad_counts[quality]:.1f}" for m in columns])
        )
    rows.append(("p_tri", [f"{reports[m].p_tri:.1f}" for m in columns]))
    rows.append(("notes", [str(reports[m].n_notes) for m in columns]))

    label_width = max(len(label) for label, _ in rows)
    col_widths = [
        max(len(col), max(len(row[1][i]) for row in rows))
        for i, col in enumerate(columns)
    ]
    lines = [
        " ".join([" " * label_width] + [c.rjust(w) for c, w in zip(columns, col_widths)])
    ]
    for label, values in rows:
        lines.append(
            " ".join([label.ljust(label_width)]
                     + [v.rjust(w) for v, w in zip(values, col_widths)])
        )
    return "\n".join(lines) + "\n"


def _column_order(reports: Mapping[str, MetricsReport]) -> list[str]:
    known = [column for column in ("DS", *MODE_COLUMNS.values()) if column in reports]
    extra = sorted(set(reports) - set(known))
    return known + extra
