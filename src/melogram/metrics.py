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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Iterable, Mapping

from .grammar import DIATONIC_CLASSES, OCTAVE_SEMITONES, TRIAD_QUALITIES, classify_triad, pitch_class
from .notes import NoteEvent

TONE_NAMES = ("C", "D", "E", "F", "G", "A", "B")
_TONE_CLASSES = dict(zip(TONE_NAMES, sorted(DIATONIC_CLASSES)))

MODE_COLUMNS = ("DS", "Orig", "DIA", "SPI", "TRI", "MIX")


@dataclass(frozen=True)
class MetricsReport:
    """All three metrics for one note sequence."""

    per_tone: dict[str, float]
    p_dia: float
    spi_violation_rate: float
    triad_counts: dict[str, float]
    p_tri: float
    n_notes: int


def compute_p_dia(notes: list[NoteEvent]) -> tuple[dict[str, float], float]:
    """Percentage of notes on each diatonic tone, plus their total."""
    counts = _dia_counts(notes)
    return _dia_percentages(counts, len(notes))


def _dia_counts(notes: list[NoteEvent]) -> dict[str, int]:
    if not notes:
        raise ValueError("cannot compute diatonic percentages of an empty melody")
    counts = {name: 0 for name in TONE_NAMES}
    class_to_name = {pc: name for name, pc in _TONE_CLASSES.items()}
    for note in notes:
        name = class_to_name.get(pitch_class(note.pitch))
        if name is not None:
            counts[name] += 1
    return counts

def _dia_percentages(counts: Mapping[str, int], n: int) -> tuple[dict[str, float], float]:
    per_tone = {name: 100.0 * counts[name] / n for name in TONE_NAMES}
    return per_tone, sum(per_tone[name] for name in TONE_NAMES)


def compute_spi(notes: list[NoteEvent]) -> float:
    """Percentage of consecutive pitch intervals exceeding an octave."""
    if len(notes) < 2:
        raise ValueError("interval statistics need at least two notes")
    violations, intervals = _spi_counts(notes)
    return 100.0 * violations / intervals


def _spi_counts(notes: list[NoteEvent]) -> tuple[int, int]:
    violations = sum(
        1
        for prev, cur in zip(notes, notes[1:])
        if abs(cur.pitch - prev.pitch) > OCTAVE_SEMITONES
    )
    return violations, len(notes) - 1


def compute_p_tri(notes: list[NoteEvent]) -> tuple[dict[str, float], float]:
    """Percentage of three-note windows forming each triad quality, plus total."""
    if len(notes) < 3:
        raise ValueError("triad statistics need at least three notes")
    counts, windows = _tri_counts(notes)
    return _tri_percentages(counts, windows)


def _tri_counts(notes: list[NoteEvent]) -> tuple[dict[str, int], int]:
    counts = {quality: 0 for quality in TRIAD_QUALITIES}
    for i in range(len(notes) - 2):
        pcs = frozenset(pitch_class(n.pitch) for n in notes[i : i + 3])
        if len(pcs) == 3:
            triad = classify_triad(pcs)
            if triad is not None:
                counts[triad.quality] += 1
    return counts, len(notes) - 2

def _tri_percentages(counts: Mapping[str, int], windows: int) -> tuple[dict[str, float], float]:
    triad_counts = {q: 100.0 * counts[q] / windows for q in TRIAD_QUALITIES}
    return triad_counts, sum(triad_counts[q] for q in TRIAD_QUALITIES)


def evaluate(notes: list[NoteEvent]) -> MetricsReport:
    """All three metrics for one melody (needs at least three notes)."""
    per_tone, p_dia = compute_p_dia(notes)
    spi = compute_spi(notes)
    triad_counts, p_tri = compute_p_tri(notes)
    return MetricsReport(
        per_tone=per_tone,
        p_dia=p_dia,
        spi_violation_rate=spi,
        triad_counts=triad_counts,
        p_tri=p_tri,
        n_notes=len(notes),
    )


def evaluate_many(melodies: Iterable[list[NoteEvent]]) -> MetricsReport:
    """Pooled metrics over several melodies.

    Counts are aggregated per piece so intervals and triad windows never
    span piece boundaries.
    """
    dia_totals = {name: 0 for name in TONE_NAMES}
    tri_totals = {q: 0 for q in TRIAD_QUALITIES}
    n_notes = violations = intervals = windows = 0
    for notes in melodies:
        for name, c in _dia_counts(notes).items():
            dia_totals[name] += c
        n_notes += len(notes)
        if len(notes) >= 2:
            v, k = _spi_counts(notes)
            violations += v
            intervals += k
        if len(notes) >= 3:
            counts, w = _tri_counts(notes)
            windows += w
            for q, c in counts.items():
                tri_totals[q] += c
    if n_notes == 0:
        raise ValueError("no notes to evaluate")
    if intervals == 0 or windows == 0:
        raise ValueError("melodies too short for interval/triad statistics")
    per_tone, p_dia = _dia_percentages(dia_totals, n_notes)
    triad_counts, p_tri = _tri_percentages(tri_totals, windows)
    return MetricsReport(
        per_tone=per_tone,
        p_dia=p_dia,
        spi_violation_rate=100.0 * violations / intervals,
        triad_counts=triad_counts,
        p_tri=p_tri,
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
    known = [mode for mode in MODE_COLUMNS if mode in reports]
    extra = sorted(set(reports) - set(known))
    return known + extra
