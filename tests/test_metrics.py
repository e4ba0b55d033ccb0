"""Tests for the three melody metrics and the comparison report."""

from __future__ import annotations

import json
from dataclasses import asdict

import numpy as np
import pytest

from melogram.metrics import (
    TONE_NAMES,
    evaluate,
    evaluate_many,
    report_table,
    report_to_json,
)
from melogram.notes import NoteEvent


def mk(*pitches: int) -> list[NoteEvent]:
    return [NoteEvent(p, 4) for p in pitches]


# --- brute-force oracles: naive loops, own tables ---------------------------

_TONES = {"C": 0, "D": 2, "E": 4, "F": 5, "G": 7, "A": 9, "B": 11}


def oracle_p_dia(notes):
    n = len(notes)
    per_tone = {}
    for name in TONE_NAMES:
        count = 0
        for note in notes:
            if note.pitch % 12 == _TONES[name]:
                count += 1
        per_tone[name] = 100.0 * count / n
    total = 0.0
    for name in TONE_NAMES:
        total += per_tone[name]
    return per_tone, total


def oracle_spi(notes):
    bad = 0
    for i in range(len(notes) - 1):
        if abs(notes[i + 1].pitch - notes[i].pitch) > 12:
            bad += 1
    return 100.0 * bad / (len(notes) - 1)


def _oracle_triads():
    table = {}
    for root in range(12):
        for quality, (a, b) in [("major", (4, 7)), ("minor", (3, 7)),
                                ("augmented", (4, 8)), ("diminished", (3, 6))]:
            key = frozenset({root, (root + a) % 12, (root + b) % 12})
            table.setdefault(key, quality)
    return table


def oracle_p_tri(notes):
    table = _oracle_triads()
    counts = {"major": 0, "minor": 0, "augmented": 0, "diminished": 0}
    windows = len(notes) - 2
    for i in range(windows):
        pcs = frozenset(n.pitch % 12 for n in notes[i : i + 3])
        if len(pcs) == 3 and pcs in table:
            counts[table[pcs]] += 1
    per = {q: 100.0 * c / windows for q, c in counts.items()}
    total = 0.0
    for q in ("major", "minor", "augmented", "diminished"):
        total += per[q]
    return per, total


def random_notes(rng, length):
    return [NoteEvent(int(p), int(d)) for p, d in
            zip(rng.integers(36, 95, length), rng.integers(1, 16, length))]


class TestComputePDia:
    def test_all_c_notes(self):
        report = evaluate(mk(60, 72, 48, 60))
        assert report.per_tone["C"] == 100.0
        assert report.p_dia == 100.0

    def test_all_chromatic(self):
        report = evaluate(mk(61, 63, 66, 68, 70))
        assert report.p_dia == 0.0
        assert all(v == 0.0 for v in report.per_tone.values())

    def test_crafted_twenty_note_count(self):
        # 11 diatonic (4xC, 3xE, 2xG, 2xA) + 9 chromatic = 55% diatonic.
        pitches = [60] * 4 + [64] * 3 + [67] * 2 + [69] * 2 + [61] * 5 + [63] * 4
        report = evaluate(mk(*pitches))
        assert report.p_dia == 55.0
        assert report.per_tone["C"] == 20.0
        assert report.per_tone["E"] == 15.0

    def test_empty_melody_rejected(self):
        with pytest.raises(ValueError):
            evaluate([])


class TestComputeSpi:
    def test_stepwise_melody_is_zero(self):
        assert evaluate(mk(60, 62, 64, 65, 67)).spi_violation_rate == 0.0

    def test_alternating_two_octave_leaps(self):
        assert evaluate(mk(48, 72, 48, 72)).spi_violation_rate == 100.0

    def test_ten_notes_two_leaps(self):
        pitches = [60, 62, 75, 74, 72, 71, 58, 60, 62, 64]  # leaps 62->75, 71->58
        assert evaluate(mk(*pitches)).spi_violation_rate == pytest.approx(100.0 * 2 / 9)

    def test_exact_octave_is_not_a_violation(self):
        assert evaluate(mk(60, 72, 60)).spi_violation_rate == 0.0

    def test_single_note_rejected(self):
        with pytest.raises(ValueError):
            evaluate(mk(60))


class TestComputePTri:
    def test_single_major_window(self):
        report = evaluate(mk(60, 64, 67))
        assert report.p_tri == 100.0
        assert report.triad_counts["major"] == 100.0

    def test_repeated_note_is_not_a_triad(self):
        assert evaluate(mk(60, 60, 60)).p_tri == 0.0

    def test_five_note_mixed_windows(self):
        # Windows: {C,E,G} major, {E,G,B} minor, {G,B,D} major.
        report = evaluate(mk(60, 64, 67, 59, 62))
        assert report.p_tri == pytest.approx(100.0)
        assert report.triad_counts["major"] == pytest.approx(100.0 * 2 / 3)
        assert report.triad_counts["minor"] == pytest.approx(100.0 / 3)

    def test_two_notes_rejected(self):
        with pytest.raises(ValueError):
            evaluate(mk(60, 64))


def assert_matches_oracles(report, notes):
    """Every field of ``evaluate(notes)`` equals the brute-force oracles exactly."""
    assert (report.per_tone, report.p_dia) == oracle_p_dia(notes)
    assert report.spi_violation_rate == oracle_spi(notes)
    assert (report.triad_counts, report.p_tri) == oracle_p_tri(notes)
    assert report.n_notes == len(notes)


class TestOracleEquivalence:
    def test_exact_agreement_on_random_melodies(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            notes = random_notes(rng, int(rng.integers(3, 51)))
            assert_matches_oracles(evaluate(notes), notes)


class TestInvariances:
    def test_octave_shift_invariance(self):
        rng = np.random.default_rng(13)
        notes = random_notes(rng, 40)
        shifted = [NoteEvent(n.pitch + 12, n.duration) for n in notes]
        assert evaluate(notes) == evaluate(shifted)

    def test_uniform_shift_preserves_spi(self):
        rng = np.random.default_rng(14)
        notes = random_notes(rng, 40)
        for shift in (-7, 3, 5):
            shifted = [NoteEvent(n.pitch + shift, n.duration) for n in notes]
            assert evaluate(notes).spi_violation_rate == evaluate(shifted).spi_violation_rate

    def test_percentages_bounded_and_consistent(self):
        rng = np.random.default_rng(15)
        report = evaluate(random_notes(rng, 100))
        for value in (*report.per_tone.values(), report.p_dia,
                      report.spi_violation_rate, *report.triad_counts.values(),
                      report.p_tri):
            assert 0.0 <= value <= 100.0
        assert report.p_dia == pytest.approx(sum(report.per_tone.values()), abs=1e-9)
        assert report.p_tri == pytest.approx(sum(report.triad_counts.values()), abs=1e-9)


class TestEvaluateMany:
    def test_no_cross_piece_windows(self):
        # Two pieces whose junction would be a leap and a triad if pooled.
        a = mk(60, 62, 64, 66)
        b = mk(95, 94, 93, 92)
        pooled = evaluate_many([a, b])
        assert pooled.spi_violation_rate == 0.0
        assert pooled.n_notes == 8

    def test_matches_single_on_one_piece(self):
        rng = np.random.default_rng(16)
        notes = random_notes(rng, 30)
        assert evaluate_many([notes]) == evaluate(notes)


class TestReport:
    def _reports(self, modes):
        rng = np.random.default_rng(17)
        return {mode: evaluate(random_notes(rng, 50)) for mode in modes}

    def test_single_mode_table(self):
        table = report_table(self._reports(["Orig"]))
        lines = table.strip().splitlines()
        assert lines[0].split() == ["Orig"]
        assert len(lines) == 16  # header + 7 tones + 2 totals + spi + 4 triads + notes

    def test_json_round_trip_lossless(self):
        reports = self._reports(["DS", "Orig", "DIA"])
        parsed = json.loads(report_to_json(reports))
        assert parsed == {mode: asdict(report) for mode, report in reports.items()}

    def test_column_ordering(self):
        reports = self._reports(["MIX", "DIA", "DS", "TRI", "Orig", "SPI"])
        table = report_table(reports)
        assert table.splitlines()[0].split() == ["DS", "Orig", "DIA", "SPI", "TRI", "MIX"]
        order = list(json.loads(report_to_json(reports)))
        assert order == ["DS", "Orig", "DIA", "SPI", "TRI", "MIX"]
