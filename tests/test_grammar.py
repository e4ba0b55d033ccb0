"""Tests for the three note filters and constrained resampling."""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from melogram.encoding import default_vocabulary, sample_index
from melogram.grammar import (
    AmendedPair,
    DIATONIC_CLASSES,
    Rule,
    classify_triad,
    conforms,
    conforms_dia,
    conforms_spi,
    conforms_tri,
    constrained_sample,
    parse_rules,
    pitch_class,
)
from melogram.notes import NoteEvent

VOCAB = default_vocabulary()


def oracle_triad_sets() -> dict[frozenset, str]:
    """All 48 triad pitch-class sets, built directly from interval stacks."""
    sets = {}
    for root in range(12):
        for quality, (third, fifth) in (
            ("major", (4, 7)),
            ("minor", (3, 7)),
            ("augmented", (4, 8)),
            ("diminished", (3, 6)),
        ):
            pcs = frozenset({root % 12, (root + third) % 12, (root + fifth) % 12})
            sets.setdefault(pcs, quality)
    return sets


class TestPitchClass:
    @pytest.mark.parametrize("pitch,expected", [(60, 0), (81, 9), (95, 11), (0, 0), (127, 7)])
    def test_examples(self, pitch, expected):
        assert pitch_class(pitch) == expected


class TestConformsDia:
    def test_e5_is_diatonic(self):
        assert conforms_dia(NoteEvent(76, 4))

    def test_e_flat_is_not(self):
        assert not conforms_dia(NoteEvent(75, 4))

    def test_all_twelve_classes(self):
        for pc in range(12):
            assert conforms_dia(NoteEvent(60 + pc, 1)) == (pc in {0, 2, 4, 5, 7, 9, 11})

    def test_diatonic_constant_matches_tone_names(self):
        assert DIATONIC_CLASSES == frozenset({0, 2, 4, 5, 7, 9, 11})


class TestConformsSpi:
    def test_fourteen_semitones_rejected(self):
        assert not conforms_spi(NoteEvent(81, 2), NoteEvent(95, 2))

    def test_same_note_passes(self):
        assert conforms_spi(NoteEvent(70, 4), NoteEvent(70, 1))

    def test_exact_octave_passes(self):
        assert conforms_spi(NoteEvent(60, 4), NoteEvent(72, 4))
        assert conforms_spi(NoteEvent(72, 4), NoteEvent(60, 4))

    def test_thirteen_rejected_both_directions(self):
        assert not conforms_spi(NoteEvent(60, 4), NoteEvent(73, 4))
        assert not conforms_spi(NoteEvent(73, 4), NoteEvent(60, 4))


class TestClassifyTriad:
    def test_c_major(self):
        assert classify_triad({0, 4, 7}) == "major"

    def test_c_diminished(self):
        assert classify_triad({0, 3, 6}) == "diminished"

    def test_cluster_is_not_a_triad(self):
        assert classify_triad({0, 2, 4}) is None

    def test_agrees_with_enumeration_over_all_subsets(self):
        oracle = oracle_triad_sets()
        for size in range(0, 5):
            for pcs in combinations(range(12), size):
                assert classify_triad(frozenset(pcs)) == oracle.get(frozenset(pcs))


class TestConformsTri:
    def test_exact_triad(self):
        assert conforms_tri([NoteEvent(60, 4), NoteEvent(64, 4)], NoteEvent(67, 4))

    def test_two_class_subset(self):
        # {C, C} then E: {0, 4} sits inside the C major triad.
        assert conforms_tri([NoteEvent(60, 4), NoteEvent(72, 4)], NoteEvent(64, 4))

    def test_whole_step_history_rejects_everything(self):
        history = [NoteEvent(60, 4), NoteEvent(62, 4)]
        oracle = oracle_triad_sets()
        for pc in range(12):
            candidate = NoteEvent(60 + pc, 4)
            expected = any(
                frozenset({0, 2, pc}) <= triad for triad in oracle
            )
            assert conforms_tri(history, candidate) == expected
            assert not conforms_tri(history, candidate)  # no triad holds a whole step

    def test_empty_history_always_passes(self):
        for pc in range(12):
            assert conforms_tri([], NoteEvent(60 + pc, 4))

    def test_only_last_two_notes_matter(self):
        history = [NoteEvent(61, 4), NoteEvent(60, 4), NoteEvent(64, 4)]
        assert conforms_tri(history, NoteEvent(67, 4))

    def test_subset_semantics_match_enumeration(self):
        oracle = oracle_triad_sets()
        rng = np.random.default_rng(2)
        for _ in range(500):
            history = [NoteEvent(int(p), 1) for p in rng.integers(36, 95, size=2)]
            candidate = NoteEvent(int(rng.integers(36, 95)), 1)
            pcs = frozenset(
                {history[0].pitch % 12, history[1].pitch % 12, candidate.pitch % 12}
            )
            expected = any(pcs <= triad for triad in oracle)
            assert conforms_tri(history, candidate) == expected


class TestParseRules:
    def test_single_and_multiple(self):
        assert parse_rules("dia") == frozenset({Rule.DIA})
        assert parse_rules("dia, tri") == frozenset({Rule.DIA, Rule.TRI})

    def test_unknown_rejected(self):
        with pytest.raises(ValueError, match="unknown rule"):
            parse_rules("dia,fancy")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_rules(" ")


def _point_mass(size: int, index: int) -> np.ndarray:
    probs = np.zeros(size)
    probs[index] = 1.0
    return probs


def _uniform(size: int) -> np.ndarray:
    return np.full(size, 1.0 / size)


def reference_constrained_sample(pitch_dist, dur_dist, history, rules, vocab, rng, cap):
    """The documented rejection loop, one ``sample_index`` per draw.

    Each attempt draws a pitch, then a duration. After ``cap`` refusals a
    duration is drawn, then a pitch from the conforming pitches' mass alone
    (uniform when that mass is zero); under TRI with no conforming pitch,
    the history shrinks to its last note.
    """
    for attempt in range(1, cap + 1):
        pitch = vocab.pitch_lo + sample_index(pitch_dist, rng)
        note = NoteEvent(pitch, vocab.durations[sample_index(dur_dist, rng)])
        if conforms(note, history, rules):
            return note, attempt
    duration = vocab.durations[sample_index(dur_dist, rng)]

    def support(window):
        return [slot for slot in range(vocab.pitch_count)
                if conforms(NoteEvent(vocab.pitch_lo + slot, duration), window, rules)]

    slots = support(history)
    if not slots and Rule.TRI in rules:
        slots = support(history[-1:])
    mass = pitch_dist[slots]
    if mass.sum() == 0.0:
        mass = np.ones(len(slots))
    return NoteEvent(vocab.pitch_lo + slots[sample_index(mass, rng)], duration), cap + 1


class TestConstrainedSample:
    def test_matches_reference_loop_draw_for_draw(self):
        # The same (note, attempts) and the same generator state afterwards,
        # over random distributions, histories, rule sets and caps.
        rng = np.random.default_rng(9)
        diatonic = [slot for slot in range(VOCAB.pitch_count)
                    if (VOCAB.pitch_lo + slot) % 12 in DIATONIC_CLASSES]
        fallbacks = 0
        for case in range(600):
            rules = frozenset(rule for bit, rule in enumerate(Rule) if case % 8 & (1 << bit))
            pitch_dist = rng.dirichlet(np.full(VOCAB.pitch_count, 0.3))
            pitch_dist *= rng.random(VOCAB.pitch_count) < 0.5
            if case % 5 == 0:
                pitch_dist[diatonic] = 0.0  # no mass where DIA conforms
            if not pitch_dist.sum():
                pitch_dist[61 - VOCAB.pitch_lo] = 1.0
            dur_dist = rng.dirichlet(np.ones(VOCAB.duration_count))
            if case % 7 == 0:
                history = [NoteEvent(60, 4), NoteEvent(62, 4)]  # a whole step: no triad fits
            else:
                pitches = rng.integers(VOCAB.pitch_lo, VOCAB.pitch_hi + 1, case % 4)
                history = [NoteEvent(int(p), 4) for p in pitches]
            cap = int(rng.integers(1, 9))
            ours, theirs = np.random.default_rng(case), np.random.default_rng(case)
            got = constrained_sample(pitch_dist, dur_dist, history, rules, VOCAB, ours, cap=cap)
            want = reference_constrained_sample(pitch_dist, dur_dist, history, rules, VOCAB,
                                                theirs, cap)
            assert got == want
            assert ours.random() == theirs.random()
            fallbacks += got[1] > cap
        assert fallbacks > 50

    def test_conforming_mass_returns_first_try(self):
        rng = np.random.default_rng(0)
        pitch_dist = _point_mass(VOCAB.pitch_count, 60 - VOCAB.pitch_lo)  # C4
        note, attempts = constrained_sample(
            pitch_dist, _uniform(VOCAB.duration_count), [], frozenset({Rule.DIA}),
            VOCAB, rng, cap=100,
        )
        assert note.pitch == 60
        assert attempts == 1

    def test_no_rules_never_amends(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            _, attempts = constrained_sample(
                _uniform(VOCAB.pitch_count), _uniform(VOCAB.duration_count),
                [NoteEvent(60, 4)], frozenset(), VOCAB, rng, cap=100,
            )
            assert attempts == 1

    def test_off_support_mass_falls_back_to_diatonic(self):
        rng = np.random.default_rng(2)
        pitch_dist = _point_mass(VOCAB.pitch_count, 61 - VOCAB.pitch_lo)  # C#4 only
        note, attempts = constrained_sample(
            pitch_dist, _uniform(VOCAB.duration_count), [], frozenset({Rule.DIA}),
            VOCAB, rng, cap=10,
        )
        assert conforms_dia(note)
        assert attempts == 11

    def test_fallback_matches_renormalized_restriction(self):
        # 0.99 on C#4 and the rest spread over five diatonic pitches: the
        # fallback must reproduce the renormalized restriction of that mass.
        rng = np.random.default_rng(3)
        support_pitches = [60, 64, 67, 69, 71]
        pitch_dist = np.zeros(VOCAB.pitch_count)
        pitch_dist[61 - VOCAB.pitch_lo] = 0.99
        weights = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        for pitch, w in zip(support_pitches, weights):
            pitch_dist[pitch - VOCAB.pitch_lo] = 0.01 * w / weights.sum()
        expected = weights / weights.sum()

        draws = 4000
        counts = {p: 0 for p in support_pitches}
        amended_count = 0
        for _ in range(draws):
            note, attempts = constrained_sample(
                pitch_dist, _uniform(VOCAB.duration_count), [],
                frozenset({Rule.DIA}), VOCAB, rng, cap=5,
            )
            amended_count += attempts > 1
            counts[note.pitch] += 1
        # With 99% of the mass off-support nearly every draw needs amending;
        # the few rejection-round acceptances follow the same conditional law.
        assert amended_count > 0.9 * draws
        freq = np.array([counts[p] / draws for p in support_pitches])
        assert np.abs(freq - expected).max() < 0.03

    def test_tri_relaxation_on_whole_step_history(self):
        rng = np.random.default_rng(4)
        history = [NoteEvent(60, 4), NoteEvent(62, 4)]  # no triad fits {0, 2}
        note, attempts = constrained_sample(
            _point_mass(VOCAB.pitch_count, 61 - VOCAB.pitch_lo),
            _uniform(VOCAB.duration_count),
            history, frozenset({Rule.TRI}), VOCAB, rng, cap=5,
        )
        assert attempts > 1
        # Relaxed window: candidate forms a triad subset with the last note alone.
        assert conforms_tri(history[-1:], note)

    def test_progress_bound(self):
        rng = np.random.default_rng(5)
        for cap in (1, 3, 100):
            _, attempts = constrained_sample(
                _point_mass(VOCAB.pitch_count, 61 - VOCAB.pitch_lo),
                _uniform(VOCAB.duration_count), [], frozenset({Rule.DIA}),
                VOCAB, rng, cap=cap,
            )
            assert attempts <= cap + 1

    @settings(max_examples=150, deadline=None)
    @given(
        history_pitches=st.lists(st.integers(VOCAB.pitch_lo, VOCAB.pitch_hi), max_size=3),
        rule_bits=st.integers(1, 7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_soundness_property(self, history_pitches, rule_bits, seed):
        rules = frozenset(
            rule for bit, rule in enumerate(Rule) if rule_bits & (1 << bit)
        )
        history = [NoteEvent(p, 4) for p in history_pitches]
        rng = np.random.default_rng(seed)
        pitch_dist = rng.dirichlet(np.ones(VOCAB.pitch_count))
        dur_dist = rng.dirichlet(np.ones(VOCAB.duration_count))
        note, attempts = constrained_sample(
            pitch_dist, dur_dist, history, rules, VOCAB, rng, cap=8,
        )
        relaxed = history if conforms(note, history, rules) else history[-1:]
        assert conforms(note, relaxed, rules)
        assert attempts <= 9

    def test_tri_chain_windows_stay_in_triads(self):
        # Accept notes under unrelaxed TRI only; every 3-window must then fit.
        rng = np.random.default_rng(6)
        oracle = oracle_triad_sets()
        emitted = [NoteEvent(60, 4)]
        while len(emitted) < 60:
            candidate = NoteEvent(int(rng.integers(VOCAB.pitch_lo, VOCAB.pitch_hi)), 4)
            if conforms_tri(emitted, candidate):
                emitted.append(candidate)
        for i in range(len(emitted) - 2):
            pcs = frozenset(n.pitch % 12 for n in emitted[i : i + 3])
            assert any(pcs <= triad for triad in oracle)


class TestAmendedPair:
    def test_holds_conforming_note(self):
        pair = AmendedPair(
            context=tuple(NoteEvent(60 + i, 4) for i in range(7)),
            note=NoteEvent(64, 4),
            attempts=3,
        )
        assert conforms(pair.note, list(pair.context), frozenset({Rule.DIA}))
