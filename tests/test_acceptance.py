"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The directional-effect test trains four full models (``orig`` plus the
three single-rule retrains) and is the slow one; the whole module stays within
its stated runtime budgets.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from melogram import grammar, metrics, network, pipeline
from melogram.encoding import (
    NoteVocabulary,
    default_vocabulary,
    encode_note,
    make_training_windows,
    stack_examples,
)
from melogram.grammar import Rule
from melogram.midi import extract_melody, parse_midi, quantize_durations, write_midi
from melogram.notes import NoteEvent

from conftest import random_melody, walk_melody
from test_encoding import decode
from test_metrics import assert_matches_oracles
from test_network import finite_difference_grads, max_relative_error


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


class TestGradientCorrectness:
    def test_bptt_matches_finite_differences(self):
        start = time.time()
        rng = network.make_rng(1234)
        worst = 0.0
        for _ in range(20):
            E = int(rng.integers(4, 9))
            H = int(rng.integers(2, 5))
            W = int(rng.integers(1, 5))
            B = int(rng.integers(1, 4))
            P = int(rng.integers(2, E - 1))
            params = network.init_params(E, H, rng)
            X = rng.random((B, W, E))
            yp = rng.integers(0, P, B)
            yd = rng.integers(0, E - P, B)
            grads, _ = network.batch_gradients(params, X, yp, yd, P)
            oracle = finite_difference_grads(params, X, yp, yd, P)
            worst = max(worst, max_relative_error(grads, oracle))
        elapsed = time.time() - start
        assert worst <= 1e-4
        assert elapsed < 10.0
        report("gradient-correctness",
               f"20 instances, worst relative error {worst:.2e}, {elapsed:.1f}s")


class TestMemorizationOracle:
    def test_single_melody_memorized(self):
        start = time.time()
        vocab = default_vocabulary()
        melody = random_melody(network.make_rng(42), vocab, 100)
        X, yp, yd = stack_examples(make_training_windows(melody, 7, vocab), vocab)
        params = network.init_params(vocab.dim, 32, network.make_rng(1))
        # The published learning rate (0.001) needs well over 300 epochs to
        # memorize 93 windows; a 10x rate overfits fast, which is the point
        # of this oracle.
        _, trace, _ = network.fit(
            params, X, yp, yd, vocab.pitch_count,
            epochs=300, batch_size=64, rng=network.make_rng(2), learning_rate=0.01,
            plateau_patience=10, plateau_threshold=1e-4, clip_norm=5.0,
        )
        elapsed = time.time() - start
        assert min(trace) < 0.1
        assert elapsed < 120.0
        first = next(i for i, v in enumerate(trace) if v < 0.1)
        report("memorization-oracle",
               f"loss {min(trace):.3f}, below 0.1 at epoch {first}, {elapsed:.1f}s")


@pytest.fixture(scope="module")
def soundness_model():
    """A lightly trained model over the full vocabulary for filter runs."""
    vocab = default_vocabulary()
    cfg = pipeline.RunConfig(
        vocab=vocab, hidden_size=32, epochs=10, batch_size=64,
        phase1_notes=5000, phase2_notes=1000,
    )
    rng = np.random.default_rng(7)
    corpus = [walk_melody(rng, vocab, 150) for _ in range(3)]
    params, _, _ = pipeline.train_orig(corpus, cfg)
    seed_phrase = pipeline.default_seed_phrase(corpus, cfg)
    return cfg, params, seed_phrase


class TestFilterSoundness:
    def test_five_thousand_notes_per_rule(self, soundness_model):
        start = time.time()
        cfg, params, seed_phrase = soundness_model
        for index, rule in enumerate(pipeline.RULE_ORDER):
            rules = frozenset({rule})
            rng = network.make_rng(cfg.seeds.phase1, index)
            notes, amended = pipeline.phase1_generate(
                params, seed_phrase, 5000, rules, cfg, rng
            )
            assert len(notes) == 5000
            history = list(seed_phrase)
            for note in notes:
                direct = grammar.conforms(note, history, rules)
                relaxed = grammar.conforms(note, history[-1:], rules)
                assert direct or (rule is Rule.TRI and relaxed)
                history.append(note)
        elapsed = time.time() - start
        assert elapsed < 300.0
        report("filter-soundness", f"3 x 5000 notes all conforming, {elapsed:.1f}s")


class TestFallbackFidelity:
    def test_total_variation_within_two_percent(self):
        vocab = default_vocabulary()
        rng = network.make_rng(90)
        support_pitches = [60, 62, 64, 67, 69]
        weights = np.array([5.0, 4.0, 3.0, 2.0, 1.0])
        pitch_dist = np.zeros(vocab.pitch_count)
        pitch_dist[61 - vocab.pitch_lo] = 0.995  # mass concentrated off-support
        for pitch, w in zip(support_pitches, weights):
            pitch_dist[pitch - vocab.pitch_lo] = 0.005 * w / weights.sum()
        dur_dist = np.full(vocab.duration_count, 1.0 / vocab.duration_count)
        expected = weights / weights.sum()

        draws = 10_000
        counts = dict.fromkeys(support_pitches, 0)
        for _ in range(draws):
            note, _, _ = grammar.constrained_sample(
                pitch_dist, dur_dist, [], frozenset({Rule.DIA}), vocab, rng, cap=5,
            )
            counts[note.pitch] += 1
        assert sum(counts.values()) == draws  # nothing outside the support
        freq = np.array([counts[p] / draws for p in support_pitches])
        tv = 0.5 * float(np.abs(freq - expected).sum())
        assert tv <= 0.02
        report("fallback-fidelity", f"TV distance {tv:.4f} over {draws} draws")


@pytest.fixture(scope="module")
def directional_models():
    """Orig plus the three single-rule retrains on a half-chromatic corpus.

    The retrains run side by side in ``pipeline.train_modes``, as ``retrain``
    runs them.
    """
    vocab = default_vocabulary()
    rng = np.random.default_rng(2024)
    corpus = [walk_melody(rng, vocab, 200, diatonic_fraction=0.5) for _ in range(4)]
    cfg = pipeline.RunConfig(
        vocab=vocab, hidden_size=128, epochs=120, learning_rate=0.003,
        phase1_notes=5000, phase2_notes=5000,
    )
    orig, _, _ = pipeline.train_orig(corpus, cfg)
    seed_phrase = pipeline.default_seed_phrase(corpus, cfg)
    examples = pipeline.corpus_windows(corpus, cfg)
    datasets = {}
    for index, rule in enumerate(pipeline.RULE_ORDER):
        gen_rng = network.make_rng(cfg.seeds.phase1, index)
        _, amended = pipeline.phase1_generate(
            orig, seed_phrase, cfg.phase1_notes, frozenset({rule}), cfg, gen_rng
        )
        datasets[rule.value] = pipeline.build_augmented_dataset(examples, amended, cfg)
    models = {"orig": orig}
    for mode, (params, _, _) in pipeline.train_modes(datasets, cfg).items():
        models[mode] = params
    return cfg, corpus, seed_phrase, models


@pytest.mark.slow
class TestDirectionalEffect:
    PUBLIC_SEEDS = (41, 42, 43, 44)

    def test_rule_modes_beat_orig_on_their_metric(self, directional_models):
        start = time.time()
        cfg, corpus, seed_phrase, models = directional_models
        corpus_stats = metrics.evaluate_many([m.notes for m in corpus])
        assert 40.0 < corpus_stats.p_dia < 60.0  # the designed half-chromatic corpus

        wins = {"dia": 0, "spi": 0, "tri": 0}
        rows = []
        for seed in self.PUBLIC_SEEDS:
            by_mode = {}
            for mode in ("orig", "dia", "spi", "tri"):
                notes = pipeline.phase2_generate(
                    models[mode], seed_phrase, 5000, cfg, network.make_rng(seed)
                )
                by_mode[mode] = metrics.evaluate(notes)
            wins["dia"] += by_mode["dia"].p_dia >= by_mode["orig"].p_dia + 5.0
            wins["spi"] += (
                by_mode["spi"].spi_violation_rate < by_mode["orig"].spi_violation_rate
            )
            wins["tri"] += by_mode["tri"].p_tri > by_mode["orig"].p_tri
            rows.append(
                f"seed {seed}: p_dia {by_mode['orig'].p_dia:.1f}->{by_mode['dia'].p_dia:.1f}, "
                f"viol {by_mode['orig'].spi_violation_rate:.1f}->"
                f"{by_mode['spi'].spi_violation_rate:.1f}, "
                f"p_tri {by_mode['orig'].p_tri:.1f}->{by_mode['tri'].p_tri:.1f}"
            )
        elapsed = time.time() - start
        for line in rows:
            print("  " + line)
        assert wins["dia"] >= 3, f"DIA improved >=5pp on only {wins['dia']}/4 seeds"
        assert wins["spi"] >= 3, f"SPI reduced violations on only {wins['spi']}/4 seeds"
        assert wins["tri"] >= 3, f"TRI raised p_tri on only {wins['tri']}/4 seeds"
        report("directional-effect",
               f"dia {wins['dia']}/4, spi {wins['spi']}/4, tri {wins['tri']}/4, "
               f"evaluation {elapsed:.0f}s")


class TestMetricOracleEquivalence:
    def test_exact_agreement_on_thousand_melodies(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            length = int(rng.integers(3, 51))
            notes = [
                NoteEvent(int(p), int(d))
                for p, d in zip(rng.integers(36, 95, length), rng.integers(1, 16, length))
            ]
            assert_matches_oracles(metrics.evaluate(notes), notes)
        report("metric-oracle-equivalence", "1000 melodies, exact equality")


class TestEncodingInvariants:
    def test_exhaustive_vocabulary_sweep(self):
        vocab = default_vocabulary()
        count = 0
        for pitch in range(vocab.pitch_lo, vocab.pitch_hi + 1):
            for duration in vocab.durations:
                note = NoteEvent(pitch, duration)
                vec = encode_note(note, vocab)
                assert vec.shape == (89,)
                assert vec[: vocab.pitch_count].sum() == 1.0
                assert vec[vocab.pitch_count :].sum() == 1.0
                assert np.count_nonzero(vec) == 2
                assert decode(vec, vocab) == note
                count += 1
        assert count == 59 * 30 == 1770
        report("encoding-invariants", f"{count} notes swept")


class TestMidiRoundTrip:
    def test_hundred_random_melodies(self):
        vocab = default_vocabulary()
        rng = network.make_rng(77)
        for _ in range(100):
            melody = random_melody(rng, vocab, int(rng.integers(1, 60)))
            data = write_midi(melody)
            parsed = parse_midi(data)
            back = quantize_durations(
                extract_melody(parsed.events), parsed.division, vocab
            )
            assert back.notes == melody.notes
        report("midi-round-trip", "100 melodies, write/parse/extract/quantize identity")


class TestFullRunDeterminism:
    def test_run_all_twice_is_byte_identical(self, tmp_path):
        vocab = NoteVocabulary(pitch_lo=55, pitch_hi=79, durations=(1, 2, 4, 8))
        cfg = pipeline.RunConfig(
            vocab=vocab, hidden_size=8, epochs=3, batch_size=16,
            phase1_notes=120, phase2_notes=120,
        )
        rng = np.random.default_rng(66)
        corpus = [random_melody(rng, vocab, 40) for _ in range(3)]
        dirs = (tmp_path / "a", tmp_path / "b")
        for out in dirs:
            pipeline.run_experiment(corpus, cfg, out)
        compared = 0
        for mode in pipeline.MODES:
            a = (dirs[0] / "weights" / f"{mode}.wts").read_bytes()
            b = (dirs[1] / "weights" / f"{mode}.wts").read_bytes()
            assert a == b, f"weights for {mode} differ between runs"
            compared += 1
        for name in ("report.json", "report.txt", "manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()
        report("full-run-determinism",
               f"{compared} weight files and reports byte-identical")
