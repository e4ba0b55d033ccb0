"""Tests for the experiment pipeline stages and the full run."""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
from dataclasses import replace
from functools import wraps

import numpy as np
import pytest

from melogram import grammar, network, pipeline
from melogram.encoding import (
    NoteVocabulary,
    encode_note,
    note_indices,
    sample_index,
    split_distribution,
    stack_examples,
)
from melogram.grammar import AmendedPair, Rule
from melogram.notes import NoteEvent

from conftest import random_melody, walk_melody


def tiny_config(**overrides) -> pipeline.RunConfig:
    defaults = dict(
        vocab=NoteVocabulary(pitch_lo=55, pitch_hi=79, durations=(1, 2, 4, 8)),
        hidden_size=8,
        batch_size=16,
        epochs=3,
        phase1_notes=80,
        phase2_notes=80,
    )
    defaults.update(overrides)
    return pipeline.RunConfig(**defaults)


def tiny_corpus(cfg, pieces=3, length=40, seed=55):
    rng = np.random.default_rng(seed)
    return [random_melody(rng, cfg.vocab, length) for _ in range(pieces)]


class TestRunConfig:
    def test_defaults_match_published_setup(self):
        cfg = pipeline.RunConfig()
        assert cfg.vocab.dim == 89
        assert cfg.window == 7
        assert cfg.hidden_size == 128
        assert cfg.batch_size == 64
        assert cfg.learning_rate == 0.001
        assert cfg.epochs == 400

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            pipeline.RunConfig(phase1_notes=0)
        with pytest.raises(ValueError):
            pipeline.RunConfig(window=0)

    @pytest.mark.parametrize("name", ["learning_rate", "clip_norm", "plateau_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_rates(self, name, value):
        with pytest.raises(ValueError, match=f"training.{name} must be finite"):
            pipeline.RunConfig(**{name: value})

    @pytest.mark.parametrize("name, value, message", [
        ("clip_norm", 0.0, "clip_norm must be > 0"),
        ("clip_norm", -1.0, "clip_norm must be > 0"),
        ("learning_rate", 0.0, "learning_rate must be > 0"),
        ("plateau_threshold", -1e-4, "plateau_threshold must be >= 0"),
    ])
    def test_rejects_out_of_range_rates(self, name, value, message):
        with pytest.raises(ValueError, match=message):
            pipeline.RunConfig(**{name: value})

    def test_zero_plateau_threshold_accepted(self):
        assert pipeline.RunConfig(plateau_threshold=0.0).plateau_threshold == 0.0

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seeds.shuffle must be >= 0"):
            pipeline.Seeds(shuffle=-1)

    def test_config_dict_round_trip(self):
        cfg = tiny_config()
        data = pipeline.config_to_dict(cfg)
        assert pipeline.config_from_dict(data) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            pipeline.config_from_dict({"modle": {}})
        with pytest.raises(ValueError, match="unknown keys"):
            pipeline.config_from_dict({"training": {"learningrate": 1}})


class TestCorpusWindows:
    def test_window_count_arithmetic(self):
        cfg = tiny_config()
        rng = np.random.default_rng(1)
        corpus = [random_melody(rng, cfg.vocab, 120) for _ in range(3)]
        examples = pipeline.corpus_windows(corpus, cfg)
        assert len(examples) == (120 - 7) * 3 == 339

    def test_too_short_corpus_is_error(self):
        cfg = tiny_config()
        rng = np.random.default_rng(2)
        corpus = [random_melody(rng, cfg.vocab, 7)]
        with pytest.raises(ValueError, match="windows"):
            pipeline.train_orig(corpus, cfg)


class TestTrainDeterminism:
    def test_identical_seeds_identical_weights(self):
        cfg = tiny_config()
        corpus = tiny_corpus(cfg)
        a, trace_a, _ = pipeline.train_orig(corpus, cfg)
        b, trace_b, _ = pipeline.train_orig(corpus, cfg)
        assert trace_a == trace_b
        for (_, arr_a), (_, arr_b) in zip(a.tensors(), b.tensors()):
            assert np.array_equal(arr_a, arr_b)

    def test_retrain_on_unaugmented_reproduces_orig(self):
        cfg = tiny_config()
        corpus = tiny_corpus(cfg)
        examples = pipeline.corpus_windows(corpus, cfg)
        orig, _, _ = pipeline.train_on_examples(examples, cfg)
        again, _, _ = pipeline.train_on_examples(
            pipeline.build_augmented_dataset(examples, [], cfg), cfg
        )
        for (_, arr_a), (_, arr_b) in zip(orig.tensors(), again.tensors()):
            assert np.array_equal(arr_a, arr_b)


class TestTrainModes:
    MODES = ("dia", "spi", "tri", "mix")

    def datasets(self, cfg, empty=()):
        """Four datasets of unequal size, in mode order; those in ``empty`` hold no window."""
        windows = pipeline.corpus_windows(tiny_corpus(cfg), cfg)
        return {mode: windows[: 0 if mode in empty else len(windows) - 9 * k]
                for k, mode in enumerate(self.MODES)}

    def test_pool_changes_no_byte(self, monkeypatch):
        # At these sizes OpenBLAS runs every product on one thread, so the
        # serial oracle does not depend on the suite's thread count.
        cfg = tiny_config()
        datasets = self.datasets(cfg)
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        threads = threading.active_count()
        pooled = pipeline.train_modes(datasets, cfg)
        assert list(pooled) == list(self.MODES)
        for mode, windows in datasets.items():
            params, trace, kept = pipeline.train_on_examples(windows, cfg)
            got_params, got_trace, got_kept = pooled[mode]
            for (name, want), (_, got) in zip(params.tensors(), got_params.tensors()):
                assert got.tobytes() == want.tobytes(), f"{mode}.{name}"
            assert (got_trace, got_kept) == (trace, kept)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_calls_return_in_mode_order(self, monkeypatch):
        # spi's worker finishes long before dia's; its train_on_examples call
        # in this process still returns after dia's.
        cfg = tiny_config(epochs=20)
        windows = pipeline.corpus_windows(tiny_corpus(cfg), cfg)
        datasets = {"dia": np.concatenate([windows] * 8), "spi": windows[:16]}
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        returned = []
        original = pipeline.train_on_examples

        @wraps(original)
        def recorded(windows, *args):
            result = original(windows, *args)
            returned.append(len(windows))
            return result

        monkeypatch.setattr(pipeline, "train_on_examples", recorded)
        pipeline.train_modes(datasets, cfg)
        assert returned == [len(windows) for windows in datasets.values()]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_first_failure_in_mode_order_names_its_mode(self, monkeypatch, cpus):
        cfg = tiny_config()
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: cpus)
        threads = threading.active_count()
        with pytest.raises(ValueError, match=r"^spi: no training examples to stack$"):
            pipeline.train_modes(self.datasets(cfg, empty=("spi", "mix")), cfg)
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    @pytest.mark.parametrize("parent", ["2", None])
    def test_workers_start_with_one_blas_thread(self, monkeypatch, parent):
        for name in pipeline.BLAS_THREAD_VARS:
            if parent is None:
                monkeypatch.delenv(name, raising=False)
            else:
                monkeypatch.setenv(name, parent)
        before = dict(os.environ)
        with pipeline._worker_pool(1) as pool:
            seen = list(pool.map(os.getenv, pipeline.BLAS_THREAD_VARS))
        assert seen == ["1", "1", "1"]
        assert dict(os.environ) == before
        assert multiprocessing.active_children() == []


class TestKeptEpoch:
    def test_manifest_records_the_epoch_whose_weights_were_saved(self, tmp_path):
        # At this learning rate the loss rises again after its best epoch.
        cfg = tiny_config(epochs=30, learning_rate=0.3, plateau_patience=31)
        corpus = tiny_corpus(cfg)
        pipeline.train(corpus, cfg, tmp_path / "full")
        entry = pipeline.read_manifest(tmp_path / "full")["modes"]["orig"]
        assert entry["epochs_run"] == 30
        assert entry["best_epoch"] < 30
        assert entry["best_loss"] < entry["final_loss"]

        pipeline.train(corpus, replace(cfg, epochs=entry["best_epoch"]), tmp_path / "cut")
        cut = pipeline.read_manifest(tmp_path / "cut")["modes"]["orig"]
        assert cut["weights_sha256"] == entry["weights_sha256"]
        assert cut["best_epoch"] == cut["epochs_run"] == entry["best_epoch"]
        assert cut["best_loss"] == cut["final_loss"] == entry["best_loss"]


class TestPhase1Generate:
    def _setup(self, rules=frozenset({Rule.DIA}), n=60):
        cfg = tiny_config(epochs=2)
        corpus = tiny_corpus(cfg)
        params, _, _ = pipeline.train_orig(corpus, cfg)
        seed_phrase = pipeline.default_seed_phrase(corpus, cfg)
        rng = network.make_rng(7)
        notes, amended = pipeline.phase1_generate(params, seed_phrase, n, rules, cfg, rng)
        return cfg, seed_phrase, notes, amended

    def test_exact_note_count(self):
        _, _, notes, _ = self._setup(n=60)
        assert len(notes) == 60

    def test_no_rules_no_amendments(self):
        cfg, seed_phrase, notes, amended = self._setup(rules=frozenset(), n=60)
        assert amended == []
        # With no rule to reject a draw, the filtered stream draws as the free one.
        params, _, _ = pipeline.train_orig(tiny_corpus(cfg), cfg)
        assert notes == pipeline.phase2_generate(params, seed_phrase, 60, cfg, network.make_rng(7))

    def test_every_note_conforms_dia(self):
        _, seed_phrase, notes, _ = self._setup(rules=frozenset({Rule.DIA}), n=120)
        assert all(grammar.conforms_dia(n) for n in notes)

    def test_untrained_model_amends_some_notes(self):
        _, _, notes, amended = self._setup(rules=frozenset({Rule.DIA}), n=120)
        assert len(amended) > 0

    def test_spi_soundness_along_history(self):
        # The filter constrains each generated note against its predecessor;
        # intervals inside the seed phrase itself are not its business.
        _, seed_phrase, notes, _ = self._setup(rules=frozenset({Rule.SPI}), n=120)
        stream = [seed_phrase[-1]] + notes
        assert all(
            grammar.conforms_spi(a, b) for a, b in zip(stream, stream[1:])
        )

    def test_amended_pairs_record_window_context(self):
        cfg, seed_phrase, notes, amended = self._setup(rules=frozenset({Rule.DIA}), n=120)
        assert amended, "chromatic-capable model should trigger amendments"
        for pair in amended:
            assert len(pair.context) == cfg.window
            assert pair.attempts > 1
            assert grammar.conforms_dia(pair.note)

    def test_wrong_seed_length_rejected(self):
        cfg = tiny_config()
        params = network.init_params(cfg.vocab.dim, cfg.hidden_size, network.make_rng(0))
        with pytest.raises(ValueError, match="seed phrase"):
            pipeline.phase1_generate(
                params, [NoteEvent(60, 4)], 10, frozenset(), cfg, network.make_rng(1)
            )


def no_windows(cfg):
    return np.empty((0, cfg.window + 1, 2), dtype=np.int16)


class TestBuildAugmentedDataset:
    def test_training_inputs_are_encoded_notes(self):
        # The hot columns fit expands are the vectors generation feeds forward.
        cfg = tiny_config()
        corpus = tiny_corpus(cfg)
        rng = np.random.default_rng(9)
        pairs = [
            AmendedPair(
                context=tuple(random_melody(rng, cfg.vocab, cfg.window).notes),
                note=NoteEvent(64, 4),
                rule_set=frozenset({Rule.DIA}),
                attempts=2,
            )
            for _ in range(5)
        ]
        contexts = [melody.notes[k : k + cfg.window]
                    for melody in corpus for k in range(len(melody.notes) - cfg.window)]
        contexts += [pair.context for pair in pairs]
        dataset = pipeline.build_augmented_dataset(pipeline.corpus_windows(corpus, cfg), pairs, cfg)
        columns, _, _ = stack_examples(dataset, cfg.vocab)
        expected = np.stack([np.stack([encode_note(note, cfg.vocab) for note in context])
                             for context in contexts])
        assert np.array_equal(network.one_hot(columns, cfg.vocab.dim), expected)

    def test_empty_amendments_identity(self):
        cfg = tiny_config()
        examples = pipeline.corpus_windows(tiny_corpus(cfg), cfg)
        augmented = pipeline.build_augmented_dataset(examples, [], cfg)
        assert pipeline.dataset_fingerprint(augmented) == pipeline.dataset_fingerprint(examples)

    def test_count_additivity(self):
        cfg = tiny_config()
        examples = pipeline.corpus_windows(tiny_corpus(cfg), cfg)
        pairs = [
            AmendedPair(
                context=tuple(NoteEvent(60 + i, 4) for i in range(cfg.window)),
                note=NoteEvent(64, 4),
                rule_set=frozenset({Rule.DIA}),
                attempts=2,
            )
        ] * 41
        augmented = pipeline.build_augmented_dataset(examples, pairs, cfg)
        assert len(augmented) == len(examples) + 41

    def test_amended_example_targets_the_replacement_note(self):
        cfg = tiny_config()
        pair = AmendedPair(
            context=tuple(NoteEvent(60, 4) for _ in range(cfg.window)),
            note=NoteEvent(67, 2),
            rule_set=frozenset({Rule.DIA}),
            attempts=2,
        )
        (window,) = pipeline.build_augmented_dataset(no_windows(cfg), [pair], cfg)
        assert tuple(window[-1]) == note_indices(NoteEvent(67, 2), cfg.vocab)

    def test_mix_order_is_orig_then_dia_spi_tri(self):
        cfg = tiny_config()

        def pair(pitch):
            return AmendedPair(
                context=tuple(NoteEvent(60, 4) for _ in range(cfg.window)),
                note=NoteEvent(pitch, 4),
                rule_set=frozenset({Rule.DIA}),
                attempts=2,
            )

        dia, spi, tri = pair(60), pair(62), pair(64)
        mixed = pipeline.build_augmented_dataset(no_windows(cfg), [dia] + [spi] + [tri], cfg)
        targets = list(mixed[:, -1, 0])
        assert targets == [
            note_indices(NoteEvent(p, 4), cfg.vocab)[0] for p in (60, 62, 64)
        ]


class TestPhase2Generate:
    def test_exact_length(self):
        cfg = tiny_config(epochs=2)
        corpus = tiny_corpus(cfg)
        params, _, _ = pipeline.train_orig(corpus, cfg)
        seed_phrase = pipeline.default_seed_phrase(corpus, cfg)
        notes = pipeline.phase2_generate(params, seed_phrase, 50, cfg, network.make_rng(3))
        assert len(notes) == 50

    def test_never_touches_grammar_predicates(self, monkeypatch):
        cfg = tiny_config(epochs=2)
        corpus = tiny_corpus(cfg)
        params, _, _ = pipeline.train_orig(corpus, cfg)
        seed_phrase = pipeline.default_seed_phrase(corpus, cfg)

        def forbidden(*args, **kwargs):
            raise AssertionError("grammar predicate consulted during free generation")

        for name in ("conforms", "conforms_dia", "conforms_spi", "conforms_tri",
                     "constrained_sample"):
            monkeypatch.setattr(grammar, name, forbidden)
        notes = pipeline.phase2_generate(params, seed_phrase, 40, cfg, network.make_rng(4))
        assert len(notes) == 40

    def test_differs_from_filtered_stream_when_amended(self):
        cfg = tiny_config(epochs=2)
        corpus = tiny_corpus(cfg)
        params, _, _ = pipeline.train_orig(corpus, cfg)
        seed_phrase = pipeline.default_seed_phrase(corpus, cfg)
        free = pipeline.phase2_generate(params, seed_phrase, 100, cfg, network.make_rng(5))
        filtered, amended = pipeline.phase1_generate(
            params, seed_phrase, 100, frozenset({Rule.DIA}), cfg, network.make_rng(5)
        )
        assert amended, "expected at least one amendment on an untrained model"
        assert free != filtered

    def test_shared_seed_same_output_per_params(self):
        cfg = tiny_config(epochs=2)
        corpus = tiny_corpus(cfg)
        params, _, _ = pipeline.train_orig(corpus, cfg)
        seed_phrase = pipeline.default_seed_phrase(corpus, cfg)
        a = pipeline.phase2_generate(params, seed_phrase, 30, cfg, network.make_rng(42))
        b = pipeline.phase2_generate(params, seed_phrase, 30, cfg, network.make_rng(42))
        assert a == b


def one_shot_generate(params, seed_phrase, n, cfg, rng, rules=None):
    """Reference generation: each note from a one-shot forward over the last W notes.

    Free sampling when ``rules`` is None, else rule-filtered sampling that
    also returns the amended pairs, as ``phase1_generate`` does.
    """
    notes = list(seed_phrase)
    pairs = []
    for _ in range(n):
        context = notes[-cfg.window :]
        raw = network.forward(params, np.stack([encode_note(x, cfg.vocab) for x in context]))
        pitch_dist, dur_dist = split_distribution(raw, cfg.vocab)
        if rules is None:
            note = NoteEvent(cfg.vocab.pitch_lo + sample_index(pitch_dist, rng),
                             cfg.vocab.durations[sample_index(dur_dist, rng)])
        else:
            note, attempts, amended = grammar.constrained_sample(
                pitch_dist, dur_dist, notes, rules, cfg.vocab, rng, cap=cfg.resample_cap
            )
            if amended:
                pairs.append(AmendedPair(context=tuple(context), note=note,
                                         rule_set=rules, attempts=attempts))
        notes.append(note)
    return notes[cfg.window :], pairs


class TestGenerationMatchesOneShotLoop:
    @pytest.fixture(scope="class")
    def trained(self):
        cfg = tiny_config(epochs=2)
        corpus = tiny_corpus(cfg)
        params, _, _ = pipeline.train_orig(corpus, cfg)
        return cfg, params, pipeline.default_seed_phrase(corpus, cfg)

    def test_phase2_same_notes(self, trained):
        cfg, params, seed_phrase = trained
        notes = pipeline.phase2_generate(params, seed_phrase, 300, cfg, network.make_rng(11))
        expected, _ = one_shot_generate(params, seed_phrase, 300, cfg, network.make_rng(11))
        assert notes == expected

    @pytest.mark.parametrize("rules", [
        frozenset({Rule.DIA}), frozenset({Rule.TRI}), frozenset(Rule),
    ], ids=["dia", "tri", "all"])
    def test_phase1_same_notes_and_pairs(self, trained, rules):
        cfg, params, seed_phrase = trained
        notes, pairs = pipeline.phase1_generate(
            params, seed_phrase, 300, rules, cfg, network.make_rng(12)
        )
        expected_notes, expected_pairs = one_shot_generate(
            params, seed_phrase, 300, cfg, network.make_rng(12), rules
        )
        assert expected_pairs, "the comparison needs amended pairs"
        assert notes == expected_notes
        assert pairs == expected_pairs


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = tiny_config()
    corpus = tiny_corpus(cfg)
    out_dir = tmp_path_factory.mktemp("run")
    manifest = pipeline.run_experiment(corpus, cfg, out_dir)
    return cfg, corpus, out_dir, manifest


class TestRunExperiment:
    def test_writes_five_weight_sets(self, run):
        _, _, out_dir, manifest = run
        assert sorted(manifest["modes"]) == ["dia", "mix", "orig", "spi", "tri"]
        for mode in pipeline.MODES:
            assert (out_dir / "weights" / f"{mode}.wts").exists()

    def test_retrained_weights_differ_from_each_other(self, run):
        _, _, _, manifest = run
        hashes = [manifest["modes"][m]["weights_sha256"] for m in pipeline.MODES]
        assert len(set(hashes)) == len(hashes)

    def test_dataset_additivity(self, run):
        _, _, _, manifest = run
        orig_size = manifest["modes"]["orig"]["dataset_size"]
        for mode in ("dia", "spi", "tri"):
            amended = manifest["phase1"][mode]["amended"]
            assert manifest["modes"][mode]["dataset_size"] == orig_size + amended
        total_amended = sum(manifest["phase1"][m]["amended"] for m in ("dia", "spi", "tri"))
        assert manifest["modes"]["mix"]["dataset_size"] == orig_size + total_amended

    def test_provenance_recorded(self, run):
        _, _, out_dir, manifest = run
        for mode in pipeline.MODES:
            entry = manifest["modes"][mode]
            assert len(entry["dataset_sha256"]) == 64
            assert len(entry["weights_sha256"]) == 64
        on_disk = json.loads((out_dir / "manifest.json").read_text())
        assert on_disk["modes"] == manifest["modes"]

    def test_reports_have_all_columns(self, run):
        _, _, out_dir, _ = run
        header = (out_dir / "report.txt").read_text().splitlines()[0].split()
        assert header == ["DS", "Orig", "DIA", "SPI", "TRI", "MIX"]

    def test_amended_files_load_back(self, run):
        cfg, _, out_dir, manifest = run
        for rule in pipeline.RULE_ORDER:
            pairs = pipeline.load_amended(out_dir / "amended" / f"{rule.value}.json")
            assert len(pairs) == manifest["phase1"][rule.value]["amended"]
            for pair in pairs:
                assert len(pair.context) == cfg.window

    def test_melodies_export_and_reload(self, run):
        cfg, _, out_dir, _ = run
        for mode in pipeline.MODES:
            notes = pipeline.load_melody(out_dir / "melodies" / f"{mode}.json")
            assert len(notes) == cfg.phase2_notes
            assert (out_dir / "melodies" / f"{mode}.mid").exists()


class TestCorpusSerialization:
    def test_round_trip(self, tmp_path):
        cfg = tiny_config()
        corpus = tiny_corpus(cfg)
        path = tmp_path / "corpus.json"
        pipeline.save_corpus(path, corpus)
        loaded = pipeline.load_corpus(path)
        assert [m.notes for m in loaded] == [m.notes for m in corpus]

    def test_walk_corpus_hits_design_targets(self):
        # The synthetic corpus builder must deliver roughly half-diatonic,
        # leap-bearing, triad-poor content over the full default vocabulary,
        # or the directional acceptance checks are moot.
        from melogram.encoding import default_vocabulary
        from melogram.metrics import evaluate

        rng = np.random.default_rng(77)
        report = evaluate(walk_melody(rng, default_vocabulary(), 2000).notes)
        assert 35.0 < report.p_dia < 65.0
        assert report.spi_violation_rate > 5.0
        assert report.p_tri < 5.0


class TestInputSchemas:
    @pytest.mark.parametrize("loader, text, where", [
        (pipeline.load_corpus, '{"piece": []}', "missing field 'pieces'"),
        (pipeline.load_corpus, '{"pieces": [{"notes": 5}]}', "pieces[0].notes: expected list"),
        (pipeline.load_corpus, '{"pieces": [{"notes": [[60, 4], [60]]}]}', "pieces[0].notes[1]"),
        (pipeline.load_corpus, '{"pieces": [[]]}', "pieces[0]: expected an object"),
        (pipeline.load_melody, '{"notes": [[60, 4], [300, 4]]}', "notes[1]: pitch 300"),
        (pipeline.load_melody, '{"notes": [], "source_key": {"tonic": 3}}',
         "source_key: missing field 'mode'"),
        (pipeline.load_melody, '{"notes": [[60, 4]', "not valid JSON"),
        (pipeline.load_amended, '{"context": []}', "top level: expected a list"),
        (pipeline.load_amended,
         '[{"context": [[60, 4]], "note": [61], "rules": ["dia"], "attempts": 2}]',
         "[0].note: expected a [pitch, duration] pair"),
        (pipeline.load_amended,
         '[{"context": [[60, 4]], "note": [61, 4], "rules": ["foo"], "attempts": 2}]',
         "[0].rules"),
        (pipeline.load_amended, '[{"context": [[60, 4]], "note": [61, 4], "rules": []}]',
         "[0]: missing field 'attempts'"),
    ], ids=["corpus-no-pieces", "corpus-notes-int", "corpus-short-note", "corpus-piece-list",
            "melody-pitch", "melody-key", "melody-json", "amended-object", "amended-note",
            "amended-rule", "amended-attempts"])
    def test_schema_error_names_file_and_field(self, tmp_path, loader, text, where):
        path = tmp_path / "input.json"
        path.write_text(text)
        with pytest.raises(pipeline.InputFormatError) as info:
            loader(path)
        assert str(info.value).startswith(f"{path}: ")
        assert where in str(info.value)
