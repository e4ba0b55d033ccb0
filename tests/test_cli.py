"""End-to-end tests of the command-line interface."""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import re
import shlex
import shutil
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from melogram import cli, pipeline
from melogram.encoding import NoteVocabulary
from melogram.midi import extract_melody, parse_midi, quantize_durations
from melogram.notes import Key, Melody, NoteEvent

from conftest import random_melody
from test_midi import off, on, smf


def tiny_config_file(tmp_path: Path) -> Path:
    config = {
        "vocabulary": {"pitch_lo": 55, "pitch_hi": 79, "durations": [1, 2, 4, 8]},
        "model": {"hidden_size": 8, "window": 7},
        "training": {"epochs": 3, "batch_size": 16},
        "generation": {"phase1_notes": 40, "phase2_notes": 40},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    return path


def write_corpus(tmp_path: Path, pieces=3, length=40, seed=5) -> Path:
    vocab = NoteVocabulary(pitch_lo=55, pitch_hi=79, durations=(1, 2, 4, 8))
    rng = np.random.default_rng(seed)
    corpus = [random_melody(rng, vocab, length) for _ in range(pieces)]
    path = tmp_path / "corpus.json"
    pipeline.save_corpus(path, corpus)
    return path


def config_variant(tmp_path: Path, name: str, **blocks) -> Path:
    """The tiny config file with the keys of ``blocks`` changed, written as ``<name>.json``."""
    data = json.loads(tiny_config_file(tmp_path).read_text())
    for block, values in blocks.items():
        data[block].update(values)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data))
    return path


def to_older_layout(run_dir: Path) -> None:
    """Rewrite the run's manifest as versions whose entries held no config wrote it.

    The config of ``orig`` and the seed phrase of the amend streams move to
    top-level ``config`` and ``seed_phrase`` keys.
    """
    path = run_dir / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["config"] = manifest["modes"]["orig"]["config"]
    for block in ("modes", "phase1"):
        for entry in manifest.get(block, {}).values():
            del entry["config"]
            if "seed_phrase" in entry:
                manifest["seed_phrase"] = entry.pop("seed_phrase")
    path.write_text(pipeline.json_text(manifest))


def melody_track(pitches, ticks=240, time_sig=(4, 4), key_sig=None):
    events = [(0, bytes([0xFF, 0x58, 0x04, time_sig[0],
                         {1: 0, 2: 1, 4: 2, 8: 3}[time_sig[1]], 24, 8]))]
    if key_sig is not None:
        sharps, minor = key_sig
        events.append((0, bytes([0xFF, 0x59, 0x02, sharps & 0xFF, minor])))
    for pitch in pitches:
        events.append((0, on(pitch)))
        events.append((ticks, off(pitch)))
    return events


class TestIngest:
    def test_meter_filter_keeps_only_four_four(self, tmp_path, caplog):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        pitches = [60, 62, 64, 65, 67, 69, 71, 72]
        (midi_dir / "waltz.mid").write_bytes(
            smf(melody_track(pitches, time_sig=(3, 4), key_sig=(0, 0)))
        )
        (midi_dir / "square.mid").write_bytes(
            smf(melody_track(pitches, time_sig=(4, 4), key_sig=(0, 0)))
        )
        out = tmp_path / "corpus.json"
        code = cli.main(["ingest", str(midi_dir), "--out", str(out)])
        assert code == 0
        corpus = pipeline.load_corpus(out)
        assert len(corpus) == 1
        assert "waltz.mid" in caplog.text and "3/4" in caplog.text

        # With --allow-any-meter the waltz is kept and not logged as rejected.
        caplog.clear()
        assert cli.main(["ingest", str(midi_dir), "--out", str(out), "--allow-any-meter"]) == 0
        assert len(pipeline.load_corpus(out)) == 2
        assert "rejected waltz.mid" not in caplog.text

    def test_key_override_when_meta_absent(self, tmp_path):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        pitches = [62, 64, 66, 67, 69, 71, 73, 74]  # D major scale
        (midi_dir / "tune.mid").write_bytes(smf(melody_track(pitches)))
        out = tmp_path / "corpus.json"

        # Without a key the piece is rejected and nothing usable remains.
        assert cli.main(["ingest", str(midi_dir), "--out", str(out)]) == cli.EXIT_VALIDATION

        assert cli.main(
            ["ingest", str(midi_dir), "--out", str(out), "--key", "D:major"]
        ) == 0
        corpus = pipeline.load_corpus(out)
        assert [n.pitch for n in corpus[0].notes] == [60, 62, 64, 65, 67, 69, 71, 72]

    def test_detect_key_flag(self, tmp_path):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        pitches = [62, 64, 66, 67, 69, 71, 73, 74, 69, 66, 62, 67, 74, 73, 71, 69]
        (midi_dir / "tune.mid").write_bytes(smf(melody_track(pitches)))
        out = tmp_path / "corpus.json"
        assert cli.main(["ingest", str(midi_dir), "--out", str(out), "--detect-key"]) == 0
        corpus = pipeline.load_corpus(out)
        classes = {n.pitch % 12 for n in corpus[0].notes}
        assert classes <= {0, 2, 4, 5, 7, 9, 11}  # transposed onto the white keys

    def test_rerun_is_byte_identical(self, tmp_path):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        (midi_dir / "a.mid").write_bytes(
            smf(melody_track([60, 62, 64, 65, 67, 69, 71, 72], key_sig=(0, 0)))
        )
        out1 = tmp_path / "c1.json"
        out2 = tmp_path / "c2.json"
        assert cli.main(["ingest", str(midi_dir), "--out", str(out1)]) == 0
        assert cli.main(["ingest", str(midi_dir), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_corrupt_file_is_skipped_and_named(self, tmp_path, caplog):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        (midi_dir / "good.mid").write_bytes(
            smf(melody_track([60, 62, 64, 65, 67, 69, 71, 72], key_sig=(0, 0)))
        )
        # 0xD7 is no MIDI data byte: a note-on/off pair with it as the pitch.
        (midi_dir / "corrupt.mid").write_bytes(smf(melody_track([60, 0xD7, 64], key_sig=(0, 0))))
        out = tmp_path / "corpus.json"
        assert cli.main(["ingest", str(midi_dir), "--out", str(out)]) == 0
        assert len(pipeline.load_corpus(out)) == 1
        assert "rejected corrupt.mid" in caplog.text

    def test_library_ingest_matches_command(self, tmp_path):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        (midi_dir / "a.mid").write_bytes(smf(melody_track([62, 64, 66, 67, 69, 71, 73, 74])))
        out = tmp_path / "corpus.json"
        assert cli.main(["ingest", str(midi_dir), "--out", str(out), "--key", "D:major"]) == 0
        corpus = pipeline.ingest(midi_dir, pipeline.RunConfig(), key=Key.parse("D:major"))
        assert corpus == pipeline.load_corpus(out)

    def test_empty_directory_fails_validation(self, tmp_path):
        midi_dir = tmp_path / "empty"
        midi_dir.mkdir()
        code = cli.main(["ingest", str(midi_dir), "--out", str(tmp_path / "c.json")])
        assert code == cli.EXIT_VALIDATION


class TestStagedCommands:
    def test_train_amend_retrain_generate_evaluate(self, tmp_path):
        config = tiny_config_file(tmp_path)
        corpus = write_corpus(tmp_path)
        run_dir = tmp_path / "run"

        assert cli.main(["train", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        assert (run_dir / "weights" / "orig.wts").exists()

        assert cli.main(["amend", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        for rule in ("dia", "spi", "tri"):
            assert (run_dir / "amended" / f"{rule}.json").exists()

        assert cli.main(["retrain", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        for mode in ("dia", "spi", "tri", "mix"):
            assert (run_dir / "weights" / f"{mode}.wts").exists()

        melody_out = tmp_path / "gen.json"
        assert cli.main(["generate", "--run-dir", str(run_dir), "--config", str(config),
                         "--mode", "dia", "-n", "30", "--corpus", str(corpus),
                         "--out", str(melody_out)]) == 0
        assert len(pipeline.load_melody(melody_out)) == 30

        assert cli.main(["evaluate", str(melody_out), "--corpus", str(corpus),
                         "--out", str(tmp_path / "report")]) == 0
        report = json.loads((tmp_path / "report" / "report.json").read_text())
        assert set(report) == {"DS", "gen"}

        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert set(manifest["modes"]) == {"orig", "dia", "spi", "tri", "mix"}

    @pytest.mark.parametrize("n", [0, -3])
    def test_generate_refuses_fewer_than_one_note(self, tmp_path, caplog, n):
        config, corpus = tiny_config_file(tmp_path), write_corpus(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        code = cli.main(["generate", "--run-dir", str(run_dir), "--config", str(config),
                         "--mode", "orig", "-n", str(n), "--corpus", str(corpus)])
        assert code == cli.EXIT_VALIDATION
        assert f"must be >= 1, got {n}" in caplog.text
        assert not (run_dir / "melodies").exists()

    @pytest.mark.parametrize("names", [("a/mix.json", "b/mix.json"), ("DS.json",)],
                             ids=["two-mix-files", "corpus-and-DS-file"])
    def test_evaluate_refuses_two_files_for_one_column(self, tmp_path, caplog, names):
        corpus = write_corpus(tmp_path)
        paths = [tmp_path / name for name in names]
        for path in paths:
            path.parent.mkdir(parents=True, exist_ok=True)
            pipeline.save_melody(path, [NoteEvent(60 + i, 4) for i in range(8)])
        code = cli.main(["evaluate", *map(str, paths), "--corpus", str(corpus),
                         "--out", str(tmp_path / "report")])
        assert code == cli.EXIT_VALIDATION
        first = corpus if len(paths) == 1 else paths[0]
        assert f"{first} and {paths[-1]} both map to report column" in caplog.text
        assert not (tmp_path / "report").exists()

    @pytest.mark.parametrize("short", ["melody", "corpus"])
    def test_evaluate_names_the_file_too_short_to_count(self, tmp_path, caplog, short):
        ok = tmp_path / "ok.json"
        pipeline.save_melody(ok, [NoteEvent(60 + i, 4) for i in range(8)])
        two = [NoteEvent(60, 4), NoteEvent(62, 4)]
        if short == "melody":
            bad = tmp_path / "short.json"
            pipeline.save_melody(bad, two)
            argv = ["evaluate", str(ok), str(bad)]
        else:
            bad = tmp_path / "corpus.json"
            pipeline.save_corpus(bad, [Melody(notes=two)])
            argv = ["evaluate", str(ok), "--corpus", str(bad)]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        assert (f"{bad}: interval and triad statistics need a melody of at least three notes"
                in caplog.text)

    def test_amend_with_a_seed_phrase_needs_no_corpus(self, tmp_path, caplog):
        config, run_dir = tiny_config_file(tmp_path), tmp_path / "run"
        assert cli.main(["train", "--corpus", str(write_corpus(tmp_path)),
                         "--config", str(config), "--run-dir", str(run_dir)]) == 0
        common = ["--config", str(config), "--run-dir", str(run_dir)]
        assert cli.main(["amend", *common, "--seed-phrase",
                         "60:4,62:4,64:4,65:4,67:4,69:4,71:4"]) == 0
        assert sorted(p.name for p in (run_dir / "amended").iterdir()) == [
            "dia.json", "spi.json", "tri.json"]
        assert cli.main(["amend", *common]) == cli.EXIT_VALIDATION
        assert "need --seed-phrase or --corpus" in caplog.text
        assert cli.main(["amend", *common, "--seed-phrase", ""]) == cli.EXIT_VALIDATION
        assert "bad seed note ''" in caplog.records[-1].getMessage()

    def test_conjunction_filter_staged_path(self, tmp_path):
        config_data = json.loads(tiny_config_file(tmp_path).read_text())
        config_data["generation"] = {"phase1_notes": 40, "phase2_notes": 40,
                                     "mix_conjunction_filter": True}
        config = tmp_path / "conj.json"
        config.write_text(json.dumps(config_data))
        corpus = write_corpus(tmp_path)
        run_dir = tmp_path / "run"

        assert cli.main(["train", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        assert cli.main(["amend", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        # The conjunction stream is written alongside the three rule streams.
        assert (run_dir / "amended" / "mix.json").exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["phase1"]["mix"]["rules"] == ["dia", "spi", "tri"]
        assert cli.main(["retrain", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        mix_pairs = pipeline.load_amended(run_dir / "amended" / "mix.json")
        orig_windows = (40 - 7) * 3
        assert manifest["modes"]["orig"]["weights_sha256"]
        retrained = json.loads((run_dir / "manifest.json").read_text())
        assert retrained["modes"]["mix"]["dataset_size"] == orig_windows + len(mix_pairs)

    def test_amend_rule_subset_reproduces_its_streams(self, tmp_path, caplog):
        config = tiny_config_file(tmp_path)
        corpus = write_corpus(tmp_path)
        full, subset = tmp_path / "full", tmp_path / "subset"
        common = ["--corpus", str(corpus), "--config", str(config)]
        assert cli.main(["train", *common, "--run-dir", str(full)]) == 0
        assert cli.main(["amend", *common, "--run-dir", str(full)]) == 0
        (subset / "weights").mkdir(parents=True)
        shutil.copy(full / "weights" / "orig.wts", subset / "weights" / "orig.wts")

        assert cli.main(["amend", *common, "--run-dir", str(subset), "--rules", "tri, dia"]) == 0
        assert sorted(p.name for p in (subset / "amended").iterdir()) == ["dia.json", "tri.json"]
        for name in ("dia.json", "tri.json"):
            assert (subset / "amended" / name).read_bytes() == (
                full / "amended" / name).read_bytes()

        code = cli.main(["amend", *common, "--run-dir", str(subset), "--rules", "dia,fancy"])
        assert code == cli.EXIT_VALIDATION
        assert "valid rules: dia, spi, tri" in caplog.text
        code = cli.main(["amend", *common, "--run-dir", str(subset), "--rules", ""])
        assert code == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == "rule set must not be empty"

    def test_second_train_starts_a_fresh_manifest(self, tmp_path):
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path)), "--run-dir", str(tmp_path / "run")]
        for command in ("train", "amend", "train"):
            assert cli.main([command, *common]) == 0
        manifest = pipeline.read_manifest(tmp_path / "run")
        assert sorted(manifest) == ["corpus", "modes"]
        assert list(manifest["modes"]) == ["orig"]

    def test_each_entry_records_the_config_and_seed_phrase_that_made_its_file(self, tmp_path):
        corpus, run_dir = write_corpus(tmp_path), tmp_path / "run"
        configs = {
            "tiny": tiny_config_file(tmp_path),
            "fewer": config_variant(tmp_path, "fewer", generation={"phase1_notes": 33}),
            "longer": config_variant(tmp_path, "longer",
                                     training={"epochs": 5, "plateau_patience": 5}),
        }
        recorded = {name: pipeline.config_to_dict(cli.load_config(str(path)))
                    for name, path in configs.items()}
        phrase = "60:4,62:4,64:4,65:4,67:4,69:4,71:4"

        def run(command, config, *extra):
            assert cli.main([command, "--corpus", str(corpus), "--config", str(configs[config]),
                             "--run-dir", str(run_dir), *extra]) == 0

        run("train", "tiny")
        run("amend", "fewer")
        run("retrain", "longer")
        spi = (run_dir / "amended" / "spi.json").read_bytes()
        run("amend", "tiny", "--rules", "dia", "--seed-phrase", phrase)
        assert (run_dir / "amended" / "spi.json").read_bytes() == spi  # still made by "fewer"

        manifest = pipeline.read_manifest(run_dir)
        assert sorted(manifest) == ["corpus", "modes", "phase1"]
        assert manifest["modes"]["orig"]["config"] == recorded["tiny"]
        for mode in ("dia", "spi", "tri", "mix"):
            assert manifest["modes"][mode]["config"] == recorded["longer"], mode
        default = pipeline.default_seed_phrase(pipeline.load_corpus(corpus),
                                               cli.load_config(str(configs["tiny"])))
        streams = {"dia": ("tiny", cli.parse_seed_phrase(phrase), 40),
                   "spi": ("fewer", default, 33), "tri": ("fewer", default, 33)}
        for stream, (config, seed_phrase, generated) in streams.items():
            entry = manifest["phase1"][stream]
            assert entry["config"] == recorded[config], stream
            assert entry["seed_phrase"] == [[n.pitch, n.duration] for n in seed_phrase], stream
            assert entry["generated"] == generated, stream

    def test_retrain_refuses_the_amended_pairs_of_an_earlier_orig(self, tmp_path, caplog):
        (tmp_path / "other").mkdir()
        first, other = write_corpus(tmp_path), write_corpus(tmp_path / "other", seed=6)
        run_dir = tmp_path / "run"
        common = ["--config", str(tiny_config_file(tmp_path)), "--run-dir", str(run_dir)]
        for command, corpus in (("train", first), ("amend", first), ("train", other)):
            assert cli.main([command, "--corpus", str(corpus), *common]) == 0
        code = cli.main(["retrain", "--corpus", str(other), *common])
        assert code == cli.EXIT_VALIDATION
        assert f"{run_dir / 'manifest.json'} records no phase1.dia" in caplog.text
        assert sorted(p.name for p in (run_dir / "weights").iterdir()) == ["orig.wts"]

    def test_retrain_refuses_a_corpus_that_train_did_not_read(self, tmp_path, caplog):
        (tmp_path / "other").mkdir()
        first, other = write_corpus(tmp_path), write_corpus(tmp_path / "other", pieces=2, seed=6)
        run_dir = tmp_path / "run"
        common = ["--config", str(tiny_config_file(tmp_path)), "--run-dir", str(run_dir)]
        for command in ("train", "amend"):
            assert cli.main([command, "--corpus", str(first), *common]) == 0
        code = cli.main(["retrain", "--corpus", str(other), *common])
        assert code == cli.EXIT_VALIDATION
        assert (f"{run_dir / 'manifest.json'} records another modes.orig.dataset_sha256"
                in caplog.text)
        assert sorted(p.name for p in (run_dir / "weights").iterdir()) == ["orig.wts"]

    def test_generate_refuses_the_weights_of_an_earlier_orig(self, tmp_path, caplog):
        run_dir = tmp_path / "run"
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path)), "--run-dir", str(run_dir)]
        for command in ("run-all", "train"):
            assert cli.main([command, *common]) == 0
        code = cli.main(["generate", *common, "--mode", "dia", "-n", "10"])
        assert code == cli.EXIT_VALIDATION
        assert f"{run_dir / 'manifest.json'} records no modes.dia" in caplog.text
        assert "melodies" not in pipeline.read_manifest(run_dir)
        assert cli.main(["generate", *common, "--mode", "orig", "-n", "10"]) == 0

    @pytest.mark.parametrize("command", ["generate", "amend"])
    def test_vocabulary_other_than_the_recorded_one_is_refused(self, tmp_path, caplog, command):
        # Pitches 67..91 have as many slots as 55..79, so the weights file
        # alone cannot tell them apart; the stage would write every pitch an
        # octave above what the model predicted.
        config, run_dir = tiny_config_file(tmp_path), tmp_path / "run"
        assert cli.main(["train", "--corpus", str(write_corpus(tmp_path)),
                         "--config", str(config), "--run-dir", str(run_dir)]) == 0
        shifted = json.loads(config.read_text())
        shifted["vocabulary"].update(pitch_lo=67, pitch_hi=91)
        config.write_text(json.dumps(shifted))
        extra = ["--mode", "orig", "-n", "20"] if command == "generate" else []
        code = cli.main([command, "--config", str(config), "--run-dir", str(run_dir),
                         "--seed-phrase", "67:4,69:4,71:4,72:4,74:4,76:4,77:4", *extra])
        assert code == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == (
            f"{run_dir / 'manifest.json'} records another vocabulary; "
            f"use the config that train read")
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "weights"]

    @pytest.mark.parametrize("command", ["generate", "amend"])
    def test_an_older_manifest_keeps_the_vocabulary_refusal(self, tmp_path, caplog, command):
        config, run_dir = tiny_config_file(tmp_path), tmp_path / "run"
        assert cli.main(["train", "--corpus", str(write_corpus(tmp_path)),
                         "--config", str(config), "--run-dir", str(run_dir)]) == 0
        to_older_layout(run_dir)
        shifted = config_variant(tmp_path, "shifted", vocabulary={"pitch_lo": 67, "pitch_hi": 91})
        extra = ["--mode", "orig", "-n", "20"] if command == "generate" else []
        common = ["--run-dir", str(run_dir), *extra]
        code = cli.main([command, "--config", str(shifted), *common,
                         "--seed-phrase", "67:4,69:4,71:4,72:4,74:4,76:4,77:4"])
        assert code == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == (
            f"{run_dir / 'manifest.json'} records another vocabulary; "
            f"use the config that train read")
        assert sorted(p.name for p in run_dir.iterdir()) == ["manifest.json", "weights"]
        assert cli.main([command, "--config", str(config), *common,
                         "--seed-phrase", "60:4,62:4,64:4,65:4,67:4,69:4,71:4"]) == 0

    @pytest.mark.parametrize("layout", ["entries", "older"])
    @pytest.mark.parametrize("change, key", [
        ({"model": {"window": 6}}, "model.window"),
        ({"vocabulary": {"pitch_lo": 54}}, "vocabulary"),
    ], ids=["window", "pitch-lo"])
    def test_retrain_names_the_config_key_that_differs_from_orig(self, tmp_path, caplog,
                                                                  change, key, layout):
        run_dir = tmp_path / "run"
        common = ["--corpus", str(write_corpus(tmp_path)), "--run-dir", str(run_dir)]
        for command in ("train", "amend"):
            assert cli.main([command, *common, "--config", str(tiny_config_file(tmp_path))]) == 0
        if layout == "older":
            to_older_layout(run_dir)
        other = config_variant(tmp_path, "other", **change)
        assert cli.main(["retrain", *common, "--config", str(other)]) == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == (
            f"{run_dir / 'manifest.json'} records another {key}; use the config that train read")
        assert sorted(p.name for p in (run_dir / "weights").iterdir()) == ["orig.wts"]

    def test_dimension_mismatch_refused_with_both_sizes(self, tmp_path, caplog):
        config = tiny_config_file(tmp_path)
        corpus = write_corpus(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["train", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0

        other = json.loads(Path(config).read_text())
        other["model"]["hidden_size"] = 6
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        code = cli.main(["generate", "--run-dir", str(run_dir), "--config", str(other_path),
                         "--mode", "orig", "-n", "10", "--corpus", str(corpus)])
        assert code == cli.EXIT_VALIDATION
        path = run_dir / "weights" / "orig.wts"
        assert f"{path}: hidden_size: weights file has 8, config wants 6" in caplog.text

    @pytest.mark.parametrize("damage, message", [
        (lambda data: b"garbage", "not a weights file (bad magic string)"),
        (lambda data: data[:28], "weights file truncated at byte 28"),
        (lambda data: data[:-8] + np.array([np.nan], "<f8").tobytes(),
         "tensor c holds non-finite values"),
    ], ids=["garbage", "truncated", "non-finite"])
    def test_corrupt_weights_file_is_named(self, tmp_path, caplog, damage, message):
        config, corpus = tiny_config_file(tmp_path), write_corpus(tmp_path)
        common = ["--corpus", str(corpus), "--config", str(config), "--run-dir"]
        run_dir = tmp_path / "run"
        assert cli.main(["train", *common, str(run_dir)]) == 0
        path = run_dir / "weights" / "orig.wts"
        path.write_bytes(damage(path.read_bytes()))
        assert cli.main(["amend", *common, str(run_dir)]) == cli.EXIT_VALIDATION
        assert f"{path}: {message}" in caplog.text
        assert not (run_dir / "amended").exists()


class TestRunAll:
    def test_full_run_writes_everything(self, tmp_path, capsys):
        config = tiny_config_file(tmp_path)
        corpus = write_corpus(tmp_path)
        run_dir = tmp_path / "run"
        assert cli.main(["run-all", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        for mode in ("orig", "dia", "spi", "tri", "mix"):
            assert (run_dir / "weights" / f"{mode}.wts").exists()
        assert (run_dir / "report.json").exists()
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["DS", "Orig", "DIA", "SPI", "TRI", "MIX"]

    def test_only_the_weight_and_amend_stages_write_the_manifest(self, tmp_path):
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path))]
        run_dir = tmp_path / "run"
        assert cli.main(["run-all", *common, "--run-dir", str(run_dir), "--no-midi"]) == 0
        manifest = run_dir / "manifest.json"
        written = manifest.read_bytes()
        assert sorted(json.loads(written)) == ["corpus", "modes", "phase1"]
        assert json.loads(written)["corpus"] == {"pieces": 3}
        assert cli.main(["generate", *common, "--run-dir", str(run_dir),
                         "--mode", "mix", "-n", "10"]) == 0
        melodies = [str(run_dir / "melodies" / f"{mode}.json") for mode in pipeline.MODES]
        assert cli.main(["evaluate", *melodies, "--out", str(run_dir)]) == 0
        assert manifest.read_bytes() == written


    def test_corpus_too_short_to_evaluate_trains_nothing(self, tmp_path, caplog):
        config = tiny_config_file(tmp_path)
        data = json.loads(config.read_text())
        data["model"]["window"] = 1
        config.write_text(json.dumps(data))
        corpus = tmp_path / "corpus.json"
        pipeline.save_corpus(corpus, [Melody(notes=[NoteEvent(60, 4), NoteEvent(62, 4)])] * 6)
        run_dir = tmp_path / "run"
        code = cli.main(["run-all", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)])
        assert code == cli.EXIT_VALIDATION
        assert (f"{corpus}: interval and triad statistics need a melody of at least three notes"
                in caplog.text)
        assert not (run_dir / "weights").exists()


class TestStagedMatchesRunAll:
    def test_staged_commands_write_what_run_all_writes(self, tmp_path):
        corpus = write_corpus(tmp_path)
        config_data = json.loads(tiny_config_file(tmp_path).read_text())
        # Both settings of the amend stream table: three streams, and a fourth
        # conjunction stream for mix.
        for conjunction in (False, True):
            config_data["generation"]["mix_conjunction_filter"] = conjunction
            config = tmp_path / f"config-{conjunction}.json"
            config.write_text(json.dumps(config_data))
            self._check_setting(tmp_path / f"conjunction-{conjunction}", corpus, config)

    @staticmethod
    def _check_setting(root: Path, corpus: Path, config: Path) -> None:
        staged, whole = root / "staged", root / "whole"
        common = ["--corpus", str(corpus), "--config", str(config)]
        for command in ("train", "amend", "retrain"):
            assert cli.main([command, *common, "--run-dir", str(staged)]) == 0
        for mode in pipeline.MODES:
            assert cli.main(["generate", "--run-dir", str(staged), "--config", str(config),
                             "--mode", mode, "-n", "40", "--corpus", str(corpus)]) == 0
        melodies = [str(staged / "melodies" / f"{mode}.json") for mode in pipeline.MODES]
        assert cli.main(["evaluate", *melodies, "--corpus", str(corpus),
                         "--out", str(staged)]) == 0
        assert cli.main(["run-all", *common, "--run-dir", str(whole), "--no-midi"]) == 0

        def files(run_dir: Path) -> dict[str, bytes]:
            return {str(p.relative_to(run_dir)): p.read_bytes()
                    for p in sorted(run_dir.rglob("*")) if p.is_file()}

        staged_files, whole_files = files(staged), files(whole)
        assert sorted(staged_files) == sorted(whole_files)
        assert not [name for name in whole_files if Path(name).name.startswith(".")]
        for name in whole_files:
            if name != "manifest.json":
                assert staged_files[name] == whole_files[name], name
        staged_manifest = json.loads(staged_files["manifest.json"])
        whole_manifest = json.loads(whole_files["manifest.json"])
        for block in ("modes", "phase1", "corpus"):
            assert staged_manifest[block] == whole_manifest[block], block
        assert staged_files["manifest.json"] == whole_files["manifest.json"]


class TestExport:
    def test_export_round_trips_through_own_parser(self, tmp_path):
        notes = [NoteEvent(60 + i, 4) for i in range(8)]
        melody_path = tmp_path / "melody.json"
        pipeline.save_melody(melody_path, notes)
        out = tmp_path / "out.mid"
        assert cli.main(["export", str(melody_path), "--out", str(out)]) == 0
        parsed = parse_midi(out.read_bytes())
        vocab = NoteVocabulary()
        melody = quantize_durations(
            extract_melody(parsed.events), parsed.division, vocab
        )
        assert melody.notes == notes


    def test_empty_melody_is_named(self, tmp_path, caplog):
        melody_path = tmp_path / "empty.json"
        pipeline.save_melody(melody_path, [])
        out = tmp_path / "out.mid"
        assert cli.main(["export", str(melody_path), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == f"{melody_path}: cannot write an empty melody"
        assert not out.exists()

    def test_note_too_long_for_a_midi_delta_time_is_named(self, tmp_path, caplog):
        # 3,000,000 sixteenths are 360,000,000 ticks, more than the 2**28 - 1
        # a 4-byte delta time holds, so the file would not parse back.
        melody_path = tmp_path / "long.json"
        pipeline.save_melody(melody_path, [NoteEvent(60, 3_000_000), NoteEvent(62, 4)])
        out = tmp_path / "out.mid"
        assert cli.main(["export", str(melody_path), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == (
            f"{melody_path}: delta time 360000000 does not fit a 4-byte variable-length quantity")
        assert not out.exists()


class TestConfigHandling:
    def test_init_config_round_trips(self, tmp_path):
        path = tmp_path / "defaults.json"
        assert cli.main(["init-config", "--out", str(path)]) == 0
        cfg = cli.load_config(str(path))
        assert cfg == pipeline.RunConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"moddle": {}}))
        assert cli.main(["init-config", "--out", str(tmp_path / "x.json")]) == 0
        code = cli.main(["train", "--corpus", "nowhere.json", "--config", str(path),
                         "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_VALIDATION

    def test_init_config_writes_the_key_table(self, tmp_path):
        path = tmp_path / "defaults.json"
        assert cli.main(["init-config", "--out", str(path)]) == 0
        written = json.loads(path.read_text())
        assert {block: set(keys) for block, keys in written.items()} == {
            block: set(keys) for block, keys in pipeline.CONFIG_KEYS.items()
        }

    def test_every_field_round_trips_through_a_config_file(self, tmp_path):
        cfg = pipeline.RunConfig(
            vocab=NoteVocabulary(pitch_lo=50, pitch_hi=80, durations=(1, 3, 6)),
            window=5, hidden_size=16, batch_size=8, learning_rate=0.02, epochs=12,
            plateau_patience=4, plateau_threshold=5e-3, clip_norm=2.5,
            phase1_notes=70, phase2_notes=90, resample_cap=9,
            seeds=pipeline.Seeds(init=1, shuffle=2, phase1=3, public=4),
            mix_conjunction_filter=True,
        )
        default = pipeline.RunConfig()
        for owner, default_owner in ((cfg, default), (cfg.vocab, default.vocab),
                                     (cfg.seeds, default.seeds)):
            for f in dataclasses.fields(owner):
                if f.name not in ("vocab", "seeds"):
                    assert getattr(owner, f.name) != getattr(default_owner, f.name), f.name
        path = tmp_path / "every.json"
        path.write_text(json.dumps(pipeline.config_to_dict(cfg)))
        assert cli.load_config(str(path)) == cfg

    @pytest.mark.parametrize("text, message", [
        ("[1]", "top level: expected an object, got [1]"),
        ('{"model": {"hidden_size": "big"}}', "model.hidden_size: expected int, got 'big'"),
        ('{"vocabulary": {"durations": 5}}', "vocabulary.durations: expected a list of int"),
        ('{"training": {"epochs": 2.5}}', "training.epochs: expected int, got 2.5"),
        ('{"seeds": {"init": "x"}}', "seeds.init: expected int, got 'x'"),
        ('{"model": []}', "model: expected an object, got []"),
        ('{"model": {"window": true}}', "model.window: expected int, got True"),
        ('{"training": {"lr": 0.1}, "modle": {}}', "unknown keys: modle"),
        ('{"training": {"lr": 0.1}}', "unknown keys: training.lr"),
        ('{"training": {"clip_norm": NaN}}', "training.clip_norm must be finite"),
        ('{"training": {"plateau_patience": 0}}', "training.plateau_patience must be >= 1"),
        ('{"training": {"clip_norm": 0}}', "training.clip_norm must be > 0"),
        ('{"training": {"plateau_threshold": -0.5}}', "training.plateau_threshold must be >= 0"),
        ('{"seeds": {"public": -1}}', "seeds.public must be >= 0, got -1"),
        ('{"model": {"window": 0}}', "model.window must be >= 1"),
        ('{"generation": {"resample_cap": 0}}', "generation.resample_cap must be >= 1"),
        ('{"vocabulary": {"pitch_lo": 60, "pitch_hi": 64}}',
         "vocabulary: pitch range must span at least 13 semitones, got 5"),
    ], ids=["top-level-list", "hidden-size-str", "durations-int", "epochs-float", "seed-str",
            "block-list", "window-bool", "unknown-block", "unknown-key", "clip-norm-nan",
            "patience-zero", "clip-norm-zero", "threshold-negative", "seed-negative",
            "window-zero", "resample-cap-zero", "vocabulary-range"])
    def test_config_schema_error_names_file_and_key(self, tmp_path, caplog, text, message):
        path = tmp_path / "c.json"
        path.write_text(text)
        code = cli.main(["train", "--corpus", "nowhere.json", "--config", str(path),
                         "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_VALIDATION
        assert f"{path}: {message}" in caplog.text

    def test_malformed_json_is_parse_error(self, tmp_path, caplog):
        path = tmp_path / "broken.json"
        path.write_text("{нет")
        code = cli.main(["train", "--corpus", "nowhere.json", "--config", str(path),
                         "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_PARSE
        assert f"{path}: not valid JSON" in caplog.text

    @pytest.mark.parametrize("option", ["--config", "--corpus"])
    def test_non_utf8_input_is_parse_error(self, tmp_path, caplog, option):
        files = {"--config": tiny_config_file(tmp_path), "--corpus": write_corpus(tmp_path)}
        files[option].write_bytes(b"\xff" + files[option].read_bytes())
        code = cli.main(["train", "--corpus", str(files["--corpus"]),
                         "--config", str(files["--config"]), "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_PARSE
        assert f"{files[option]}: not valid JSON" in caplog.text

    @pytest.mark.parametrize("argv, wrong", [
        (["ingest", "{corpus}", "--out", "{tmp}/c.json"], "corpus"),
        (["train", "--corpus", "{run}", "--run-dir", "{tmp}/out"], "run"),
        (["train", "--corpus", "{corpus}", "--config", "{run}", "--run-dir", "{tmp}/out"], "run"),
        (["evaluate", "{run}"], "run"),
        (["evaluate", "{melody}", "--out", "{corpus}"], "corpus"),
    ], ids=["ingest-file", "train-corpus-dir", "train-config-dir", "evaluate-dir",
            "evaluate-out-file"])
    def test_path_of_the_wrong_kind_is_validation_error(self, tmp_path, caplog, argv, wrong):
        places = {"corpus": write_corpus(tmp_path), "run": tmp_path / "run",
                  "melody": tmp_path / "m.json", "tmp": tmp_path}
        places["run"].mkdir()
        pipeline.save_melody(places["melody"], [NoteEvent(60 + i, 4) for i in range(8)])
        code = cli.main([arg.format(**places) for arg in argv])
        assert code == cli.EXIT_VALIDATION
        assert str(places[wrong]) in caplog.records[-1].getMessage()

    @pytest.mark.parametrize("content", [b"{", b"[1,2]", b"\xff{}"],
                             ids=["truncated", "list", "not-utf8"])
    def test_corrupt_manifest_is_named_parse_error(self, tmp_path, caplog, content):
        config, run_dir = tiny_config_file(tmp_path), tmp_path / "run"
        corpus = write_corpus(tmp_path)
        assert cli.main(["train", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        manifest = run_dir / "manifest.json"
        manifest.write_bytes(content)
        code = cli.main(["generate", "--run-dir", str(run_dir), "--config", str(config),
                         "--mode", "orig", "-n", "5", "--corpus", str(corpus)])
        assert code == cli.EXIT_PARSE
        assert caplog.records[-1].getMessage().startswith(f"{manifest}: ")

    @pytest.mark.parametrize("block, value, command", [
        ("corpus", "x", "retrain"),
        ("phase1", 5, "retrain"),
        ("phase1", ["dia", "spi", "tri"], "retrain"),
        ("modes", 5, "generate"),
        ("config", [1], "generate"),
    ], ids=["corpus-str", "phase1-int", "phase1-list", "modes-int", "config-list"])
    def test_malformed_manifest_block_is_named_parse_error(self, tmp_path, caplog, block,
                                                           value, command):
        run_dir = tmp_path / "run"
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path)), "--run-dir", str(run_dir)]
        for stage in ("train", "amend"):
            assert cli.main([stage, *common]) == 0
        manifest = run_dir / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), block: value}))
        extra = ["--mode", "orig", "-n", "5"] if command == "generate" else []
        assert cli.main([command, *common, *extra]) == cli.EXIT_PARSE
        assert caplog.records[-1].getMessage() == (
            f"{manifest}: {block}: expected an object, got {type(value).__name__}")
        assert sorted(p.name for p in (run_dir / "weights").iterdir()) == ["orig.wts"]

    @pytest.mark.parametrize("place", [("modes", "orig"), ("phase1", "dia"),
                                       ("modes", "orig", "config")],
                             ids=["modes-orig-int", "phase1-dia-int", "modes-orig-config-int"])
    def test_malformed_manifest_entry_is_named_parse_error(self, tmp_path, caplog, place):
        run_dir = tmp_path / "run"
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path)), "--run-dir", str(run_dir)]
        for stage in ("train", "amend"):
            assert cli.main([stage, *common]) == 0
        manifest = run_dir / "manifest.json"
        data = json.loads(manifest.read_text())
        entry = data
        for key in place[:-1]:
            entry = entry[key]
        entry[place[-1]] = 5
        manifest.write_text(json.dumps(data))
        assert cli.main(["retrain", *common]) == cli.EXIT_PARSE
        assert caplog.records[-1].getMessage() == (
            f"{manifest}: {'.'.join(place)}: expected an object, got int")
        assert sorted(p.name for p in (run_dir / "weights").iterdir()) == ["orig.wts"]

    @pytest.mark.parametrize("text, field", [
        ('{"piece": []}', "missing field 'pieces'"),
        ('{"pieces": [{"notes": 5}]}', "pieces[0].notes"),
    ])
    def test_corpus_schema_error_is_parse_error(self, tmp_path, caplog, text, field):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(text)
        code = cli.main(["train", "--corpus", str(corpus), "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_PARSE
        assert f"{corpus}: " in caplog.text
        assert field in caplog.text

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_training_stops_without_weights(self, tmp_path, caplog):
        config = json.loads(tiny_config_file(tmp_path).read_text())
        config["training"]["learning_rate"] = 1e308  # the first update overflows
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(config))
        run_dir = tmp_path / "run"
        code = cli.main(["train", "--corpus", str(write_corpus(tmp_path)),
                         "--config", str(path), "--run-dir", str(run_dir)])
        assert code == cli.EXIT_VALIDATION
        assert "training diverged: epoch 1" in caplog.text
        assert not (run_dir / "weights" / "orig.wts").exists()

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_diverged_retrain_names_its_mode(self, tmp_path, caplog):
        config, run_dir = tiny_config_file(tmp_path), tmp_path / "run"
        corpus = write_corpus(tmp_path)
        common = ["--corpus", str(corpus), "--run-dir", str(run_dir)]
        for command in ("train", "amend"):
            assert cli.main([command, *common, "--config", str(config)]) == 0
        diverge = json.loads(config.read_text())
        diverge["training"]["learning_rate"] = 1e308  # the first update overflows
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(diverge))
        threads = threading.active_count()
        code = cli.main(["retrain", *common, "--config", str(path)])
        assert code == cli.EXIT_VALIDATION
        assert re.fullmatch(r"(dia|spi|tri|mix): training diverged: epoch 1 loss is nan",
                            caplog.records[-1].getMessage())
        assert not any((run_dir / "weights" / f"{mode}.wts").exists()
                       for mode in ("dia", "spi", "tri", "mix"))
        assert list(pipeline.read_manifest(run_dir)["modes"]) == ["orig"]
        assert multiprocessing.active_children() == []
        assert threading.active_count() == threads

    def test_diverged_training_prints_no_numpy_warnings(self, tmp_path, caplog):
        config = json.loads(tiny_config_file(tmp_path).read_text())
        config["training"]["learning_rate"] = 1e308
        path = tmp_path / "diverge.json"
        path.write_text(json.dumps(config))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main(["train", "--corpus", str(write_corpus(tmp_path)),
                             "--config", str(path), "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_VALIDATION
        assert "training diverged: epoch 1" in caplog.text
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("command, message", [
        ("train", "corpus yields no training windows: every piece needs more than 7 notes"),
        ("amend", "no corpus piece has 7 notes for a seed phrase"),
        ("run-all", "no corpus piece has 7 notes for a seed phrase"),
    ], ids=["train", "amend", "run-all"])
    def test_corpus_too_short_for_a_stage_is_named(self, tmp_path, caplog, command, message):
        corpus = tmp_path / "corpus.json"
        pipeline.save_corpus(corpus, [Melody(notes=[NoteEvent(60 + i, 4) for i in range(n)])
                                      for n in (3, 4)])
        code = cli.main([command, "--corpus", str(corpus),
                         "--config", str(tiny_config_file(tmp_path)),
                         "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == f"{corpus}: {message}"
        assert not (tmp_path / "run" / "weights").exists()

    @pytest.mark.parametrize("command, short_piece", [
        pytest.param(command, short_piece, id=command + ("-short-piece" if short_piece else ""))
        for short_piece in (False, True) for command in ("train", "retrain", "run-all")
    ])
    def test_out_of_vocabulary_note_is_located(self, tmp_path, caplog, command, short_piece):
        corpus = write_corpus(tmp_path)
        payload = json.loads(corpus.read_text())
        if short_piece:
            # Three notes make no training window, and are checked all the same.
            payload["pieces"].append({"notes": [[60, 2], [100, 3], [62, 2]]})
            where = "pieces[3].notes[1]"
        else:
            payload["pieces"][1]["notes"][10] = [100, 2]
            where = "pieces[1].notes[10]"
        corpus.write_text(json.dumps(payload))
        code = cli.main([command, "--corpus", str(corpus),
                         "--config", str(tiny_config_file(tmp_path)),
                         "--run-dir", str(tmp_path / "run")])
        assert code == cli.EXIT_VALIDATION
        assert (f"{corpus}: {where}: pitch 100 outside vocabulary range 55..79"
                in caplog.text)

    @pytest.mark.parametrize("command", ["amend", "generate", "run-all"])
    def test_out_of_vocabulary_seed_note_is_located(self, tmp_path, caplog, command):
        config, run_dir = tiny_config_file(tmp_path), tmp_path / "run"
        corpus = write_corpus(tmp_path)
        assert cli.main(["train", "--corpus", str(corpus), "--config", str(config),
                         "--run-dir", str(run_dir)]) == 0
        written = (run_dir / "manifest.json").read_bytes()
        payload = json.loads(corpus.read_text())
        payload["pieces"][0]["notes"][2] = [100, 4]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        extra = ["--mode", "orig", "-n", "5"] if command == "generate" else []
        common = ["--config", str(config), "--run-dir", str(run_dir), *extra]

        assert cli.main([command, "--corpus", str(bad), *common]) == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == (
            f"{bad}: pieces[0].notes[2]: pitch 100 outside vocabulary range 55..79")
        assert cli.main([command, "--corpus", str(corpus), *common,
                         "--seed-phrase", "60:4,62:4,64:4,65:4,67:4,69:4,71:3"]
                        ) == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == (
            "seed phrase[6]: duration 3 not in vocabulary table (1, 2, 4, 8)")
        assert (run_dir / "manifest.json").read_bytes() == written
        assert sorted(p.name for p in (run_dir / "weights").iterdir()) == ["orig.wts"]
        assert not (run_dir / "melodies").exists() and not (run_dir / "amended").exists()

    @pytest.mark.parametrize("place", ["note", "context[3]"])
    def test_out_of_vocabulary_amended_note_is_located(self, tmp_path, caplog, place):
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path)), "--run-dir", str(tmp_path / "run")]
        assert cli.main(["train", *common]) == 0
        assert cli.main(["amend", *common]) == 0
        path = tmp_path / "run" / "amended" / "dia.json"
        pairs = json.loads(path.read_text())
        assert pairs
        if place == "note":
            pairs[0]["note"] = [100, 8]
        else:
            pairs[0]["context"][3] = [100, 8]
        path.write_text(json.dumps(pairs))
        assert cli.main(["retrain", *common]) == cli.EXIT_VALIDATION
        assert (f"{path}: [0].{place}: pitch 100 outside vocabulary range 55..79"
                in caplog.text)

    def test_short_amended_context_is_located_before_training(self, tmp_path, caplog):
        common = ["--corpus", str(write_corpus(tmp_path)),
                  "--config", str(tiny_config_file(tmp_path)), "--run-dir", str(tmp_path / "run")]
        assert cli.main(["train", *common]) == 0
        assert cli.main(["amend", *common]) == 0
        path = tmp_path / "run" / "amended" / "spi.json"
        pairs = json.loads(path.read_text())
        assert pairs
        pairs[0]["context"] = pairs[0]["context"][:3]
        path.write_text(json.dumps(pairs))
        assert cli.main(["retrain", *common]) == cli.EXIT_VALIDATION
        assert caplog.records[-1].getMessage() == f"{path}: [0].context: expected 7 notes, got 3"
        assert not (tmp_path / "run" / "weights" / "dia.wts").exists()

    def test_malformed_midi_is_parse_error(self, tmp_path):
        midi_dir = tmp_path / "midi"
        midi_dir.mkdir()
        (midi_dir / "broken.mid").write_bytes(b"MThd" + (7).to_bytes(4, "big") + bytes(10))
        # A broken file is only skipped; with nothing usable the exit is validation.
        code = cli.main(["ingest", str(midi_dir), "--out", str(tmp_path / "c.json")])
        assert code == cli.EXIT_VALIDATION

    def test_seed_phrase_parser(self, tmp_path, caplog):
        notes = cli.parse_seed_phrase("60:4, 64:2,67:1")
        assert notes == [NoteEvent(60, 4), NoteEvent(64, 2), NoteEvent(67, 1)]
        for text in ("60-4", ""):
            with pytest.raises(ValueError, match=f"bad seed note {text!r}"):
                cli.parse_seed_phrase(text)
        code = cli.main(["run-all", "--corpus", str(write_corpus(tmp_path)),
                         "--run-dir", str(tmp_path / "run"), "--seed-phrase", ""])
        assert code == cli.EXIT_VALIDATION
        assert "bad seed note ''" in caplog.records[-1].getMessage()
        assert not (tmp_path / "run").exists()


def readme_cli_lines() -> list[str]:
    """Every ``melogram ...`` line of README.md's ``sh`` blocks, continuations joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S)
    return [line for block in blocks for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("melogram ")]


class TestReadmeExamples:
    def test_every_readme_example_parses(self):
        parser = cli.build_parser()
        shown = set()
        for line in readme_cli_lines():
            try:
                args = parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README example does not parse: {line}")
            assert args.func is getattr(cli, "cmd_" + args.command.replace("-", "_"))
            shown.add(args.command)
        commands = next(action.choices for action in parser._actions if action.dest == "command")
        assert shown == set(commands)  # the README shows every command
