"""The program names the benchmark launcher wraps, and how often it calls them.

``perfbench/launch.py`` wraps functions of ``melogram`` by name to time them.
A renamed function would silently drop its metrics, and a generation loop
that calls ``network.forward`` other than once per note would change what
``network.forward.us_per_call`` means. The launcher is loaded read-only.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from functools import wraps
from pathlib import Path

import numpy as np
import pytest

from melogram import encoding, metrics, network, pipeline
from melogram.grammar import Rule
from melogram.notes import NoteEvent

from test_pipeline import tiny_config, tiny_corpus

LAUNCH = Path(__file__).resolve().parent.parent / "perfbench" / "launch.py"


@pytest.fixture(scope="module")
def launch():
    spec = importlib.util.spec_from_file_location("perfbench_launch", LAUNCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_exists(launch):
    for table in (launch.STAGE_FUNCTIONS, launch.LAYER_FUNCTIONS):
        for short, names in table.items():
            module = importlib.import_module(f"melogram.{short}")
            for name in names:
                assert callable(getattr(module, name, None)), f"melogram.{short}.{name}"


def test_stack_examples_returns_contexts_first():
    # The launcher's encoding.dataset_bytes counter reads result[0].nbytes:
    # two int16 hot columns per context note.
    cfg = tiny_config()
    windows = pipeline.corpus_windows(tiny_corpus(cfg), cfg)
    result = encoding.stack_examples(windows, cfg.vocab)
    assert isinstance(result[0], np.ndarray)
    assert result[0].shape == (len(windows), cfg.window, 2)
    assert result[0].nbytes == len(windows) * cfg.window * 2 * 2


@pytest.mark.parametrize("name", [
    "encoding.NoteVocabulary.contains",
    "pipeline.load_amended", "pipeline.load_melody", "pipeline.config_from_dict",
    "grammar.conforms", "grammar.Rule",
    "network.load_weights", "network.check_compatible", "network.save_weights",
])
def test_every_name_the_correctness_checks_call_exists(name):
    # perfbench/checks.py calls these to judge a run's outputs; a missing one
    # would fail the benchmark's correctness checks, not tier-1.
    short, *path = name.split(".")
    target = importlib.import_module(f"melogram.{short}")
    for attr in path:
        target = getattr(target, attr, None)
    assert callable(target), f"melogram.{name}"


@pytest.mark.parametrize("entry", ["network.fit", "pipeline.train_on_examples"])
def test_training_result_holds_the_trace_then_the_kept_epoch(entry):
    # The launcher's network.epochs counter reads len(result[1]) of
    # network.fit, and its loss-trace check result[1] of train_on_examples.
    cfg = tiny_config(epochs=3)
    windows = pipeline.corpus_windows(tiny_corpus(cfg), cfg)
    if entry == "network.fit":
        params = network.init_params(cfg.vocab.dim, cfg.hidden_size, network.make_rng(0))
        result = network.fit(
            params, *encoding.stack_examples(windows, cfg.vocab), cfg.vocab.pitch_count,
            epochs=cfg.epochs, batch_size=cfg.batch_size, rng=network.make_rng(1),
            learning_rate=cfg.learning_rate, plateau_patience=cfg.plateau_patience,
            plateau_threshold=cfg.plateau_threshold, clip_norm=cfg.clip_norm,
        )
    else:
        result = pipeline.train_on_examples(windows, cfg)
    trace, kept = result[1], result[2]
    assert isinstance(trace, list) and len(trace) == 3
    assert all(isinstance(loss, float) and np.isfinite(loss) for loss in trace)
    assert type(kept) is int and 1 <= kept <= len(trace)


def test_phase1_arguments_the_launcher_reads():
    # The launcher records args[1] (seed phrase) and args[3] (rules).
    names = list(inspect.signature(pipeline.phase1_generate).parameters)
    assert names[1] == "seed_phrase"
    assert names[3] == "rules"


def _counting(monkeypatch, module, name: str) -> list:
    """Replace ``module.<name>`` with a wrapper that counts its calls in this process.

    Like the launcher's wrappers, it keeps the function's name, so a worker
    process that is handed the function by name gets the original.
    """
    calls = []
    original = getattr(module, name)

    @wraps(original)
    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("phase", ["phase1", "phase2"])
def test_forward_called_once_per_generated_note(monkeypatch, phase):
    cfg = tiny_config()
    params = network.init_params(cfg.vocab.dim, cfg.hidden_size, network.make_rng(0))
    seed_phrase = [NoteEvent(60 + k, 4) for k in range(cfg.window)]
    calls = _counting(monkeypatch, network, "forward")
    rng = network.make_rng(1)
    if phase == "phase1":
        notes, _ = pipeline.phase1_generate(
            params, seed_phrase, 37, frozenset({Rule.DIA}), cfg, rng
        )
    else:
        notes = pipeline.phase2_generate(params, seed_phrase, 37, cfg, rng)
    assert len(notes) == 37
    assert len(calls) == 37


# Each entry point and the one it must not run through.
ENTRY_PAIRS = {
    "phase1_generate": (pipeline, "phase2_generate"),
    "phase2_generate": (pipeline, "phase1_generate"),
    "evaluate": (metrics, "evaluate_many"),
    "evaluate_many": (metrics, "evaluate"),
}


def _run_entry_point(name: str) -> int:
    """Call one entry point on a small input; the number of notes it made or counted."""
    notes = [NoteEvent(60 + k, 4) for k in range(5)]
    if name == "evaluate":
        return metrics.evaluate(notes).n_notes
    if name == "evaluate_many":
        return metrics.evaluate_many([notes]).n_notes
    cfg = tiny_config()
    params = network.init_params(cfg.vocab.dim, cfg.hidden_size, network.make_rng(0))
    seed_phrase = [NoteEvent(60 + k, 4) for k in range(cfg.window)]
    rng = network.make_rng(1)
    if name == "phase1_generate":
        return len(pipeline.phase1_generate(params, seed_phrase, 5, frozenset({Rule.DIA}),
                                            cfg, rng)[0])
    return len(pipeline.phase2_generate(params, seed_phrase, 5, cfg, rng))


@pytest.mark.parametrize("blocked", list(ENTRY_PAIRS))
def test_entry_points_do_not_call_each_other(monkeypatch, blocked):
    # The launcher records every phase1_generate call as an amend stream and
    # its output check counts them against the manifest; it adds the notes
    # of every evaluate and evaluate_many call to metrics.notes and their
    # time to the evaluate stage. So neither entry point of a pair may run
    # through the other, nor be bound under a second name.
    module, other = ENTRY_PAIRS[blocked]
    for name in (blocked, other):
        fn = getattr(module, name)
        assert [attr for attr, value in vars(module).items() if value is fn] == [name]

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{blocked} called")

    monkeypatch.setattr(module, blocked, forbidden)
    assert _run_entry_point(other) == 5


def test_train_trains_orig_in_the_calling_process(monkeypatch, tmp_path):
    # The launcher's "loss traces finite" check needs at least one
    # train_on_examples result captured in the launched process.
    calls = _counting(monkeypatch, pipeline, "train_on_examples")
    cfg = tiny_config()
    pipeline.train(tiny_corpus(cfg), cfg, tmp_path)
    assert len(calls) == 1


@pytest.mark.parametrize("conjunction", [False, True])
def test_amend_generates_every_stream_in_the_calling_process(monkeypatch, tmp_path, conjunction):
    # The launcher's "amend streams captured" check counts phase1_generate
    # calls in the launched process against the manifest's streams.
    cfg = tiny_config(phase1_notes=10, mix_conjunction_filter=conjunction)
    corpus = tiny_corpus(cfg)
    pipeline.train(corpus, cfg, tmp_path)
    calls = _counting(monkeypatch, pipeline, "phase1_generate")
    pipeline.amend(pipeline.default_seed_phrase(corpus, cfg), cfg, tmp_path)
    assert len(calls) == len(pipeline.read_manifest(tmp_path)["phase1"]) == 3 + conjunction


def test_retrain_calls_train_on_examples_once_per_mode_in_the_calling_process(
        monkeypatch, tmp_path):
    # The launcher names the retrain stage times pipeline.stage.retrain_*_s
    # from the train_on_examples calls of the launched process, so each
    # retrain is one such call here even though a worker process trains it.
    cfg = tiny_config(phase1_notes=10)
    corpus = tiny_corpus(cfg)
    pipeline.train(corpus, cfg, tmp_path)
    pipeline.amend(pipeline.default_seed_phrase(corpus, cfg), cfg, tmp_path)
    calls = _counting(monkeypatch, pipeline, "train_on_examples")
    pipeline.retrain(corpus, cfg, tmp_path)
    assert len(calls) == len(pipeline.MODES) - 1
