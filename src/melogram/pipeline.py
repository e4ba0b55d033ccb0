"""End-to-end orchestration: train, filter-generate, augment, retrain, generate.

The experiment produces five weight sets. ``orig`` is trained on the corpus
alone. Each rule then filters one generation stream from ``orig``; every
note that needed resampling is harvested together with its context as an
amended pair. ``dia``/``spi``/``tri`` retrain on the corpus plus their own
amendments, ``mix`` on the corpus plus all three amendment groups. The
final generation phase samples freely from each weight set: the rules shape
the training data only and are never applied to the output stream, which is
what lets the retrained models keep the phrasing they learned while
absorbing the rule statistics.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import struct
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import grammar, metrics, midi, network
from .encoding import (
    EncodingError,
    NoteVocabulary,
    default_vocabulary,
    encode_note,
    make_training_windows,
    note_indices,
    sample_note,
    split_distribution,
    stack_examples,
)
from .grammar import AmendedPair, Rule
from .notes import Key, Melody, NoteEvent, fold_octaves

MODES = tuple(metrics.MODE_COLUMNS)
RULE_ORDER = tuple(Rule)
MANIFEST = "manifest.json"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class Seeds:
    """The four independent random streams of one experiment."""

    init: int = 101
    shuffle: int = 202
    phase1: int = 303
    public: int = 404

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{_config_key(name)} must be >= 0, got {value}")


@dataclass
class RunConfig:
    """Every knob of one experiment run.

    Defaults are desk scale; the published experiment scale (100k filtered
    notes per rule, 400 epochs on a 30k-note corpus) stays reachable through
    the same fields.
    """

    vocab: NoteVocabulary = field(default_factory=default_vocabulary)
    window: int = 7
    hidden_size: int = 128
    batch_size: int = 64
    learning_rate: float = 0.001
    epochs: int = 400
    plateau_patience: int = 10
    plateau_threshold: float = 1e-4
    clip_norm: float = 5.0
    phase1_notes: int = 5000
    phase2_notes: int = 5000
    resample_cap: int = 100
    seeds: Seeds = field(default_factory=Seeds)
    mix_conjunction_filter: bool = False

    def __post_init__(self) -> None:
        for name in ("window", "hidden_size", "batch_size", "epochs", "plateau_patience",
                     "phase1_notes", "phase2_notes", "resample_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{_config_key(name)} must be >= 1")
        for name in ("learning_rate", "plateau_threshold", "clip_norm"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{_config_key(name)} must be finite")
        for name in ("learning_rate", "clip_norm"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{_config_key(name)} must be > 0")
        if self.plateau_threshold < 0:
            raise ValueError(f"{_config_key('plateau_threshold')} must be >= 0")


# The config file's blocks and keys, the one list of them. A ``vocabulary``
# key names a ``NoteVocabulary`` field, a ``seeds`` key a ``Seeds`` field and
# every other key a ``RunConfig`` field.
CONFIG_KEYS = {
    "vocabulary": ("pitch_lo", "pitch_hi", "durations"),
    "model": ("hidden_size", "window"),
    "training": ("learning_rate", "batch_size", "epochs", "plateau_patience",
                 "plateau_threshold", "clip_norm"),
    "generation": ("phase1_notes", "phase2_notes", "resample_cap", "mix_conjunction_filter"),
    "seeds": ("init", "shuffle", "phase1", "public"),
}


def _config_key(name: str) -> str:
    """The config-file key of a field, block included, e.g. ``model.window``."""
    return next(f"{block}.{name}" for block, keys in CONFIG_KEYS.items() if name in keys)


def config_to_dict(cfg: RunConfig) -> dict:
    """Flatten a config into the blocks used by the config file and manifest."""
    owners = {"vocabulary": cfg.vocab, "seeds": cfg.seeds}
    return {
        block: {key: _to_json(getattr(owners.get(block, cfg), key)) for key in keys}
        for block, keys in CONFIG_KEYS.items()
    }


def _to_json(value):
    return list(value) if isinstance(value, tuple) else value


def config_from_dict(data: dict) -> RunConfig:
    """Build a config from file blocks; a missing key keeps its default.

    An unknown block or key, or a value whose JSON type differs from its
    default's, raises ``ValueError`` naming the place, e.g.
    ``model.hidden_size: expected int, got 'big'``. An int is taken where the
    default is a float; a bool is never taken for an int. A value out of
    range names its key too (``model.window must be >= 1``), and a
    vocabulary out of range names its block.
    """
    defaults = config_to_dict(RunConfig())
    _check_block(data, CONFIG_KEYS, "")
    merged = {}
    for block, keys in CONFIG_KEYS.items():
        given = data.get(block, {})
        _check_block(given, keys, block)
        for key, value in given.items():
            _check_type(value, defaults[block][key], f"{block}.{key}")
        merged[block] = {**defaults[block], **given}

    given_vocab = merged.pop("vocabulary")
    try:
        vocab = NoteVocabulary(**{**given_vocab, "durations": tuple(given_vocab["durations"])})
    except ValueError as exc:
        raise ValueError(f"vocabulary: {exc}") from None
    return RunConfig(
        vocab=vocab,
        seeds=Seeds(**merged.pop("seeds")),
        **{key: value for block in merged.values() for key, value in block.items()},
    )


def _check_block(value, allowed, where: str) -> None:
    """Refuse ``value`` unless it is an object whose keys are all in ``allowed``."""
    if not isinstance(value, dict):
        raise ValueError(f"{where or 'top level'}: expected an object, got {value!r}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys: {', '.join(_join(where, key) for key in unknown)}")


def _check_type(value, default, where: str) -> None:
    """Refuse ``value`` unless its JSON type is that of ``default``."""
    if isinstance(default, list):
        if not (type(value) is list and all(type(item) is int for item in value)):
            raise ValueError(f"{where}: expected a list of int, got {value!r}")
        return
    kind = type(default)
    if type(value) not in ((int, float) if kind is float else (kind,)):
        raise ValueError(f"{where}: expected {kind.__name__}, got {value!r}")


class CorpusNoteError(EncodingError):
    """A corpus note outside the vocabulary, located as ``pieces[i].notes[j]``."""


def corpus_windows(corpus: list[Melody], cfg: RunConfig) -> np.ndarray:
    """Training windows over every piece, in order; windows never cross pieces.

    Returns the (N, window + 1, 2) int16 slot pairs of ``make_training_windows``.
    A note outside the vocabulary, in any piece however short, raises
    ``CorpusNoteError`` naming its piece and note index.
    """
    windows = []
    for piece, melody in enumerate(corpus):
        try:
            windows.append(make_training_windows(melody, cfg.window, cfg.vocab))
        except EncodingError as exc:  # located as ``[j]: ...``
            raise CorpusNoteError(f"pieces[{piece}].notes{exc}") from None
    if not sum(map(len, windows)):
        raise ValueError(
            f"corpus yields no training windows: every piece needs more than "
            f"{cfg.window} notes"
        )
    return np.concatenate(windows)


def train_on_examples(
    windows: np.ndarray, cfg: RunConfig, pending: Future | None = None,
) -> tuple[network.LstmParams, list[float], int]:
    """Train from a fresh initialization to a plateau.

    Returns what ``network.fit`` returns: the weights of the kept epoch, the
    loss trace of every epoch run (it may end past the kept epoch) and the
    kept epoch. With ``pending``, this training already submitted to a
    worker, the call waits for that result instead of training.
    """
    if pending is not None:
        return pending.result()
    contexts, pitch_targets, dur_targets = stack_examples(windows, cfg.vocab)
    params = network.init_params(
        cfg.vocab.dim, cfg.hidden_size, network.make_rng(cfg.seeds.init)
    )
    return network.fit(
        params, contexts, pitch_targets, dur_targets, cfg.vocab.pitch_count,
        epochs=cfg.epochs,
        batch_size=cfg.batch_size,
        rng=network.make_rng(cfg.seeds.shuffle),
        learning_rate=cfg.learning_rate,
        plateau_patience=cfg.plateau_patience,
        plateau_threshold=cfg.plateau_threshold,
        clip_norm=cfg.clip_norm,
    )


def _usable_cpus() -> int:
    """The CPUs this process may run on, which ``taskset`` narrows."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


@contextmanager
def _worker_pool(workers: int):
    """A ``spawn`` process pool whose workers start with BLAS at one thread.

    The BLAS thread variables are set in ``os.environ`` while the pool lives,
    so each worker reads them before it loads numpy; the caller's values come
    back once every worker has exited. Leaving the block cancels the tasks
    that have not started and waits for the running ones.
    """
    # Imported here: at the top they would add to every command's start-up.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    saved = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARS, "1"))
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn"))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def train_modes(datasets: dict[str, np.ndarray], cfg: RunConfig
                ) -> dict[str, tuple[network.LstmParams, list[float], int]]:
    """``train_on_examples`` on each ``{mode: windows}`` dataset, side by side.

    Every training is submitted at once to worker processes, one per usable
    CPU and at most one per dataset; a free worker takes the next one. A
    worker runs BLAS at one thread, so its result does not depend on the
    caller's thread count. This thread then makes one ``train_on_examples``
    call per dataset, in ``datasets`` order, each returning its worker's
    result: a profiler of this process sees every training's result in the
    order serial calls would give them. The first failure in ``datasets``
    order is raised, its message led by its mode, once the trainings before
    it have ended; those not started are then cancelled. A worker that dies
    raises ``BrokenProcessPool`` naming the likeliest cause: a calling script
    whose top-level code is not under ``if __name__ == "__main__":``.
    """
    from concurrent.futures.process import BrokenProcessPool  # see _worker_pool's imports

    workers = min(len(datasets), _usable_cpus())
    results = {}
    try:
        with _worker_pool(workers) as pool:
            pending = {mode: pool.submit(train_on_examples, windows, cfg)
                       for mode, windows in datasets.items()}
            for mode, windows in datasets.items():
                with naming(mode):
                    results[mode] = train_on_examples(windows, cfg, pending[mode])
    except BrokenProcessPool as exc:
        raise BrokenProcessPool(
            "a training worker process died. The likeliest cause is a script that "
            'calls melogram without `if __name__ == "__main__":`. Each worker imports '
            "the calling script, so its top-level code must sit under that guard. "
            "A worker killed for want of memory also ends this way."
        ) from exc
    return results


def train_orig(corpus: list[Melody], cfg: RunConfig
               ) -> tuple[network.LstmParams, list[float], int]:
    return train_on_examples(corpus_windows(corpus, cfg), cfg)


def _check_seed_phrase(seed_phrase: list[NoteEvent], cfg: RunConfig) -> None:
    if len(seed_phrase) != cfg.window:
        raise ValueError(
            f"seed phrase must have exactly {cfg.window} notes, got {len(seed_phrase)}"
        )
    for note in seed_phrase:
        if not cfg.vocab.contains(note):
            raise ValueError(f"seed note {note} is outside the vocabulary")


def _generate(params: network.LstmParams, seed_phrase: list[NoteEvent], n: int, cfg: RunConfig,
              rng: np.random.Generator, rules: frozenset[Rule] | None = None,
              ) -> tuple[list[NoteEvent], list[AmendedPair]]:
    """The one sampling loop: ``n`` notes after the seed phrase, and the amended pairs.

    Without ``rules`` each note is a free draw; with them, a draw of
    ``grammar.constrained_sample``. One list of notes is the rule history,
    the source of each amended pair's context and the bank's input.
    """
    _check_seed_phrase(seed_phrase, cfg)
    notes = list(seed_phrase)
    amended_pairs: list[AmendedPair] = []
    bank = network.Window(cfg.window)
    inputs = np.stack([encode_note(note, cfg.vocab) for note in notes])
    for _ in range(n):
        pitch_dist, dur_dist = split_distribution(network.forward(params, inputs, bank), cfg.vocab)
        if rules is None:
            note = sample_note(pitch_dist, dur_dist, cfg.vocab, rng)
        else:
            note, attempts, amended = grammar.constrained_sample(
                pitch_dist, dur_dist, notes, rules, cfg.vocab, rng, cap=cfg.resample_cap,
            )
            if amended:
                amended_pairs.append(AmendedPair(context=tuple(notes[-cfg.window:]), note=note,
                                                 rule_set=rules, attempts=attempts))
        notes.append(note)
        inputs = encode_note(note, cfg.vocab)[None]
    return notes[len(seed_phrase):], amended_pairs


def phase1_generate(
    params: network.LstmParams,
    seed_phrase: list[NoteEvent],
    n: int,
    rules: frozenset[Rule],
    cfg: RunConfig,
    rng: np.random.Generator,
) -> tuple[list[NoteEvent], list[AmendedPair]]:
    """Filtered autoregressive generation that harvests amended pairs.

    Every sampled note must conform to the active rules; each note that was
    not accepted on its first draw is recorded with the context window that
    produced it. Seed notes count as rule history but are not part of the
    returned sequence.
    """
    return _generate(params, seed_phrase, n, cfg, rng, rules)


def phase2_generate(
    params: network.LstmParams,
    seed_phrase: list[NoteEvent],
    n: int,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> list[NoteEvent]:
    """Free autoregressive sampling; no rule is ever consulted here."""
    return _generate(params, seed_phrase, n, cfg, rng)[0]


def build_augmented_dataset(
    orig_windows: np.ndarray,
    amended: list[AmendedPair],
    cfg: RunConfig,
) -> np.ndarray:
    """Original windows first, then one window per amended pair in order.

    An amended pair's window is its context followed by its replacement note.
    Each error locates the pair in ``amended``: a context that is not
    ``cfg.window`` notes long raises ``ValueError`` at ``[i].context``, a note
    outside the vocabulary ``EncodingError`` at ``[i].context[k]`` or
    ``[i].note``.
    """
    places = [f"context[{k}]" for k in range(cfg.window)] + ["note"]
    slots = []
    for i, pair in enumerate(amended):
        if len(pair.context) != cfg.window:
            raise ValueError(f"[{i}].context: expected {cfg.window} notes, "
                             f"got {len(pair.context)}")
        for where, note in zip(places, (*pair.context, pair.note)):
            try:
                slots.append(note_indices(note, cfg.vocab))
            except EncodingError as exc:
                raise EncodingError(f"[{i}].{where}: {exc}") from None
    return np.concatenate(
        (orig_windows, np.array(slots, dtype=np.int16).reshape(-1, cfg.window + 1, 2))
    )


def dataset_fingerprint(windows: np.ndarray) -> str:
    """Order-sensitive SHA-256 of the window count and the little-endian int16 slot pairs."""
    digest = hashlib.sha256(struct.pack("<Q", len(windows)))
    digest.update(np.ascontiguousarray(windows, dtype="<i2").tobytes())
    return digest.hexdigest()


def file_fingerprint(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# --- corpus / melody / amendment file schemas (JSON) -----------------------

def json_text(payload, indent: int | None = 2) -> str:
    """The text every JSON file of the program holds: sorted keys, one final newline."""
    return json.dumps(payload, indent=indent, sort_keys=True) + "\n"


def melody_to_obj(melody: Melody) -> dict:
    obj: dict = {"notes": [_note_obj(n) for n in melody.notes]}
    if melody.source_key is not None:
        obj["source_key"] = {
            "tonic": melody.source_key.tonic,
            "mode": melody.source_key.mode,
        }
    return obj


class InputFormatError(ValueError):
    """An input file is not valid JSON or does not follow its schema."""


@contextmanager
def naming(source):
    """Put ``source``, the file being read, in front of any ``ValueError`` raised inside.

    The class stays, and so does the exit code; JSON that does not decode and
    bytes that are not UTF-8 become ``InputFormatError``. Every class raised
    inside must take a single message argument.
    """
    try:
        yield
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"{source}: not valid JSON: {exc}") from None
    except ValueError as exc:
        raise type(exc)(f"{source}: {exc}") from None


def load_json(path: Path, decode):
    """``decode`` the JSON of ``path``, the one JSON reader; every error names the file."""
    with naming(path):
        return decode(json.loads(Path(path).read_text()))


def _join(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _object(obj, where: str) -> dict:
    """``obj``, refused unless it is a JSON object."""
    if not isinstance(obj, dict):
        raise InputFormatError(f"{where or 'top level'}: expected an object, "
                               f"got {type(obj).__name__}")
    return obj


def _field(obj, key: str, kind: type, where: str):
    """``obj[key]``, refused unless ``obj`` is an object holding a ``kind`` there."""
    if key not in _object(obj, where):
        raise InputFormatError(f"{where or 'top level'}: missing field {key!r}")
    value = obj[key]
    if type(value) is not kind:  # a JSON true is no int
        raise InputFormatError(f"{_join(where, key)}: expected {kind.__name__}, "
                               f"got {type(value).__name__}")
    return value


def _note_obj(note: NoteEvent) -> list[int]:
    return [note.pitch, note.duration]


def _note_from(item, where: str) -> NoteEvent:
    """A note stored as a ``[pitch, duration]`` pair of integers."""
    if not (isinstance(item, list) and len(item) == 2
            and type(item[0]) is int and type(item[1]) is int):
        raise InputFormatError(f"{where}: expected a [pitch, duration] pair of integers, "
                               f"got {item!r}")
    try:
        return NoteEvent(*item)
    except ValueError as exc:
        raise InputFormatError(f"{where}: {exc}") from None


def melody_from_obj(obj: dict, where: str = "") -> Melody:
    """Inverse of ``melody_to_obj``; ``where`` locates ``obj`` in error messages."""
    items = _field(obj, "notes", list, where)
    key = None
    if obj.get("source_key") is not None:
        key_where = _join(where, "source_key")
        tonic = _field(obj["source_key"], "tonic", int, key_where)
        mode = _field(obj["source_key"], "mode", str, key_where)
        try:
            key = Key(tonic, mode)
        except ValueError as exc:
            raise InputFormatError(f"{key_where}: {exc}") from None
    notes_where = _join(where, "notes")
    return Melody(
        notes=[_note_from(item, f"{notes_where}[{i}]") for i, item in enumerate(items)],
        source_key=key,
    )


def save_corpus(path: Path, corpus: list[Melody]) -> None:
    payload = {"pieces": [melody_to_obj(m) for m in corpus]}
    Path(path).write_text(json_text(payload))


def load_corpus(path: Path) -> list[Melody]:
    return load_json(path, lambda payload: [
        melody_from_obj(obj, f"pieces[{i}]")
        for i, obj in enumerate(_field(payload, "pieces", list, ""))
    ])


def save_melody(path: Path, notes: list[NoteEvent]) -> None:
    Path(path).write_text(json_text(melody_to_obj(Melody(notes=list(notes))), indent=None))


def load_melody(path: Path) -> list[NoteEvent]:
    return load_json(path, lambda payload: melody_from_obj(payload).notes)


def save_amended(path: Path, amended: list[AmendedPair]) -> None:
    payload = [
        {
            "context": [_note_obj(n) for n in pair.context],
            "note": _note_obj(pair.note),
            "rules": sorted(rule.value for rule in pair.rule_set),
            "attempts": pair.attempts,
        }
        for pair in amended
    ]
    Path(path).write_text(json_text(payload))


def load_amended(path: Path) -> list[AmendedPair]:
    return load_json(path, _amended_from_obj)


def _amended_from_obj(payload) -> list[AmendedPair]:
    if not isinstance(payload, list):
        raise InputFormatError(f"top level: expected a list of amended pairs, "
                               f"got {type(payload).__name__}")
    pairs = []
    for i, item in enumerate(payload):
        where = f"[{i}]"
        context = _field(item, "context", list, where)
        rules = _field(item, "rules", list, where)
        try:
            rule_set = frozenset(Rule(name) for name in rules)
        except ValueError as exc:
            raise InputFormatError(f"{where}.rules: {exc}") from None
        attempts = _field(item, "attempts", int, where)
        if attempts < 2:  # an amended note replaced a refused first draw
            raise InputFormatError(f"{where}.attempts: must be >= 2, got {attempts}")
        pairs.append(AmendedPair(
            context=tuple(_note_from(n, f"{where}.context[{k}]") for k, n in enumerate(context)),
            note=_note_from(_field(item, "note", list, where), f"{where}.note"),
            rule_set=rule_set,
            attempts=attempts,
        ))
    return pairs


# --- stages ------------------------------------------------------------------
#
# One function per stage of the experiment; ``run_experiment`` and the CLI
# commands both call these. Each stage after ingest reads what earlier stages
# left in the run directory, writes its own files there and records them in
# ``manifest.json``.

def ingest(midi_dir: Path, cfg: RunConfig, key: Key | None = None, detect_key: bool = False,
           allow_any_meter: bool = False) -> list[Melody]:
    """Build a corpus from the ``.mid``/``.midi`` files of a directory, in name order.

    Each piece keeps its highest sounding line, is transposed to C by ``key``
    (else its key signature, else an estimate when ``detect_key``), snapped
    onto the duration grid and folded into the pitch range by octaves. A file
    that does not parse, is not in 4/4 (unless ``allow_any_meter``), has no
    notes or has no key is logged by name and skipped.
    """
    midi_dir = Path(midi_dir)
    paths = sorted(p for p in midi_dir.iterdir() if p.suffix.lower() in (".mid", ".midi"))
    if not paths:
        raise ValueError(f"no MIDI files in {midi_dir}")

    corpus: list[Melody] = []
    for path in paths:
        try:
            parsed = midi.parse_midi(path.read_bytes())
        except midi.MidiParseError as exc:
            log.warning("rejected %s: %s", path.name, exc)
            continue
        signature = midi.first_time_signature(parsed.events)
        if signature is not None and signature != (4, 4) and not allow_any_meter:
            log.warning("rejected %s: time signature %d/%d is not 4/4", path.name, *signature)
            continue
        try:
            melody = midi.extract_melody(parsed.events)
        except midi.EmptyMelodyError as exc:
            log.warning("rejected %s: %s", path.name, exc)
            continue
        piece_key = key or melody.source_key
        if piece_key is None and detect_key:
            piece_key = midi.estimate_key(melody)
            log.info("%s: estimated key %s", path.name, piece_key.name)
        if piece_key is None:
            log.warning("rejected %s: no key signature; pass --key or --detect-key", path.name)
            continue
        melody = midi.transpose_to_c(melody, piece_key)
        melody = midi.quantize_durations(melody, parsed.division, cfg.vocab)
        lo, hi = cfg.vocab.pitch_lo, cfg.vocab.pitch_hi
        notes = [NoteEvent(fold_octaves(n.pitch, lo, hi), n.duration) for n in melody.notes]
        folded = sum(a.pitch != b.pitch for a, b in zip(notes, melody.notes))
        if folded:
            log.warning("%s: folded %d notes into the vocabulary range by octaves",
                        path.name, folded)
        corpus.append(Melody(notes=notes, source_key=melody.source_key))
        log.info("accepted %s: %d notes", path.name, len(notes))

    if not corpus:
        raise ValueError(f"no usable pieces in {midi_dir}")
    return corpus


def train(corpus: list[Melody], cfg: RunConfig, run_dir: Path) -> None:
    """Train ``orig`` on the corpus windows into ``weights/orig.wts``; start a fresh manifest."""
    windows = corpus_windows(corpus, cfg)
    params, trace, kept = train_on_examples(windows, cfg)
    entry = _save_mode(run_dir, "orig", params, trace, kept, windows, cfg)
    (run_dir / MANIFEST).unlink(missing_ok=True)  # later stages' files came from the old orig
    update_manifest(run_dir, {
        "config": config_to_dict(cfg),
        "corpus": {
            "pieces": len(corpus),
            "windows": entry["dataset_size"],
            "sha256": entry["dataset_sha256"],
        },
        "modes": {"orig": entry},
    })


def amend_streams(cfg: RunConfig) -> list[tuple[str, frozenset[Rule]]]:
    """Each amend stream's name and rules, in seed order.

    One stream per rule, then with ``mix_conjunction_filter`` a ``mix``
    stream filtered by all three rules at once.
    """
    return ([(rule.value, frozenset({rule})) for rule in RULE_ORDER]
            + [("mix", frozenset(Rule))] * cfg.mix_conjunction_filter)


def amend(seed_phrase: list[NoteEvent], cfg: RunConfig, run_dir: Path,
          rules: frozenset[Rule] | None = None) -> None:
    """Harvest amended pairs from the ``amend_streams`` of ``orig``.

    Each stream goes into ``amended/<stream>.json``; with ``rules`` only the
    streams of those single rules run. A stream's random seed depends on the
    stream alone, so a subset reproduces the streams of a full run.
    """
    params = load_checked_weights(run_dir, "orig", cfg)
    (run_dir / "amended").mkdir(parents=True, exist_ok=True)
    phase1 = {}
    for index, (stream, stream_rules) in enumerate(amend_streams(cfg)):
        if rules is not None and stream not in {rule.value for rule in rules}:
            continue
        rng = network.make_rng(cfg.seeds.phase1, index)
        filtered, amended = phase1_generate(
            params, seed_phrase, cfg.phase1_notes, stream_rules, cfg, rng
        )
        path = run_dir / "amended" / f"{stream}.json"
        save_amended(path, amended)
        phase1[stream] = {
            "rules": sorted(rule.value for rule in stream_rules),
            "generated": len(filtered),
            "amended": len(amended),
            "path": str(path.relative_to(run_dir)),
        }
        log.info("%s: %d of %d notes amended", stream, len(amended), len(filtered))
    update_manifest(run_dir, {
        "seed_phrase": [_note_obj(n) for n in seed_phrase],
        "phase1": phase1,
    })


def retrain(corpus: list[Melody], cfg: RunConfig, run_dir: Path) -> None:
    """Train ``dia``/``spi``/``tri``/``mix`` on the corpus plus their amended pairs.

    Each mode takes its ``amend_streams`` stream; without a ``mix`` stream,
    ``mix`` pools the amended rows of the three rule streams. The four
    trainings run side by side through ``train_modes``.
    """
    orig_windows = corpus_windows(corpus, cfg)
    datasets = {}
    for stream, _ in amend_streams(cfg):  # every dataset is built, and so checked, first
        _require_record(run_dir, "phase1", stream)
        path = run_dir / "amended" / f"{stream}.json"
        amended = load_amended(path)
        with naming(path):
            datasets[stream] = build_augmented_dataset(orig_windows, amended, cfg)
    if "mix" not in datasets:
        rows = [dataset[len(orig_windows):] for dataset in datasets.values()]
        datasets["mix"] = np.concatenate([orig_windows, *rows])

    trained = train_modes(datasets, cfg)  # no weights file unless every training succeeds
    modes = {mode: _save_mode(run_dir, mode, *trained[mode], dataset, cfg)
             for mode, dataset in datasets.items()}
    update_manifest(run_dir, {"modes": modes})


def generate(run_dir: Path, mode: str, seed_phrase: list[NoteEvent], n: int, cfg: RunConfig,
             out: Path | None = None, midi_out: Path | None = None) -> list[NoteEvent]:
    """Sample ``n`` notes freely from one weight set under the public seed.

    The melody goes to ``out``, by default ``melodies/<mode>.json``, which
    the manifest then records; ``midi_out`` also exports it as MIDI.
    """
    if n < 1:
        raise ValueError(f"number of notes to generate must be >= 1, got {n}")
    _require_record(run_dir, "modes", mode)
    params = load_checked_weights(run_dir, mode, cfg)
    rng = network.make_rng(cfg.seeds.public)
    notes = phase2_generate(params, seed_phrase, n, cfg, rng)
    path = out if out is not None else run_dir / "melodies" / f"{mode}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    save_melody(path, notes)
    log.info("wrote %d notes to %s", len(notes), path)
    if midi_out is not None:
        midi_out.write_bytes(midi.write_midi(Melody(notes=notes)))
    if out is None:
        update_manifest(run_dir, {"melodies": {mode: str(path.relative_to(run_dir))}})
    return notes


def evaluate(melodies: list[Path | str], corpus: list[Melody] | None = None,
             out_dir: Path | None = None, corpus_name: str = "corpus") -> str:
    """The metric report, a ``DS`` column for ``corpus`` and one per melody file; returns its table.

    A file's column is the ``metrics.MODE_COLUMNS`` entry of its stem, else
    the stem; two files for one column are refused. Every error names its
    file, the corpus's as ``corpus_name``. With ``out_dir`` the report goes to
    ``report.json`` and ``report.txt`` there, which a manifest there records.
    """
    reports, sources = {}, {}  # report column -> its metrics, and the file behind them
    if corpus is not None:
        with naming(corpus_name):
            reports["DS"] = metrics.evaluate_many([m.notes for m in corpus])
        sources["DS"] = corpus_name
    for path in map(Path, melodies):
        label = metrics.MODE_COLUMNS.get(path.stem, path.stem)
        if label in sources:
            raise ValueError(f"{sources[label]} and {path} both map to report column {label!r}")
        sources[label] = path
        notes = load_melody(path)
        with naming(path):
            reports[label] = metrics.evaluate(notes)
    table = metrics.report_table(reports)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(metrics.report_to_json(reports) + "\n")
        (out_dir / "report.txt").write_text(table)
        if (out_dir / MANIFEST).exists():
            update_manifest(out_dir, {"report": {"json": "report.json", "text": "report.txt"}})
    return table


def default_seed_phrase(corpus: list[Melody], cfg: RunConfig) -> list[NoteEvent]:
    """First window of the first corpus piece long enough to supply one."""
    for melody in corpus:
        if len(melody.notes) >= cfg.window:
            return list(melody.notes[: cfg.window])
    raise ValueError(f"no corpus piece has {cfg.window} notes for a seed phrase")


def run_experiment(
    corpus: list[Melody],
    cfg: RunConfig,
    out_dir: Path,
    seed_phrase: list[NoteEvent] | None = None,
    export_midi: bool = True,
) -> dict:
    """Run the whole five-mode experiment into a run directory.

    Writes weight files, amended-pair files, generated melodies, the metric
    report and a manifest tying them together, and returns the manifest.
    Fully determined by the corpus, the config and its seeds.
    """
    out_dir = Path(out_dir)
    if seed_phrase is None:
        seed_phrase = default_seed_phrase(corpus, cfg)
    _check_seed_phrase(seed_phrase, cfg)

    train(corpus, cfg, out_dir)
    amend(seed_phrase, cfg, out_dir)
    retrain(corpus, cfg, out_dir)
    for mode in MODES:
        midi_out = out_dir / "melodies" / f"{mode}.mid" if export_midi else None
        generate(out_dir, mode, seed_phrase, cfg.phase2_notes, cfg, midi_out=midi_out)
    evaluate([out_dir / "melodies" / f"{mode}.json" for mode in MODES], corpus, out_dir)
    return read_manifest(out_dir)


# --- run directory ------------------------------------------------------------

def read_manifest(run_dir: Path) -> dict:
    """The run's manifest, ``{}`` before the first stage writes one."""
    path = run_dir / MANIFEST
    return load_json(path, lambda payload: _object(payload, "")) if path.exists() else {}


def _require_record(run_dir: Path, block: str, key: str) -> None:
    """Refuse a stage input that the run's manifest, when there is one, does not record.

    ``train`` restarts the manifest, so a file it does not record was left
    by the stages of an earlier ``orig``.
    """
    manifest = read_manifest(run_dir)
    if manifest and key not in manifest.get(block, {}):
        raise ValueError(f"{run_dir / MANIFEST} records no {block}.{key}; run the stage "
                         f"that makes it after the last train")


def update_manifest(run_dir: Path, update: dict) -> None:
    """Merge ``update`` into the run's manifest and write it atomically.

    Blocks that are objects on both sides are merged key by key, so each
    stage adds its own entries; anything else is replaced.
    """
    manifest = read_manifest(run_dir)
    for key, value in update.items():
        if isinstance(value, dict) and isinstance(manifest.get(key), dict):
            manifest[key].update(value)
        else:
            manifest[key] = value
    network.write_atomic(run_dir / MANIFEST, json_text(manifest).encode())


def _weights_meta(cfg: RunConfig) -> network.WeightsMeta:
    return network.WeightsMeta(pitch_count=cfg.vocab.pitch_count,
                               duration_count=cfg.vocab.duration_count,
                               hidden_size=cfg.hidden_size, window=cfg.window)


def load_checked_weights(run_dir: Path, mode: str, cfg: RunConfig) -> network.LstmParams:
    """``weights/<mode>.wts``, refused unless its dimensions match the config.

    Every ``WeightsFormatError``, a malformed file or a mismatch, names the file.
    """
    path = run_dir / "weights" / f"{mode}.wts"
    with naming(path):
        params, meta = network.load_weights(path)
        network.check_compatible(meta, **vars(_weights_meta(cfg)))
    return params


def _save_mode(run_dir: Path, mode: str, params: network.LstmParams, trace: list[float],
               kept: int, dataset: np.ndarray, cfg: RunConfig) -> dict:
    """Save one weight set, that of epoch ``kept`` of ``trace``; return its manifest entry."""
    path = run_dir / "weights" / f"{mode}.wts"
    path.parent.mkdir(parents=True, exist_ok=True)
    network.save_weights(path, params, _weights_meta(cfg))
    log.info("trained %s on %d examples for %d epochs, final loss %.4f, "
             "kept epoch %d (loss %.4f)",
             mode, len(dataset), len(trace), trace[-1], kept, trace[kept - 1])
    return {
        "weights": str(path.relative_to(run_dir)),
        "weights_sha256": file_fingerprint(path),
        "dataset_sha256": dataset_fingerprint(dataset),
        "dataset_size": len(dataset),
        "epochs_run": len(trace),
        "final_loss": trace[-1],
        "best_epoch": kept,
        "best_loss": trace[kept - 1],
    }
