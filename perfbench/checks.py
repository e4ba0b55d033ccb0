"""Output checks on one repeat's files and launch records.

Each check returns ``(name, ok, detail)``; the driver counts every check as
one operation toward ``attempted`` and every failed one toward ``failed``.
They run in the driver process after timing, with the program's own library
as the judge of rule conformance and of the weights format.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path


def _library(root: Path):
    if str(root / "src") not in sys.path:
        sys.path.insert(0, str(root / "src"))
    from melogram import grammar, network, pipeline

    return grammar, network, pipeline


def digest(rep_dir: Path, records: list[dict]) -> dict[str, str]:
    """SHA-256 of every program output of a repeat, plus the captured streams.

    Launch records and logs hold timings and are left out.
    """
    out = {}
    for path in sorted(rep_dir.rglob("*")):
        if path.is_file() and path.suffix not in (".rec", ".log"):
            out[str(path.relative_to(rep_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    captured = json.dumps([[r["phase1"], r["traces"]] for r in records], sort_keys=True)
    out["captured streams"] = hashlib.sha256(captured.encode()).hexdigest()
    return out


def check_ingest(rep_dir: Path, midi_dir: Path, expected: dict) -> list:
    corpus = json.loads((rep_dir / "corpus.json").read_text())
    files = len(list(midi_dir.glob("*.mid")))
    accepted, want = len(corpus["pieces"]), len(expected["pieces"])
    return [
        ("ingest accepted and rejected counts", accepted == want,
         f"{accepted} accepted and {files - accepted} rejected of {files}; "
         f"generated {want} to accept"),
        ("ingest corpus matches generated melodies", corpus == expected, ""),
    ]


def check_training(root: Path, rep_dir: Path, records: list[dict], cfg) -> list:
    """Finite loss traces; every weights file loads, fits the config and re-saves identically."""
    _, network, _ = _library(root)
    traces = [t for r in records for t in r["traces"]]
    results = [("loss traces finite", bool(traces) and all(
        trace and all(math.isfinite(x) for x in trace) for trace in traces),
        f"{len(traces)} trainings")]
    manifest = json.loads((rep_dir / "run" / "manifest.json").read_text())
    for mode, entry in sorted(manifest.get("modes", {}).items()):
        path = rep_dir / "run" / entry["weights"]
        try:
            params, meta = network.load_weights(path)
            network.check_compatible(
                meta, pitch_count=cfg.vocab.pitch_count, duration_count=cfg.vocab.duration_count,
                hidden_size=cfg.hidden_size, window=cfg.window)
            again = rep_dir / f"{mode}.roundtrip"
            network.save_weights(again, params, meta)
            same = again.read_bytes() == path.read_bytes()
            again.unlink()
            results.append((f"weights {mode} round-trip", same, ""))
        except (OSError, ValueError) as exc:
            results.append((f"weights {mode} round-trip", False, str(exc)))
    return results


def check_sampling(root: Path, rep_dir: Path, records: list[dict], cfg) -> list:
    """Every filtered note conforms to its rule against its history.

    The one documented exception is the TRI fallback that relaxes the rule
    to the last note when no pitch fits the last two; such a note must be
    recorded as a fallback amendment (``attempts == cap + 1``) and conform
    to the relaxed rule.
    """
    grammar, _, pipeline = _library(root)
    from melogram.notes import NoteEvent

    manifest = json.loads((rep_dir / "run" / "manifest.json").read_text())
    streams = [s for r in records for s in r["phase1"]]
    results = [("amend streams captured", len(streams) == len(manifest.get("phase1", {})),
                f"{len(streams)} streams")]
    for stream in streams:
        name = "+".join(stream["rules"])
        rules = frozenset(grammar.Rule(v) for v in stream["rules"])
        amended = pipeline.load_amended(rep_dir / "run" / manifest["phase1"][name]["path"])
        fallbacks = {(pair.context, pair.note) for pair in amended
                     if pair.attempts == cfg.resample_cap + 1}
        history = [NoteEvent(p, d) for p, d in stream["seed"]]
        bad = []
        for pitch, duration in stream["notes"]:
            note = NoteEvent(pitch, duration)
            ok = cfg.vocab.contains(note) and (
                grammar.conforms(note, history, rules)
                or (grammar.Rule.TRI in rules
                    and (tuple(history[-cfg.window:]), note) in fallbacks
                    and grammar.conforms(note, history[-1:], rules)))
            if not ok:
                bad.append(len(history))
            history.append(note)
        entry = manifest["phase1"][name]
        results += [
            (f"amend {name} notes conform", not bad, f"nonconforming at {bad[:5]}"),
            (f"amend {name} counts match manifest",
             entry["generated"] == len(stream["notes"]) == cfg.phase1_notes
             and entry["amended"] == len(amended),
             f"{len(stream['notes'])} notes, {len(amended)} amended"),
            (f"amend {name} pairs in vocabulary", all(
                cfg.vocab.contains(n) for pair in amended for n in (*pair.context, pair.note)), ""),
        ]
    for path in sorted((rep_dir / "run" / "melodies").glob("*.json")):
        notes = pipeline.load_melody(path)
        results.append((f"melody {path.stem} in vocabulary",
                        bool(notes) and all(cfg.vocab.contains(n) for n in notes),
                        f"{len(notes)} notes"))
    return results


def check_run(rep_dir: Path, columns: int) -> list:
    manifest = json.loads((rep_dir / "run" / "manifest.json").read_text())
    report = json.loads((rep_dir / "run" / "report.json").read_text())
    modes = sorted(manifest.get("modes", {}))
    return [
        ("manifest has 5 modes", modes == sorted(("orig", "dia", "spi", "tri", "mix")), str(modes)),
        (f"report has {columns} columns", len(report) == columns, str(list(report))),
    ]


def check_repeat(root: Path, rep_dir: Path, midi_dir: Path, records: list[dict],
                 expected: dict, columns: int) -> list:
    """All output checks of one repeat."""
    _, _, pipeline = _library(root)
    config = json.loads((midi_dir.parent / "config.json").read_text())
    cfg = pipeline.config_from_dict(config)
    return (check_ingest(rep_dir, midi_dir, expected)
            + check_training(root, rep_dir, records, cfg)
            + check_sampling(root, rep_dir, records, cfg)
            + check_run(rep_dir, columns))
