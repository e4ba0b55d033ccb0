"""Command-line interface.

Commands mirror the experiment stages: ``ingest`` builds a corpus from MIDI
files, ``train`` fits the base weights, ``amend`` harvests rule-filtered
generation, ``retrain`` fits the augmented weight sets, ``generate`` samples
melodies, ``evaluate`` reports the metrics and ``export`` writes MIDI.
``run-all`` performs the whole five-mode experiment into one run directory.
``main`` parses the arguments and loads the config; each command calls one
function of ``pipeline``; ``run-all`` calls ``run_experiment``, which composes
the same stage functions, so the staged chain and ``run-all`` write the same files.

The ``--config`` file is the only source of config values; keys it omits
keep their defaults. Exit codes: 0 success, 2 validation failure (a config
error included: an unknown key, a wrong JSON type or a value out of range,
each message starting with the file, e.g. ``c.json: model.window: expected
int, got 'x'``; a path that is missing, of the wrong kind or not readable),
3 parse failure (any input file that is not valid JSON or not UTF-8, a manifest or a
manifest block that is not a JSON object, and a manifest with a top-level key other than
``corpus``, ``modes`` and ``phase1``, each named), 4 unexpected runtime failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from . import grammar, midi, network, pipeline
from .notes import Key, Melody, NoteEvent

log = logging.getLogger("melogram")

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_RUNTIME = 4


def load_config(path: str | None) -> pipeline.RunConfig:
    """The config file at ``path``, every error naming it; no path means all defaults."""
    if path is None:
        return pipeline.RunConfig()
    return pipeline.load_json(Path(path), pipeline.config_from_dict)


def parse_seed_phrase(text: str) -> list[NoteEvent]:
    """Parse a seed phrase written as ``pitch:duration`` pairs, e.g. ``60:4,64:2``."""
    notes = []
    for chunk in text.split(","):
        with pipeline.naming(f"bad seed note {chunk!r}"):
            pitch, duration = chunk.strip().split(":")
            notes.append(NoteEvent(int(pitch), int(duration)))
    return notes


def _seed_phrase(args, cfg: pipeline.RunConfig) -> list[NoteEvent]:
    """``--seed-phrase`` when given, else the corpus's default seed phrase."""
    if args.seed_phrase is not None:
        return parse_seed_phrase(args.seed_phrase)
    if args.corpus is None:
        raise ValueError("need --seed-phrase or --corpus to derive one")
    return pipeline.default_seed_phrase(pipeline.load_corpus(Path(args.corpus)), cfg)


# --- commands ---------------------------------------------------------------

def cmd_ingest(args, cfg: pipeline.RunConfig) -> None:
    corpus = pipeline.ingest(
        Path(args.midi_dir), cfg,
        key=Key.parse(args.key) if args.key else None,
        detect_key=args.detect_key,
        allow_any_meter=args.allow_any_meter,
    )
    pipeline.save_corpus(Path(args.out), corpus)
    log.info("wrote %d pieces to %s", len(corpus), args.out)


def cmd_train(args, cfg: pipeline.RunConfig) -> None:
    pipeline.train(pipeline.load_corpus(Path(args.corpus)), cfg, Path(args.run_dir))


def cmd_amend(args, cfg: pipeline.RunConfig) -> None:
    rules = None if args.rules is None else grammar.parse_rules(args.rules)
    pipeline.amend(_seed_phrase(args, cfg), cfg, Path(args.run_dir), rules=rules)


def cmd_retrain(args, cfg: pipeline.RunConfig) -> None:
    pipeline.retrain(pipeline.load_corpus(Path(args.corpus)), cfg, Path(args.run_dir))


def cmd_generate(args, cfg: pipeline.RunConfig) -> None:
    pipeline.generate(
        Path(args.run_dir), args.mode, _seed_phrase(args, cfg), args.notes, cfg,
        out=Path(args.out) if args.out else None,
        midi_out=Path(args.midi_out) if args.midi_out else None,
    )


def cmd_evaluate(args, cfg: pipeline.RunConfig) -> None:
    corpus = pipeline.load_corpus(Path(args.corpus)) if args.corpus else None
    out = Path(args.out) if args.out else None
    sys.stdout.write(pipeline.evaluate(args.melodies, corpus, out))


def cmd_export(args, cfg: pipeline.RunConfig) -> None:
    notes = pipeline.load_melody(Path(args.melody))
    with pipeline.naming(args.melody):
        data = midi.write_midi(Melody(notes=notes))
    network.write_atomic(Path(args.out), data)
    log.info("wrote %d bytes to %s", len(data), args.out)


def cmd_run_all(args, cfg: pipeline.RunConfig) -> None:
    corpus = pipeline.load_corpus(Path(args.corpus))
    manifest = pipeline.run_experiment(
        corpus, cfg, Path(args.run_dir),
        seed_phrase=None if args.seed_phrase is None else parse_seed_phrase(args.seed_phrase),
        export_midi=not args.no_midi,
    )
    sys.stdout.write((Path(args.run_dir) / "report.txt").read_text())
    log.info("run complete: %d modes, manifest at %s/manifest.json",
             len(manifest["modes"]), args.run_dir)


def cmd_init_config(args, cfg: pipeline.RunConfig) -> None:
    defaults = pipeline.config_to_dict(pipeline.RunConfig())
    pipeline.save_json(Path(args.out), defaults)
    log.info("wrote default config to %s", args.out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="melogram",
        description="Melody LSTM with music-theory grammar filters for data augmentation",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    # Options shared by several commands, each declared once.
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config")
    run.add_argument("--run-dir", required=True)
    corpus = argparse.ArgumentParser(add_help=False)
    corpus.add_argument("--corpus", required=True)
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--corpus", help="corpus to take the default seed phrase from")
    seed.add_argument("--seed-phrase", help="notes as pitch:duration pairs, e.g. 60:4,64:2,...")

    p = sub.add_parser("ingest", help="build a corpus file from a directory of MIDI files")
    p.add_argument("midi_dir")
    p.add_argument("--out", required=True, help="corpus JSON to write")
    p.add_argument("--config", help="config file (vocabulary block is used)")
    p.add_argument("--key", help="key like D:major for files without a key signature")
    p.add_argument("--detect-key", action="store_true",
                   help="estimate missing keys from the pitch-class histogram")
    p.add_argument("--allow-any-meter", action="store_true",
                   help="keep pieces whose time signature is not 4/4")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("train", parents=[corpus, run], help="train the base weights on a corpus")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("amend", parents=[seed, run],
                       help="filtered generation that harvests amended pairs")
    p.add_argument("--rules", help="comma-separated subset of dia,spi,tri (default all)")
    p.set_defaults(func=cmd_amend)

    p = sub.add_parser("retrain", parents=[corpus, run],
                       help="train dia/spi/tri/mix weights on augmented data")
    p.set_defaults(func=cmd_retrain)

    p = sub.add_parser("generate", parents=[run, seed], help="free generation from one weight set")
    p.add_argument("--mode", required=True, choices=list(pipeline.MODES))
    p.add_argument("-n", "--notes", type=int, required=True)
    p.add_argument("--out", help="melody JSON path (default melodies/<mode>.json)")
    p.add_argument("--midi-out", help="also export the melody as MIDI")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", help="metric report over melody files")
    p.add_argument("melodies", nargs="+", help="melody JSON files")
    p.add_argument("--corpus", help="include the corpus as a DS column")
    p.add_argument("--out", help="directory for report.json and report.txt")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("export", help="write a melody file as a MIDI file")
    p.add_argument("melody")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("run-all", parents=[corpus, run],
                       help="full five-mode experiment into a run directory")
    p.add_argument("--seed-phrase")
    p.add_argument("--no-midi", action="store_true", help="skip MIDI exports")
    p.set_defaults(func=cmd_run_all)

    p = sub.add_parser("init-config", help="write a config file with all defaults")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_init_config)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        args.func(args, load_config(getattr(args, "config", None)))
        return EXIT_OK
    except pipeline.InputFormatError as exc:
        log.error("%s", exc)
        return EXIT_PARSE
    except pipeline.CorpusError as exc:
        log.error("%s: %s", args.corpus, exc)
        return EXIT_VALIDATION
    except (ValueError, FileNotFoundError, FileExistsError, IsADirectoryError,
            NotADirectoryError, PermissionError) as exc:  # bad paths; a full disk is no bad input
        log.error("%s", exc)
        return EXIT_VALIDATION
    except Exception as exc:  # noqa: BLE001 - last-resort CLI guard
        log.error("unexpected failure: %s", exc)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
