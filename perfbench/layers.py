"""Per-layer metrics of one traced repeat, computed from its spans.

A layer is a module of the program. A function's self time is the time its
spans cover minus the time covered by the spans they directly enclose, so
``network.fit.self_s`` is the training loop's own work (shuffling and the
batch gather) and ``pipeline.phase1_generate.self_s`` the per-note glue.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

SELF_S = (
    "network.batch_gradients", "network.clip_gradients", "network.adam_update", "network.fit",
    "network.forward", "network.save_weights", "network.load_weights", "network.init_params",
    "encoding.make_training_windows", "encoding.stack_examples", "encoding.encode_note",
    "encoding.split_distribution", "encoding.sample_index",
    "grammar.constrained_sample",
    "pipeline.phase1_generate", "pipeline.phase2_generate", "pipeline.corpus_windows",
    "pipeline.build_augmented_dataset", "pipeline.dataset_fingerprint", "pipeline.save_amended",
    "pipeline.save_melody", "pipeline.load_corpus",
    "midi.parse_midi", "midi.extract_melody", "midi.transpose_to_c", "midi.quantize_durations",
    "midi.write_midi",
    "metrics.evaluate", "metrics.evaluate_many",
)
CALLS = (
    "network.batch_gradients", "network.forward", "encoding.encode_note",
    "encoding.split_distribution", "encoding.sample_index", "grammar.constrained_sample",
    "midi.parse_midi", "metrics.evaluate", "metrics.evaluate_many",
)
TRAININGS = ("train_orig", "retrain_dia", "retrain_spi", "retrain_tri", "retrain_mix")
STREAMS = ("dia", "spi", "tri")


def span_durations(launches: list) -> dict[str, list[float]]:
    """Durations of every call of each wrapped function, in call order."""
    durations: dict[str, list[float]] = defaultdict(list)
    for _, rec, _ in launches:
        for label, start, end, _ in rec["spans"]:
            durations[label].append(end - start)
    return durations


def per_layer(launches: list, rep_dir: Path) -> dict[str, float]:
    """Layer metrics of one repeat; ``launches`` holds (command, record, spawn time)."""
    durations = span_durations(launches)
    calls = {label: len(d) for label, d in durations.items()}
    total = {label: sum(d) for label, d in durations.items()}
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    missing: set[str] = set()
    stages: dict[str, float] = defaultdict(float)
    for command, rec, _ in launches:
        missing.update(rec["missing"])
        spans = rec["spans"]
        enclosed = [0.0] * len(spans)
        for label, start, end, parent in spans:
            if parent >= 0:
                enclosed[parent] += end - start
        for (label, start, end, _), inner in zip(spans, enclosed):
            own[label] += end - start - inner
        for name, value in rec["counts"].items():
            counts[name] += value
        if command == "ingest":
            stages["ingest"] += rec["t_done"] - rec["t_stage"]

    out: dict[str, float] = {}
    present = [label for label in SELF_S if label not in missing]
    for label in present:
        out[f"{label}.self_s"] = own[label]
        if label in CALLS:
            out[f"{label}.calls"] = calls.get(label, 0)
    if "network.forward" in present and calls.get("network.forward"):
        out["network.forward.us_per_call"] = 1e6 * total["network.forward"] / calls["network.forward"]
    out.update(counts)
    out["network.batches"] = calls.get("network.batch_gradients", 0)
    if counts["grammar.draws"]:
        out["grammar.accept_ratio"] = calls["grammar.constrained_sample"] / counts["grammar.draws"]

    manifest = json.loads((rep_dir / "run" / "manifest.json").read_text())
    for stream in STREAMS:
        out[f"grammar.{stream}.amended"] = manifest["phase1"][stream]["amended"]
    corpus = json.loads((rep_dir / "corpus.json").read_text())
    files = len(list((rep_dir.parent / "inputs" / "midi").glob("*.mid")))
    out["midi.rejected"] = files - len(corpus["pieces"])

    stages.update(zip(TRAININGS, durations["pipeline.train_on_examples"]))
    stages.update(zip((f"amend_{s}" for s in STREAMS), durations["pipeline.phase1_generate"]))
    stages["generate"] = total.get("pipeline.phase2_generate", 0.0)
    stages["evaluate"] = total.get("metrics.evaluate", 0.0) + total.get("metrics.evaluate_many", 0.0)
    for name, seconds in stages.items():
        out[f"pipeline.stage.{name}_s"] = seconds
    return out
