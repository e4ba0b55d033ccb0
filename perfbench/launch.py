"""Run one ``melogram`` CLI command and record, from outside, when its stages ran.

Usage: python3 perfbench/launch.py RECORD {--plain|--trace} -- <melogram args>

The program is driven through ``melogram.cli.main``, the console-script entry
point. Before it runs, the functions that mark stage boundaries are wrapped
(and, with ``--trace``, the layer functions as well) so that every call
leaves a span: name, start, end and the enclosing span. Spans stay in memory
and go to RECORD, as JSON, once the command has returned, together with the
process's CPU time, peak memory, numeric environment and exit code. The
wrappers only read arguments and results; they never copy, change or draw
from them.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from functools import wraps

# Entered first in each command; the time before the first of them is set-up.
STAGE_FUNCTIONS = {
    "midi": ("parse_midi",),
    "pipeline": ("run_experiment", "train_orig", "corpus_windows", "train_on_examples",
                 "phase1_generate", "phase2_generate"),
    "metrics": ("evaluate", "evaluate_many"),
}
# Wrapped only in a traced run.
LAYER_FUNCTIONS = {
    "network": ("init_params", "forward", "batch_gradients", "clip_gradients",
                "adam_update", "fit", "save_weights", "load_weights"),
    "encoding": ("encode_note", "split_distribution", "sample_index",
                 "make_training_windows", "stack_examples"),
    "grammar": ("constrained_sample",),
    "pipeline": ("build_augmented_dataset", "dataset_fingerprint", "save_amended",
                 "save_melody", "load_corpus"),
    "midi": ("extract_melody", "transpose_to_c", "quantize_durations", "write_midi"),
}
DEFAULT_RESAMPLE_CAP = 100  # grammar.constrained_sample's default ``cap``
COUNTERS = ("network.epochs", "encoding.dataset_bytes", "grammar.draws", "grammar.fallbacks",
            "midi.bytes_in", "metrics.notes")
PROBED = ("network.fit", "encoding.stack_examples", "grammar.constrained_sample",
          "midi.parse_midi", "metrics.evaluate", "metrics.evaluate_many")


def _probe(counts: dict, label: str, args, kwargs, result) -> None:
    """Add what one call did to the counters, from its arguments and result."""
    if label == "network.fit":
        counts["network.epochs"] += len(result[1])
    elif label == "encoding.stack_examples":
        counts["encoding.dataset_bytes"] += int(result[0].nbytes)
    elif label == "grammar.constrained_sample":
        counts["grammar.draws"] += result[1]
        counts["grammar.fallbacks"] += result[1] > kwargs.get("cap", DEFAULT_RESAMPLE_CAP)
    elif label == "midi.parse_midi":
        counts["midi.bytes_in"] += len(args[0])
    elif label == "metrics.evaluate":
        counts["metrics.notes"] += len(args[0])
    elif label == "metrics.evaluate_many" and isinstance(args[0], (list, tuple)):
        counts["metrics.notes"] += sum(len(notes) for notes in args[0])


class Recorder:
    """Span and counter store for one program process."""

    def __init__(self) -> None:
        self.spans: list = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.missing: list[str] = []
        self.t_stage: float | None = None
        self.cpu_stage: float | None = None
        self.phase1: list = []  # (seed phrase, rules, filtered notes) per amend stream
        self.traces: list = []  # per-epoch losses of each training
        # What the output checks need beyond the files the program writes.
        self.captures = {
            "pipeline.phase1_generate":
                lambda args, result: self.phase1.append((args[1], args[3], result[0])),
            "pipeline.train_on_examples": lambda args, result: self.traces.append(result[1]),
        }

    def install(self, functions: dict[str, tuple[str, ...]], stage: bool) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "melogram" or name.startswith("melogram."))]
        for short, names in functions.items():
            module = sys.modules.get(f"melogram.{short}")
            for name in names:
                original = getattr(module, name, None)
                if original is None:
                    self.missing.append(f"{short}.{name}")
                    continue
                wrapper = self._wrap(f"{short}.{name}", original, stage)
                # Also rebind names imported by value (``from .encoding import ...``).
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, label: str, fn, stage: bool):
        spans, stack, counts = self.spans, self.stack, self.counts
        probed = label in PROBED
        capture = self.captures.get(label)
        clock = time.monotonic

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if stage and self.t_stage is None:
                self.cpu_stage = time.process_time()
                self.t_stage = clock()
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = [label, start, end, parent]
            if probed:
                _probe(counts, label, args, kwargs, result)
            if capture is not None:
                capture(args, result)
            return result

        return wrapper


def blas_environment() -> dict:
    """Versions and the thread count OpenBLAS reports inside this process."""
    import numpy
    import scipy

    libs = {}
    for package in (numpy, scipy):
        libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
        for path in sorted(glob.glob(os.path.join(libdir, "*openblas*"))):
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                    if get_threads is not None and get_config is not None:
                        get_threads.restype = ctypes.c_int
                        get_config.restype = ctypes.c_char_p
                        libs[os.path.basename(path)] = {
                            "threads": get_threads(), "config": get_config().decode()}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": libs,
        "thread_vars": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _notes(notes) -> list[list[int]]:
    return [[n.pitch, n.duration] for n in notes]


def main() -> int:
    record_path, mode, separator, *argv = sys.argv[1:]
    if mode not in ("--plain", "--trace") or separator != "--":
        raise SystemExit(__doc__)
    from melogram import cli

    recorder = Recorder()
    recorder.install(STAGE_FUNCTIONS, stage=True)
    if mode == "--trace":
        recorder.install(LAYER_FUNCTIONS, stage=False)
    t_main = time.monotonic()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = exc.code if isinstance(exc.code, int) else 2
    t_done = time.monotonic()
    cpu_done = time.process_time()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {
        "rc": rc,
        "t_stage": recorder.t_stage if recorder.t_stage is not None else t_main,
        "cpu_stage": recorder.cpu_stage if recorder.cpu_stage is not None else 0.0,
        "t_done": t_done,
        "cpu_done": cpu_done,
        "maxrss_kb": maxrss_kb,
        "env": blas_environment(),
        "spans": recorder.spans,
        "counts": recorder.counts,
        "missing": recorder.missing,
        "phase1": [
            {"seed": _notes(seed), "rules": sorted(r.value for r in rules), "notes": _notes(notes)}
            for seed, rules, notes in recorder.phase1
        ],
        "traces": recorder.traces,
    }
    with open(record_path, "w") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
