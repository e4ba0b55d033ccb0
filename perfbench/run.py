"""melogram benchmark: times the ``melogram`` CLI end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload {train,sample,pipeline} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --smoke

Each workload is a chain of real CLI commands run on inputs made from the
seed (see ``WORKLOADS``). One warm-up repeat of the chain is run and
discarded; then repeats run until ``--seconds`` is used up, and each metric
is the median over repeats. With ``--trace 0`` the end-to-end metrics are
reported; with ``--trace 1`` traced and untraced repeats alternate and the
per-layer metrics come from the traced ones. Outputs are checked after
timing. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
the human-readable report (environment, medians, quartiles, tails, checks).

``--smoke`` runs all three workloads at a tiny size, traced and untraced,
and checks that the printed metric names and units match BENCHMARK.json.
"""

from __future__ import annotations

import os

# Pinned before anything imports numpy, here and in every program process.
PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PIN)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
from inputs import Sizes  # noqa: E402
from layers import per_layer, span_durations  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
LAUNCH = Path(__file__).resolve().parent / "launch.py"
WORK = ROOT / ".bench_work"


@dataclass(frozen=True)
class Workload:
    chain: str  # "staged": one CLI command per stage; "run-all": ingest, then run-all
    sizes: Sizes


# Every workload runs every stage, so every layer metric is a measured number
# on every workload; what differs is where the time goes.
WORKLOADS = {
    # Training-bound: five trainings of 1.3k+ windows; sampling is a few percent.
    "train": Workload("staged", Sizes(pieces=20, notes=72, format1_every=0, epochs=2,
                                      phase1_notes=150, phase2_notes=300)),
    # Sampling-bound: a one-epoch model is weak, so the filters reject about
    # half the draws and sometimes fall back; batch-1 forward passes dominate.
    "sample": Workload("staged", Sizes(pieces=6, notes=48, format1_every=0, epochs=1,
                                       phase1_notes=1500, phase2_notes=2500)),
    # The whole experiment through run-all from a mixed MIDI directory.
    "pipeline": Workload("run-all", Sizes(pieces=12, notes=48, format1_every=3, epochs=2,
                                          phase1_notes=500, phase2_notes=500)),
}
# Stage throughputs: printed with the end-to-end metrics, and given as layer
# metrics of the pipeline stages in the traced run's result.
THROUGHPUTS = ("train_windows_per_s", "amend_notes_per_s", "gen_notes_per_s")
SMOKE = Sizes(pieces=3, notes=16, format1_every=2, epochs=1, phase1_notes=20, phase2_notes=20)
REGENERATED = "run/melodies/mix-again.json"
COMMAND_TIMEOUT_S = 120  # a run must end within 180 s


def chain(kind: str, sizes: Sizes, inputs_dir: Path) -> list[list[str]]:
    """The CLI commands of one repeat; relative paths are in the repeat dir.

    The run-all chain ends by generating the ``mix`` melody again from the
    saved weights, which must reproduce run-all's own file byte for byte.
    """
    config = str(inputs_dir / "config.json")
    common = ["--corpus", "corpus.json", "--config", config, "--run-dir", "run"]
    generate = ["generate", "--run-dir", "run", "--config", config, "--mode", "mix",
                "-n", str(sizes.phase2_notes), "--corpus", "corpus.json"]
    ingest = ["ingest", str(inputs_dir / "midi"), "--out", "corpus.json", "--config", config]
    if kind == "run-all":
        return [ingest, ["run-all", *common], [*generate, "--out", REGENERATED]]
    return [
        ingest,
        ["train", *common],
        ["amend", *common],
        ["retrain", *common],
        [*generate, "--midi-out", "run/melodies/mix.mid"],
        ["evaluate", "run/melodies/mix.json", "--corpus", "corpus.json", "--out", "run"],
    ]


class PinError(RuntimeError):
    """BLAS is not pinned to one thread in some program process."""


@dataclass
class Repeat:
    dir: Path
    traced: bool
    launches: list = field(default_factory=list)  # (command, record, t_spawn)
    ok: bool = True


@dataclass
class Session:
    """Operations attempted and failed in one benchmark run."""

    attempted: int = 0
    failures: list = field(default_factory=list)

    def op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok


def program_env() -> dict:
    env = dict(os.environ, **PIN)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_repeat(session: Session, work: Path, index: int, sizes: Sizes, kind: str,
               traced: bool) -> Repeat:
    rep = Repeat(work / f"rep{index:02d}", traced)
    rep.dir.mkdir()
    env = program_env()
    for step, argv in enumerate(chain(kind, sizes, work / "inputs")):
        record_path = rep.dir / f"{step}-{argv[0]}.rec"
        with open(rep.dir / f"{step}-{argv[0]}.log", "w") as log:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(record_path),
                 "--trace" if traced else "--plain", "--", *argv],
                cwd=rep.dir, env=env, stdout=log, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                rc = "timeout"
            finally:  # also on interrupt: no program process outlives the benchmark
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        record = json.loads(record_path.read_text()) if record_path.exists() else None
        if not session.op(f"melogram {argv[0]}", rc == 0 and record is not None,
                          f"exit {rc}, see {rep.dir.name}/{step}-{argv[0]}.log"):
            rep.ok = False
            break
        rep.launches.append((argv[0], record, t_spawn))
    return rep


def end_to_end(rep: Repeat) -> dict[str, float]:
    """End-to-end metrics of one repeat, from launch records and outputs."""
    run = rep.dir / "run"
    manifest = json.loads((run / "manifest.json").read_text())
    windows = inputs.corpus_windows(json.loads((rep.dir / "corpus.json").read_text()))
    window_epochs = sum(entry.get("dataset_size", windows) * entry["epochs_run"]
                        for entry in manifest["modes"].values())
    amend_notes = sum(entry["generated"] for entry in manifest["phase1"].values())
    gen_notes = sum(len(json.loads(p.read_text())["notes"]) for p in (run / "melodies").glob("*.json"))
    metrics = {
        "setup_s": sum(rec["t_stage"] - t_spawn for _, rec, t_spawn in rep.launches),
        "wall_s": sum(rec["t_done"] - rec["t_stage"] for _, rec, _ in rep.launches),
        "cpu_s": sum(rec["cpu_done"] - rec["cpu_stage"] for _, rec, _ in rep.launches),
        "peak_rss_mb": max(rec["maxrss_kb"] for _, rec, _ in rep.launches) / 1024.0,
        "final_loss": manifest["modes"]["orig"]["final_loss"],
    }
    durations = span_durations(rep.launches)
    for name, work, function in (
        ("train_windows_per_s", window_epochs, "pipeline.train_on_examples"),
        ("amend_notes_per_s", amend_notes, "pipeline.phase1_generate"),
        ("gen_notes_per_s", gen_notes, "pipeline.phase2_generate"),
    ):
        seconds = sum(durations[function])
        if seconds > 0:
            metrics[name] = work / seconds
    return metrics


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n={n}, no percentile has 10 samples beyond it"
    return f"p{100 * (n - 10) // n}={sorted(values)[n - 11]:.6g} (n={n})"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return "single sample"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"q1={q1:.6g} q3={q3:.6g}"


def check_environment(reps: list[Repeat]) -> dict:
    """The environment block; raises PinError unless BLAS ran on 1 thread everywhere."""
    env: dict = {}
    for rep in reps:
        for command, rec, _ in rep.launches:
            env = rec["env"]
            threads = {lib: info["threads"] for lib, info in env["blas_runtime"].items()}
            if any(env["thread_vars"][v] != PIN[v] for v in PIN) or any(
                    t != 1 for t in threads.values()):
                raise PinError(f"BLAS pin not in effect in melogram {command}: "
                               f"{env['thread_vars']} {threads}")
    return env


def run_checks(session: Session, rep: Repeat, work: Path, expected: dict, kind: str) -> None:
    records = [rec for _, rec, _ in rep.launches]
    try:
        results = checks.check_repeat(ROOT, rep.dir, work / "inputs" / "midi", records, expected,
                                      columns=6 if kind == "run-all" else 2)
        if kind == "run-all":
            again = (rep.dir / REGENERATED).read_bytes()
            results.append(("generate from saved weights reproduces run-all",
                            again == (rep.dir / "run" / "melodies" / "mix.json").read_bytes(), ""))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        results = [("output checks", False, f"{type(exc).__name__}: {exc}")]
    for name, ok, detail in results:
        session.op(name, ok, detail)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes: Sizes | None = None) -> tuple[dict, dict, Session, list[str]]:
    """Run one benchmark session.

    Returns the end-to-end and (when traced) per-layer metric values, the
    operations, and the report lines.
    """
    spec = WORKLOADS[workload]
    sizes = sizes or spec.sizes
    work = WORK / f"{workload}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = inputs.prepare(work / "inputs", sizes, seed)
    session = Session()
    lines = [f"workload {workload}: seed {seed}, {seconds:g} s, trace {int(trace)}, {sizes}",
             f"host: nproc {os.cpu_count()}, load average at start {os.getloadavg()}"]

    # Warm-up: the same commands on inputs of the smoke size, not timed.
    inputs.prepare(work / "warmup" / "inputs", SMOKE, seed)
    all_reps = [run_repeat(session, work / "warmup", 0, SMOKE, spec.chain, traced=False)]
    reps: list[Repeat] = []
    reference: dict = {}
    start, durations = time.monotonic(), []
    while all_reps[-1].ok:
        traced = trace and len(reps) % 2 == 1
        t0 = time.monotonic()
        rep = run_repeat(session, work, len(all_reps), sizes, spec.chain, traced)
        durations.append(time.monotonic() - t0)
        all_reps.append(rep)
        if not rep.ok:
            break
        outputs = checks.digest(rep.dir, [rec for _, rec, _ in rep.launches])
        if reps:
            diff = sorted(k for k in set(reference) | set(outputs)
                          if reference.get(k) != outputs.get(k))
            what = "traced outputs equal untraced" if traced else "outputs equal across repeats"
            session.op(what, not diff, f"{rep.dir.name} differs in {diff[:4]}")
        else:
            reference = outputs
        reps.append(rep)
        enough = not trace or {r.traced for r in reps} == {True, False}
        if enough and time.monotonic() - start + statistics.mean(durations) > seconds:
            break
    if reps:
        run_checks(session, reps[0], work, expected, spec.chain)

    env = check_environment(all_reps)
    lines.append("environment: " + json.dumps(env, sort_keys=True))
    for name in sorted({m for r in all_reps for _, rec, _ in r.launches for m in rec["missing"]}):
        lines.append(f"warning: {name} no longer exists; its metrics are absent")

    plain = [r for r in reps if not r.traced]
    samples: dict[str, list[float]] = {}
    for rep in plain:
        for name, value in end_to_end(rep).items():
            samples.setdefault(name, []).append(value)
    layer_samples: dict[str, list[float]] = {}
    traced = [r for r in reps if r.traced]
    if traced and plain:
        for rep in traced:
            for name, value in per_layer(rep.launches, rep.dir).items():
                layer_samples.setdefault(name, []).append(value)
        walls = [end_to_end(r)["wall_s"] for r in traced]
        layer_samples["trace.overhead_ratio"] = [
            statistics.median(walls) / statistics.median(samples["wall_s"]) - 1.0]
        layer_samples.update((name, samples[name]) for name in THROUGHPUTS if name in samples)
    for name, v in sorted({**samples, **layer_samples}.items()):
        lines.append(f"  {name:<44} median {statistics.median(v):<12.6g} {spread(v)}; {tail(v)}")
    if traced:
        for label, v in sorted(span_durations(traced[0].launches).items()):
            lines.append(f"  one call of {label:<32} median {statistics.median(v):<12.6g} s; {tail(v)}")
    lines.append(f"  error_rate = {len(session.failures)}/{session.attempted}")
    lines += [f"FAILED {f}" for f in session.failures]
    if not session.failures:
        shutil.rmtree(work, ignore_errors=True)
    return ({name: statistics.median(v) for name, v in samples.items()},
            {name: statistics.median(v) for name, v in layer_samples.items()}, session, lines)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def result_line(values: dict, session: Session, trace: bool) -> tuple[dict, list[str]]:
    """The final JSON object, with every metric BENCHMARK.json names for this mode."""
    spec = load_spec()["per_layer" if trace else "end_to_end"]
    metrics, absent = {}, []
    for entry in spec:
        if entry["name"] in values:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
        else:
            absent.append(entry["name"])
    result = {"correct": not session.failures, "attempted": session.attempted,
              "failed": len(session.failures), "metrics": metrics}
    return result, absent


def smoke() -> int:
    """Every workload, tiny and traced; names and units must match BENCHMARK.json."""
    spec = load_spec()
    failed = False
    for workload in WORKLOADS:
        e2e, layer, session, _ = measure(workload, 1, 0.0, True, sizes=SMOKE)
        for trace, values in ((False, e2e), (True, layer)):
            result, absent = result_line(values, session, trace)
            wanted = {e["name"]: e["unit"] for e in spec["per_layer" if trace else "end_to_end"]}
            got = {name: m["unit"] for name, m in json.loads(json.dumps(result))["metrics"].items()}
            ok = got == wanted and result["correct"]
            failed |= not ok
            print(f"smoke {workload} trace {int(trace)}: {'ok' if ok else 'FAIL'} "
                  f"({len(got)} metrics, {result['attempted']} operations, absent {absent}, "
                  f"failures {session.failures[:3]})")
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so the running program process is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "melogram" / "cli.py").is_file():
        print(f"no melogram sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        e2e, layer, session, lines = measure(args.workload, args.seed, args.seconds,
                                             bool(args.trace))
    except PinError as exc:
        print(exc, file=sys.stderr)
        return 3
    result, absent = result_line(layer if args.trace else e2e, session, bool(args.trace))
    for line in lines:
        print(line)
    for name in absent:
        print(f"  {name}: absent on this workload")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
