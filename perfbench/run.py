"""tcnad benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from ``src/``. The
run sets up its inputs from ``--seed`` three times, then repeats the
workload's chain until ``--seconds`` would be exceeded (at least once; with
``--trace 1`` alternating untraced and traced passes, then one memory pass).
It prints one line per metric, an ``env`` line, and as its last line one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Workloads,
metrics and the layer map are described in README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

LOAD_AT_START = os.getloadavg()
ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 3
# A fresh interpreter times its own imports, then measures its speed state
# (it may run on the other vCPU, which bursts independently of this one).
IMPORT_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import numpy, tcnad, tcnad.cli
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import speed
print(elapsed / speed.slowness_now(tuple(map(float, sys.argv[3:]))))
"""


def pin_malloc_thresholds():
    """Fix glibc's mmap and trim thresholds for this process.

    By default they adapt to the allocation history, so whether the 2 MB
    attention temporaries are served from the heap or from fresh mappings
    (and page-faulted on every use) differs from process to process: paper
    scoring ran at 250 or 350 windows/s depending on that state. Pinned, every
    array under 32 MB comes from a heap that is never trimmed.
    """
    libc = ctypes.CDLL(ctypes.util.find_library("c"))
    m_trim_threshold, m_mmap_threshold = -1, -3
    libc.mallopt(m_mmap_threshold, 32 * 2**20)
    libc.mallopt(m_trim_threshold, 2**30)


def limit_blas_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, nproc))
        except ValueError:
            current = nproc
        os.environ[var] = str(min(max(current, 1), nproc))
    return nproc


def environment(args, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": nproc, "loadavg_at_start": list(LOAD_AT_START),
        "machine": platform.machine(),
    }


def timed_setup(workload, seed: int, tmp: Path, clock) -> tuple[dict, float]:
    """Median import time in a fresh interpreter plus median input generation."""
    imports, gens = [], []
    for k in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(Path(__file__).parent),
             *map(str, workload.mix)],
            check=True, timeout=120, capture_output=True, text=True)
        imports.append(float(child.stdout))
        with clock.phase("generate"):
            inputs = workload.write_inputs(seed, tmp / f"inputs{k}")
        gens.append(clock.norm["generate"])
        clock.reset()
    return inputs, statistics.median(imports) + statistics.median(gens)


def run_chains(workload, inputs, ctx, seconds: float, tracer):
    """One warm-up pass, then repeat the chain until ``seconds`` are used.

    The first pass in a process differs from later ones by 10-30% in some
    phases (allocator and lazy set-up state), so it is checked but not
    reported. Returns (untraced passes, traced passes, completed); a pass is
    (Iteration, normalised seconds per phase).
    """
    from workloads import ChainAborted

    plain, traced, durations = [], [], []
    start = time.perf_counter()
    warm = False
    while True:
        use_trace = warm and tracer is not None and len(plain) > len(traced)
        ctx.clock.reset()
        if use_trace:
            tracer.install()
        try:
            it = workload.iteration(ctx, inputs)
        except ChainAborted:
            return plain, traced, False
        finally:
            if use_trace:
                tracer.uninstall()
        # timed phases only: the first pass also runs the untimed reload check
        durations.append(sum(ctx.clock.raw.values()))
        norm = dict(ctx.clock.norm)
        if not warm:
            warm = True
        elif use_trace:
            tracer.end_pass(sum(norm.values()) / sum(ctx.clock.raw.values()))
            traced.append((it, norm))
        else:
            plain.append((it, norm))
        enough = len(plain) >= 1 and (tracer is None or len(traced) >= 1)
        # start another pass only if it would end within half a pass of the budget
        if enough and time.perf_counter() - start + 0.5 * statistics.median(durations) > seconds:
            return plain, traced, True


def pipeline_seconds(phases: dict) -> float:
    """One pass of the chain: every phase, with the selection counted once."""
    return sum(v for p, v in phases.items() if p != "reselect")


def end_to_end(workload, passes, setup_s: float) -> dict:
    """Rates are total work over total normalised time across passes, so a
    short phase is measured over every pass; ``pipeline_s`` is the median pass."""
    its = [p[0] for p in passes]
    norms = [p[1] for p in passes]

    def rate(work, *phases):
        return sum(work(i) for i in its) / sum(n[p] for n in norms for p in phases)

    pipeline = statistics.median(pipeline_seconds(n) for n in norms)
    return {
        "setup_s": (setup_s, "s"),
        "pipeline_s": (pipeline, "s"),
        "train_samples_per_s": (rate(lambda i: i.train_samples, "train"), "1/s"),
        "score_windows_per_s": (rate(lambda i: i.score_windows, "score"), "1/s"),
        "select_channels_per_s": (rate(lambda i: workload.timed_selection_channels,
                                       *workload.selection_phases), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "train_loss": (its[0].train_loss, "rmse"),
        "pa_f1": (its[0].pa_f1, "ratio"),
    }


MODEL_LAYERS = ["forecaster.preconv", "attention.temporal", "attention.variable",
                "tcn.block0", "tcn.block1", "tcn.block2", "forecaster.mlp"]
IO_SPANS = ["data.load_channel", "data.compute_stats", "data.normalize", "trainer.build_windows",
            "forecaster.init_forecaster", "forecaster.save_checkpoint", "forecaster.load_checkpoint"]
SELECT_SPANS = ["thresholds.best_f1_threshold", "thresholds.epsilon_threshold",
                "thresholds.pot_threshold", "thresholds.fit_gpd",
                "evaluation.point_adjusted_report", "evaluation.aggregate",
                "data.read_scores_csv", "data.read_manifest", "cli.threshold", "cli.evaluate"]


def per_layer(traced, tracer, peaks: dict, overhead: float) -> dict:
    its = [p[0] for p in traced]
    samples = sum(i.train_samples for i in its)
    windows = sum(i.score_windows for i in its)
    channels = sum(i.model_channels for i in its)
    selected = sum(i.select_channels for i in its)
    sec = tracer.totals
    steps = tracer.calls["optim.adam_step"]

    def ms(key, per):
        return 1000.0 * sec.get(key, 0.0) / per

    out = {}
    train_layers = MODEL_LAYERS + ["autodiff.rmse_loss"]
    for layer in train_layers:
        out[f"{layer}.fwd_ms"] = (ms(f"{layer}.fwd", samples), "ms")
        out[f"{layer}.bwd_ms"] = (ms(f"{layer}.bwd", samples), "ms")
    attributed = sum(sec.get(f"{l}.{k}", 0.0) for l in train_layers for k in ("fwd", "bwd"))
    attributed += sec.get("optim.adam_step", 0.0)
    out["autodiff.backward_ms"] = (ms("autodiff.backward", samples), "ms")
    out["autodiff.tape_records"] = (tracer.records / samples, "count")
    out["optim.adam_step_ms"] = (ms("optim.adam_step", steps), "ms")
    out["optim.steps"] = (steps / channels, "count")
    out["trainer.train_ms"] = (ms("trainer.train", samples), "ms")
    out["trainer.unattributed_ms"] = (1000.0 * (sec.get("trainer.train", 0.0) - attributed) / samples, "ms")
    out["trainer.traced_peak_mb"] = (peaks["train"], "MB")

    inferred = 0.0
    for layer in MODEL_LAYERS:
        out[f"{layer}.infer_ms"] = (ms(f"{layer}.infer", windows), "ms")
        inferred += sec.get(f"{layer}.infer", 0.0)
    out["thresholds.anomaly_scores_ms"] = (ms("thresholds.anomaly_scores", windows), "ms")
    out["thresholds.anomaly_scores.unattributed_ms"] = (
        1000.0 * (sec.get("thresholds.anomaly_scores", 0.0) - inferred) / windows, "ms")
    out["thresholds.anomaly_scores.traced_peak_mb"] = (peaks["score"], "MB")

    for span in IO_SPANS:
        out[f"{span}_ms"] = (ms(span, channels), "ms")
    for span in SELECT_SPANS:
        out[f"{span}_ms"] = (ms(span, selected), "ms")
    out["trace.overhead"] = (overhead, "ratio")
    return out


def memory_pass(workload, inputs, ctx) -> dict:
    """tracemalloc peaks of one train and one anomaly_scores call, in MB."""
    import tracemalloc

    from tcnad import data, forecaster, thresholds, trainer

    spec, ops = workload.model, ctx.ops
    ds = ops.call(data.load_channel, inputs["model"], spec.channel)
    stats = ops.call(data.compute_stats, ds.train)
    samples = ops.call(trainer.build_windows, ops.call(data.normalize, ds.train, stats),
                       spec.config.window)
    test_x = ops.call(data.normalize, ds.test, stats)
    params = ops.call(forecaster.init_forecaster, ds.train.shape[1], spec.config, seed=0)
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in (("train", lambda: trainer.train(params, samples, spec.train_config)),
                           ("score", lambda: thresholds.anomaly_scores(params, test_x))):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ops.call(call)
            peaks[name] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    return peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nproc = limit_blas_threads()
    pin_malloc_thresholds()
    if not (SRC / "tcnad" / "__init__.py").is_file():
        print(f"run.py: no tcnad sources under {SRC}; run from a checkout root", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tcnad

    if Path(tcnad.__file__).resolve().parent != (SRC / "tcnad").resolve():
        print(f"run.py: imported tcnad from {tcnad.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from speed import Clock
    from tracer import Tracer
    from workloads import WORKLOADS, ChainAborted, Context, Ops, warm_up

    if args.workload not in WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    env = environment(args, nproc)

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        ctx = Context(ops=Ops(), clock=Clock(workload.mix))
        tracer = None
        if args.trace:
            from tcnad import autodiff, cli, data, evaluation, forecaster, tcn, thresholds, trainer

            tracer = Tracer({"autodiff": autodiff, "cli": cli, "data": data,
                             "evaluation": evaluation, "forecaster": forecaster, "tcn": tcn,
                             "thresholds": thresholds, "trainer": trainer}, ctx.clock)
        with ctx.clock:
            inputs, setup_s = timed_setup(workload, args.seed, tmp, ctx.clock)
            warm_up()
            plain, traced, completed = run_chains(workload, inputs, ctx, args.seconds, tracer)
        if completed and args.trace:
            overhead = (statistics.median(pipeline_seconds(p[1]) for p in traced)
                        / statistics.median(pipeline_seconds(p[1]) for p in plain))
            try:
                metrics = per_layer(traced, tracer, memory_pass(workload, inputs, ctx), overhead)
            except ChainAborted:
                completed, metrics = False, {}
        elif completed:
            metrics = end_to_end(workload, plain, setup_s)
        else:
            metrics = {}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    ops = ctx.ops
    for err in ops.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}")
    print("env " + json.dumps(env, sort_keys=True))
    correct = completed and ops.failed == 0 and all(math.isfinite(v) for v, _ in metrics.values())
    print(json.dumps({
        "correct": correct,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
