"""Fit each workload's reference-kernel mix (``mix`` in workloads.py).

    python3 perfbench/calibrate.py --seconds 600

Runs the workloads' chains round-robin under one ``speed.Clock``, keeping each
phase's raw time and the kernel samples taken during it. For every candidate
mix of the (small, bulk, fault) kernels on a 0.1 grid it computes, per phase,
the standard deviation of log normalised time, and prints per workload the
mix that minimises the time-weighted mean of those spreads, next to the raw
spreads. The recording informs the choice only if the machine's speed bursts
while it runs; the raw column shows whether it did.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

from run import pin_malloc_thresholds  # noqa: E402
from speed import Clock  # noqa: E402
from workloads import WORKLOADS, Context, Ops  # noqa: E402

MIXES = [(a / 10, b / 10, (10 - a - b) / 10) for a in range(11) for b in range(11 - a)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=float, default=600.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    pin_malloc_thresholds()

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="calibrate-", dir=scratch))
    # (workload, phase) -> [(raw seconds, per-kernel slowness of its samples)]
    groups = defaultdict(list)
    try:
        inputs = {name: wl.write_inputs(args.seed, tmp / name) for name, wl in WORKLOADS.items()}
        end = time.perf_counter() + args.seconds
        with Clock((1.0, 0.0, 0.0)) as clock:
            while time.perf_counter() < end:
                for name, wl in WORKLOADS.items():
                    clock.reset()
                    wl.iteration(Context(ops=Ops(), clock=clock), inputs[name])
                    samples = np.array([s[1:] for s in clock.samples])
                    for phase, first, stop, raw in clock.phases:
                        groups[name, phase].append((raw, samples[first:stop]))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    for name in WORKLOADS:
        phases = {p: rows for (w, p), rows in groups.items() if w == name}
        raw = {p: np.array([r[0] for r in rows]) for p, rows in phases.items()}
        share = {p: t.sum() / sum(v.sum() for v in raw.values()) for p, t in raw.items()}

        def spreads(mix):
            return {p: float(np.std(np.log(raw[p] * [np.mean(1.0 / (k @ mix)) for _, k in rows])))
                    for p, rows in phases.items()}

        scored = [(sum(share[p] * sd for p, sd in spreads(np.array(m)).items()), m) for m in MIXES]
        best = min(scored)[1]
        chosen = spreads(np.array(best))
        print(f"{name}: best mix (small, bulk, fault) = {best}")
        for p in sorted(phases, key=lambda p: -share[p]):
            print(f"  {p:9s} share {share[p]:5.2f}  n {len(raw[p]):3d}  "
                  f"raw sd {np.std(np.log(raw[p])):.3f}  normalised sd {chosen[p]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
