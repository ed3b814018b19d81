"""Solver benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload vdp-stiff --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The untraced run (``--trace 0``) reports the end-to-end
metrics; the traced run (``--trace 1``) wraps each layer's public functions
and reports the per-layer metrics, the tracing overhead and, on the implicit
workloads, a scipy Radau comparator line.  Lines starting with ``#`` are
details; the last line is one JSON object with the keys correct, attempted,
failed and metrics.  All load comes from this one process and thread, with
BLAS pinned to one thread; only ``setup_s`` starts fresh interpreters.

Times are scaled to a reference machine speed.  On a shared virtual machine
the speed of one core can drift by a factor of two over tens of seconds (CPU
time drifts with wall time, so it is not preemption), which moves the median
of a 20 s run by 10-30%.  So each set-up probe and each solve or stability
cell is timed on its own, and a fixed pure-Python loop that shares no code
with ieldtm or numpy is timed (median of three) after every probe and
whenever BLOCK_S of items has run; each probe's and item's wall time is
multiplied by REFERENCE_CALIBRATION_S over the mean of the two calibrations
around it, and a pass's time is the sum over its items.  The raw samples are
in the ``#`` line.
"""

import os

# Pinned before numpy is first imported, here and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
# Calibration: the loop's length and repeats, its time at the reference speed
# (about the median on an Intel Xeon at 2.1 GHz under CPython 3.11), and the
# item time between two calibrations.
CALIBRATION_LOOPS = 80_000
CALIBRATION_REPEATS = 3
REFERENCE_CALIBRATION_S = 0.008
BLOCK_S = 0.25
SETUP_PROBE = ("import sys; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
               "workloads.WORKLOADS[{name!r}].build({seed})")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


def measure_setup(name: str, seed: int):
    """Seconds for a fresh interpreter to import ieldtm and build the
    workload's problems and configs, SETUP_REPEATS times, each between two
    calibrations.  Returns the scaled and the raw times."""
    code = SETUP_PROBE.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    calibrations, scaled, raw = [calibrate()], [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdin=subprocess.DEVNULL)
        raw.append(time.perf_counter() - start)
        calibrations.append(calibrate())
        scaled.append(raw[-1] * REFERENCE_CALIBRATION_S / statistics.fmean(calibrations[-2:]))
    return scaled, raw


class Tally:
    """Outcomes of every checked pass: attempts, failures, worst error."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.worst_error = None

    def add(self, outcomes):
        self.attempted += len(outcomes)
        self.failures += [o.note for o in outcomes if not o.ok]
        errors = [o.error for o in outcomes if o.error is not None]
        if errors:
            self.worst_error = max(errors + [self.worst_error or 0.0])
        return sum(o.work for o in outcomes)

    def error_digits(self) -> float:
        """-log10 of the worst error, floored at 1e-17 (beyond float64); 0
        when no output could be judged."""
        if self.worst_error is None:
            return 0.0
        return -math.log10(max(self.worst_error, 1e-17))


def timed_pass(workload, items):
    start = time.perf_counter()
    outputs = workload.run(items)
    return time.perf_counter() - start, outputs


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop: the machine's current
    speed, with a one-off interruption filtered out."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(samples):
    """Highest percentile with at least ten samples above it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {"percentile": 100.0 * (n - 10) / n, "value": sorted(samples)[n - 11]}


def scaled_passes(workload, items, ref, seconds, tally):
    """Passes for ``seconds``, each item timed on its own and the machine
    calibrated whenever BLOCK_S of item time has run since the last
    calibration.  Returns the raw and scaled time of every pass, the
    calibrations and the work of one pass."""
    calibrations = [calibrate()]
    timings = []  # (pass, calibration block, seconds) per item
    since_calibration, passes, work = 0.0, 0, 0
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        outputs = []
        for item in items:
            wall, output = timed_pass(workload, [item])
            outputs += output
            timings.append((passes, len(calibrations) - 1, wall))
            since_calibration += wall
            if since_calibration >= BLOCK_S:
                calibrations.append(calibrate())
                since_calibration = 0.0
        work = tally.add(workload.check(items, outputs, ref))
        passes += 1
    calibrations.append(calibrate())
    raw, scaled = [0.0] * passes, [0.0] * passes
    for n, block, wall in timings:
        raw[n] += wall
        scaled[n] += wall * REFERENCE_CALIBRATION_S / statistics.fmean(calibrations[block:block + 2])
    return raw, scaled, calibrations, work


def untraced_run(workload, seed, seconds, tally):
    setup, raw_setup = measure_setup(workload.name, seed)
    items = workload.build(seed)
    ref = workload.prepare(items)
    raw, scaled, calibrations, work = scaled_passes(workload, items, ref, seconds, tally)
    wall_s = statistics.median(scaled)
    detail = {"seed": seed, "passes": len(raw), "wall_s_samples": scaled,
              "wall_s_tail": tail(scaled), "raw_wall_s": statistics.median(raw),
              "raw_wall_s_samples": raw, "calibration_s_samples": calibrations,
              "setup_s_samples": setup, "raw_setup_s_samples": raw_setup}
    metrics = {
        "wall_s": (wall_s, "s"),
        "us_per_step": (1e6 * wall_s / work if work else 0.0, "us"),
        "steps": (work, "count"),
        "err_digits": (tally.error_digits(), "digits"),
        "setup_s": (statistics.median(setup), "s"),
    }
    return metrics, detail


def traced_run(workload, seed, seconds, tally):
    import tracing
    import workloads

    recorder = tracing.Recorder()
    items = workload.build(seed)
    traced_items = workloads.traced_items(items, recorder.wrap_problem)
    ref = workload.prepare(items)
    plain, traced, per_pass = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        wall, outputs = timed_pass(workload, items)
        plain.append(wall)
        tally.add(workload.check(items, outputs, ref))
        recorder.reset()
        with recorder.installed():
            wall, outputs = timed_pass(workload, traced_items)
        traced.append(wall)
        steps = tally.add(workload.check(items, outputs, ref))
        per_pass.append((recorder.table(), recorder.newton_iters, steps, wall))
    table, wall = per_pass[-1][0], per_pass[-1][3]
    recorder.write(OUT_DIR / f"{workload.name}-seed{seed}-spans.npz")
    samples = [tracing.layer_metrics(*p) for p in per_pass]
    metrics = {key: (statistics.median(m[key] for m in samples), tracing.unit(key))
               for key in samples[0]}
    # Each traced pass against the untraced pass just before it.
    metrics["trace.overhead_frac"] = (
        statistics.median(t / p for t, p in zip(traced, plain)) - 1.0, "ratio")
    detail = {"seed": seed, "passes": len(traced), "absent": recorder.absent,
              "traced_wall_s": wall, "spans": {
                  name: {"calls": row["calls"],
                         "incl_share": row["incl_s"] / wall,
                         "self_share": row["self_s"] / wall}
                  for name, row in table.items()}}
    if workload.compare is not None:
        detail["reference"] = workload.compare(items, ref)
    return metrics, detail


def main(argv=None) -> int:
    parser, args = parse_args(argv)
    if not (SRC / "ieldtm" / "__init__.py").is_file():
        print(f"error: no ieldtm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC)]
    import ieldtm
    import workloads

    if Path(ieldtm.__file__).resolve().parent != SRC / "ieldtm":
        print(f"error: imported ieldtm from {ieldtm.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    tally = Tally()
    run = traced_run if args.trace else untraced_run
    metrics, detail = run(workload, args.seed, args.seconds, tally)
    detail["failed_frac"] = len(tally.failures) / tally.attempted
    detail["failures"] = tally.failures[:10]
    if "reference" in detail:
        print("# reference (scipy Radau comparator, not a metric): "
              + json.dumps(detail.pop("reference")))
    print("# " + json.dumps({"workload": workload.name, **detail}))
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
