"""Benchmark of the noisekey package: one workload per run, one JSON result line.

    python3 bench/run.py --workload design-session --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
`src/` directory. Workloads (closed loop, one client, single thread):

  design-session  sessions at the paper's design point (hashing + RS decode heavy)
  toy-session     thousands of tiny blocks with noisy parity (per-call overhead)
  analyst         in-process `cli.main`: reproduce-table2, analyze, attack

With `--trace 0` the last line carries the end-to-end metrics listed in
BENCHMARK.json; with `--trace 1` it carries the per-layer metrics of a
traced run, and the spans are written to `.bench_work/`. Every output is
checked; `failed` counts the checks that did not hold.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from spans import END, START, Tracer

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".bench_work"
SETUP_SAMPLES = 10
MIN_PASSES = 5

# One single-threaded process: no BLAS or OpenMP thread pools, no fan-out.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("NOISEKEY_THREADS", None)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package() -> None:
    """Put the checkout's `src/` first on the path; refuse to run without it."""
    src = ROOT / "src"
    if not (src / "noisekey" / "__init__.py").is_file():
        raise SystemExit(f"bench: no package source under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import noisekey

    if Path(noisekey.__file__).resolve().parent != (src / "noisekey").resolve():
        raise SystemExit(f"bench: imported noisekey from {noisekey.__file__}, not {src}")


def calibrate(reps: int) -> float:
    """Median ms of a fixed loop that does not touch noisekey.

    A pure-Python loop, a sort, and integer convolutions up to the size of
    one design-point hashing unit: together they track how the host's speed
    drift slows the workloads better than any one of them alone.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.integers(0, 1 << 16, size=100_000)
    unit = rng.integers(0, 2, size=13_360)
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        acc = 0
        for i in range(100_000):
            acc ^= i * 7
        np.sort(a)
        np.convolve(a[:2000], a[:500])
        np.convolve(unit, a[:2000])
        times.append(perf_counter() - t0)
    return 1e3 * sorted(times)[reps // 2]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
    }


def setup_seconds(workload: str, seed: int, count: int) -> list[float]:
    """Fresh-process set-up times: spawn until the child reports it is ready."""
    samples = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(count):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            line = child.stdout.readline()
            ready = perf_counter()
            child.stdout.read()
            try:
                code = child.wait(timeout=60)
            except subprocess.TimeoutExpired:
                child.kill()
                raise
            if code != 0 or line.strip() != "ready":
                raise SystemExit(f"bench: set-up probe failed for {workload}")
        samples.append(ready - t0)
    return samples


def timed_pass(wl, inputs):
    gc.collect()
    t0 = perf_counter()
    result = wl.run(inputs)
    return result, perf_counter() - t0


def measure(wl, ledger, seconds: float, tracer=None) -> dict:
    """One warm-up pass, then timed passes until `seconds` have passed.

    Each timed pass is bracketed by the calibration loop, so its time can be
    read in units of the host's current speed. With a tracer, every pass is
    repeated traced on the same inputs and must give the same digest.
    """
    first = wl.config(0)
    warm = wl.run(first)
    out = {"digest": wl.digest(warm), "pass_s": [], "calib_s": [], "traced_s": []}
    if tracer is not None:
        with tracer.span("warmup"):
            traced = wl.run(first)
        ledger.check("warm-up: traced digest equals untraced digest",
                     wl.digest(traced) == out["digest"])
        del traced
    wl.check(warm, ledger, full=True)
    del warm

    deadline = perf_counter() + seconds
    while len(out["pass_s"]) < MIN_PASSES or perf_counter() < deadline:
        index = len(out["pass_s"]) + 1
        inputs = wl.config(index)
        before = calibrate(1)
        result, elapsed = timed_pass(wl, inputs)
        after = calibrate(1)
        wl.record(result)
        out["pass_s"].append(elapsed)
        out["calib_s"].append((before + after) / 2e3)
        if tracer is not None:
            gc.collect()
            with tracer.span("pass") as span:
                traced = wl.run(inputs)
            out["traced_s"].append(span[END] - span[START])
            ledger.check(f"pass {index}: traced digest equals untraced digest",
                         wl.digest(traced) == wl.digest(result))
            del traced
        wl.check(result, ledger)
        del result
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ledger.settle()
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    WORK_DIR.mkdir(exist_ok=True)

    import workloads
    from checks import Ledger

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.setup_probe:
        workloads.make_workload(args.workload, args.seed, WORK_DIR)
        print("ready", flush=True)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    env = environment()
    env["host.calib_ms.start"] = calibrate(5)
    ledger = Ledger()

    if not args.trace:
        # Half the set-ups before the passes and half after, so their median
        # samples the host over the whole run.
        setups = setup_seconds(args.workload, args.seed, SETUP_SAMPLES // 2)
        wl = workloads.make_workload(args.workload, args.seed, WORK_DIR)
        out = measure(wl, ledger, args.seconds)
        setups += setup_seconds(args.workload, args.seed, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    else:
        import layers

        with Tracer() as tracer:
            layers.install(tracer)
            with tracer.span("setup"):
                wl = workloads.make_workload(args.workload, args.seed, WORK_DIR)
            out = measure(wl, ledger, args.seconds, tracer)
    env["host.calib_ms.end"] = calibrate(5)
    env["host.calib_ms.p50"] = 1e3 * statistics.median(out["calib_s"])

    passes = len(out["pass_s"])
    diagnostics = wl.diagnostics()
    if not args.trace:
        report = dict(wl.metrics())
        report["pass_p50_calib"] = (
            statistics.median(p / c for p, c in zip(out["pass_s"], out["calib_s"])), "calib"
        )
        report["pass_p50_ms"] = (1e3 * statistics.median(out["pass_s"]), "ms")
        report["setup_s"] = (statistics.median(setups), "s")
        report["peak_rss_mb"] = (out["peak_rss_mb"], "MB")
    else:
        report = layers.layer_metrics(tracer.spans)
        checked = max(diagnostics.get("passes_checked", 0), 1)
        for name in ("units_failed", "units_miscorrected"):
            report[f"session.{name}"] = (diagnostics.get(name, 0) / checked, "units/pass")
        report["trace.overhead_ratio"] = (sum(out["traced_s"]) / sum(out["pass_s"]), "ratio")
        spans_path = WORK_DIR / f"spans-{args.workload}-{args.seed}.json.gz"
        tracer.write(spans_path)
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    print("env " + json.dumps(env, sort_keys=True))
    print(f"samples passes={passes} (timed, after one warm-up pass)"
          + ("" if args.trace else f" setup_s={len(setups)} fresh processes"))
    for name, (value, unit) in sorted(report.items()):
        print(f"metric {name} {value:.6g} {unit}")
    print(f"digest {args.workload} sha256={out['digest']}")
    print("diagnostics " + json.dumps(diagnostics, sort_keys=True))
    ratio = ledger.failed / ledger.attempted
    print(f"metric ops_failed_ratio {ratio:.6g} ratio ({ledger.failed} of {ledger.attempted} checks)")
    for label in ledger.failures[:20]:
        print(f"check failed: {label}")

    missing = [name for name in wanted if name not in report]
    if missing:
        raise SystemExit(f"bench: workload {args.workload} did not produce {missing}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]} for name in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
