#!/usr/bin/env python3
"""Benchmark of jmokit end to end through cli.run, with an optional traced run.

Run from the root of a checkout (jmokit is imported from ./src):

    python3 bench/run.py --workload pack_exact --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload pack_exact --seed 1 --seconds 10 --trace 1

The seed generates the workload's round of CLI calls (workloads.py); a
fresh worker process runs them in a closed loop and checks every result
(checks.py).  --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones (tracer.py), both named as in BENCHMARK.json.  Timings are
in reference seconds: wall time scaled by the machine's speed at the moment,
as gauged by the fixed block in calib.py.  The last line
of stdout is one JSON object; a human-readable report precedes it, and a
record with the machine, backend and envelope digest is written to
.bench_out/ for compare.py.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_RUNS = 14
DEADLINE_S = 170  # a run must end within 180 s

# A fresh interpreter importing jmokit.cli and completing one trivial call,
# then gauging the machine's speed (argv[1] is this directory).
SETUP_SNIPPET = """
import contextlib, io, sys, time
t0 = time.perf_counter()
import jmokit.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = jmokit.cli.run(["pins", "solve", "--doubled-area", "4042", "--json"])
elapsed = time.perf_counter() - t0
sys.path.insert(0, sys.argv[1])
import calib
print(elapsed if code == 0 else -1.0, calib.speed())
"""

sys.path.insert(0, str(HERE))
import calib  # noqa: E402
import workloads  # noqa: E402


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in THREAD_VARS})  # at most one busy thread on the box
    return env


def measure_setup(env: dict, cwd: Path, runs: int) -> list[tuple[float, float]]:
    """(wall seconds, reference block seconds) of each fresh interpreter."""
    times = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET, str(HERE)], env=env,
                              cwd=cwd, capture_output=True, text=True, timeout=60)
        fields = done.stdout.split() if done.returncode == 0 else []
        value, gauge = (float(x) for x in fields) if len(fields) == 2 else (-1.0, -1.0)
        if value <= 0:
            raise SystemExit(f"setup run failed (exit {done.returncode}): {done.stderr[-2000:]}")
        times.append((value, gauge))
    return times


def scaled_times(res: dict) -> list[float]:
    """Each op's time in reference seconds, as the median over its repeats.

    A repeat's wall time is scaled by REF_S over the mean of the reference
    block times gauged just before and just after it.  Round 0 is left out
    as a warm-up: it fills caches and finishes lazy imports.
    """
    g = res["gauges"]
    rounds = [[t * 2 * calib.REF_S / (g[m - 1] + g[m]) for t, m in zip(times, marks)]
              for times, marks in zip(res["latencies"], res["marks"])]
    return [statistics.median(repeats) for repeats in zip(*rounds[1:])]


def machine(backend: str, numpy_version: str) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
            "python": platform.python_version(), "numpy": numpy_version,
            "backend": backend, "threads_per_blas": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "jmokit" / "cli.py").is_file():
        print(f"error: {root} is not a jmokit checkout (no src/jmokit/cli.py)", file=sys.stderr)
        return 1
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env(root)
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        ops = workloads.make_round(args.workload, args.seed)
        (work / "ops.json").write_text(json.dumps(ops), encoding="utf-8")
        # set-up is sampled before and after the loop, so one slow spell of
        # the machine does not move its median
        setups = [] if args.trace else measure_setup(env, work, SETUP_RUNS // 2)
        budget = DEADLINE_S - (time.monotonic() - started)
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--ops", "ops.json",
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, cwd=work, capture_output=True, text=True, timeout=budget)
        if not args.trace:
            setups += measure_setup(env, work, SETUP_RUNS - SETUP_RUNS // 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        print(f"error: worker exited {done.returncode}:\n{done.stderr[-4000:]}", file=sys.stderr)
        return 1
    res = json.loads(done.stdout.strip().splitlines()[-1])

    failed = len(res["failures"])
    if args.trace:
        metrics = {k: v for k, (v, _) in res["layers"].items()}
    else:
        op_s = scaled_times(res)
        metrics = {
            "ops_per_s": len(op_s) / sum(op_s),
            "latency_p50_ms": 1000 * statistics.median(op_s),
            # inclusive: interpolated between ops' times, never extrapolated
            # past the slowest op of a short round
            "latency_p90_ms": 1000 * statistics.quantiles(op_s, n=10, method="inclusive")[8],
            "success_rate": 1.0 - failed / res["attempted"],
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(t * calib.REF_S / g for t, g in setups),
        }
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(res["backend"], res["numpy"]),
        "digest": res["digest"], "rounds": res["rounds"], "ops_per_round": res["ops_per_round"],
        "attempted": res["attempted"], "failed": failed, "failures": res["failures"][:50],
        "metrics": out,
    }
    if not args.trace:  # what the reference times were scaled from
        g = res["gauges"]
        record.update(
            gauge_ms={"median": 1000 * statistics.median(g), "min": 1000 * min(g),
                      "max": 1000 * max(g), "count": len(g)},
            setup_wall_s=[t for t, _ in setups],
            op_ref_ms=[[" ".join(op["argv"]), 1000 * t] for op, t in zip(ops, op_s)],
            op_wall_median_ms=[1000 * statistics.median(ts)
                               for ts in zip(*res["latencies"][1:])])
    report(record, res)
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json"
    (outdir / name).write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(json.dumps({"correct": failed == 0, "attempted": res["attempted"],
                      "failed": failed, "metrics": out}))
    return 0


def report(record: dict, res: dict) -> None:
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    print(f"machine: {m['nproc']} cpu ({m['cpu']}), python {m['python']}, numpy {m['numpy']}, "
          f"scan backend {m['backend']}")
    print(f"closed loop, 1 client, 1 thread: {record['rounds']} round(s) of "
          f"{record['ops_per_round']} ops, {record['attempted']} calls, "
          f"{record['failed']} failed (error_rate {record['failed'] / record['attempted']:.4f})")
    print(f"envelope digest (round 0): {record['digest']}")
    for failure in record["failures"][:10]:
        print(f"  FAILED {failure}")
    for name, v in record["metrics"].items():
        print(f"  {name:42s} {v['value']:.6g} {v['unit']}")
    if record["trace"]:
        layers = {k[:-len(".self_share")]: v for k, (v, _) in res["layers"].items()
                  if k.endswith(".self_share")}
        top = max(layers, key=layers.get)
        print(f"most self time: {top} ({layers[top]:.1%} of cli.run time).  kernel.Sqrt3 "
              "arithmetic is not wrapped; its time is inside the tripack spans.  One thread: "
              "no layer waits on another, so there are no wait metrics.")
    else:
        rounds = len(res["latencies"])
        g = record["gauge_ms"]
        print(f"timings in reference ms: median of {rounds - 1} repeat(s) per op after a "
              f"warm-up round, percentiles over {len(res['latencies'][0])} ops")
        print(f"reference block ({calib.REF_S * 1000:g} ms on the reference machine): "
              f"median {g['median']:.2f} ms, range {g['min']:.2f}-{g['max']:.2f} ms "
              f"over {g['count']} gaugings; setup wall median "
              f"{statistics.median(record['setup_wall_s']):.4f} s")


if __name__ == "__main__":
    sys.exit(main())
