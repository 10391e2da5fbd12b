"""One benchmark run in a fresh process: a closed loop over cli.run.

Started by run.py with the generated work directory as its cwd and jmokit
on PYTHONPATH.  One client, one thread: each call starts when the previous
one has returned and been checked.  Prints one JSON line on stdout.

Untraced runs repeat the round until the requested seconds have passed.
About ten times a round, after fixed ops, the loop times the reference block
of calib.py, so run.py can scale each call by the machine's speed at that
moment.  Traced runs alternate an untraced and a traced round
(the ratio of their throughputs is the tracing overhead) and report
per-layer figures per traced round.  Every round after the first must give
byte-identical envelopes to the first.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import calib
import checks
from tracer import LAYERS, Tracer

# Peak memory is read when this many rounds have run.  It creeps up by about
# 2 MB a round on oracle_search, so read at the end of a run it would move
# with the number of rounds the machine's speed allowed.
PEAK_ROUNDS = 2


def call_cli(run, argv: list[str]) -> tuple[int, str]:
    """One cli.run call with its stdout captured; usage errors exit via SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


class Loop:
    """Runs rounds of ops, times each call, checks and digests each result."""

    def __init__(self, ops: list[dict], workdir: Path, cli):
        self.ops = ops
        self.workdir = workdir
        self.cli = cli
        self.latencies: list[list[float]] = []  # per round, per op
        self.gauges: list[float] = []  # reference block times, in loop order
        self.marks: list[list[int]] = []  # per round, per op: index of the next gauge
        # Gauges follow fixed ops, not a clock, so that every run of one seed
        # allocates in the same order and peak memory repeats.
        self.gauge_stride = max(1, len(ops) // 10)
        self.attempted = 0
        self.failures: list[str] = []
        self.first: list[str] = []    # per-op digest of (exit code, envelope) in round 0
        self.rounds = 0
        self.peak_rss_mb = 0.0

    def run_round(self, tracer: Tracer | None = None) -> float:
        """One pass over the ops; returns the summed call time."""
        busy = 0.0
        self.latencies.append([])
        self.marks.append([])
        for index, op in enumerate(self.ops):
            if self.rounds == 0 and "prep" in op:
                checks.prepare(op, self.workdir)
            argv = op["argv"] + ["--json"]
            if tracer is not None:
                tracer.op = index
            t0 = time.perf_counter()
            try:
                code, out = call_cli(self.cli.run, argv)
            except Exception as exc:  # an escaped exception is a failed call, not a crash
                code, out = -1, f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
            busy += elapsed
            self.latencies[-1].append(elapsed)
            self.marks[-1].append(len(self.gauges))
            if (index + 1) % self.gauge_stride == 0:
                self.gauge()
            self.attempted += 1
            if tracer is not None and code in (0, 1):
                tracer.counters["cli.envelope_bytes"] += len(out.encode())
            digest = hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
            if self.rounds == 0:
                self.first.append(digest)
                why = checks.check(op, code, out, self.workdir) if code != -1 else out
            else:
                why = None if digest == self.first[index] else "envelope differs from round 0"
            if why is not None:
                self.failures.append(f"op {index} ({' '.join(op['argv'])}): {why}")
        self.rounds += 1
        if self.rounds == PEAK_ROUNDS:
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return busy

    def gauge(self) -> None:
        """Time the reference block; the calls before and after it are scaled by it."""
        self.gauges.append(calib.gauge())

    def digest(self) -> str:
        return hashlib.sha256("".join(self.first).encode()).hexdigest()


def observers() -> dict:
    """Counters recorded where the work happens, from each span's arguments and result."""

    def validate(t, a, result, exc):
        t.counters["tripack.anchors"] += a["instance"].count

    def scan(t, a, result, exc):
        r = a["radius"]
        t.counters["scan.points_scanned"] += 2 * r * r + 2 * r + 1
        t.counters["scan.hits"] += result is not None

    def min_moves(t, a, result, exc):
        if result is not None:
            t.counters["pinopt.solved"] += 1
            t.counters["pinopt.certified"] += result.status == "certified_optimal"

    def search(t, a, result, exc):
        t.counters["gcdperfect.sets_found"] += len(result or ())
        t.counters["gcdperfect.budget_refusals"] += type(exc).__name__ == "BudgetExceeded"

    def leaf(t, a, result, exc):
        t.counters["gcdperfect.leaf_checks"] += t.active("gcdperfect.search_size")

    def trace(t, a, result, exc):
        t.counters["funceq.steps"] += len(result or ())

    def solve(t, a, result, exc):
        if result is not None:
            t.counters["cyclic.solved"] += 1
            t.counters["cyclic.newton_iterations"] += result[1].iterations
            t.counters["cyclic.converged"] += result[1].converged

    def to_svg(t, a, result, exc):
        t.counters["svg.bytes"] += len(result or "")

    return {"tripack.validate_packing": validate, "scan.min_cost_triangle": scan,
            "pinopt.min_moves": min_moves, "gcdperfect.search_size": search,
            "gcdperfect.is_gcd_perfect": leaf, "funceq.forced_trace": trace,
            "cyclic.solve": solve, "svg.to_svg": to_svg}


def layer_metrics(tracer: Tracer, rounds: int) -> dict:
    """Per-layer figures per traced round, named as in BENCHMARK.json."""
    s = tracer.summary()
    calls, busy, self_s, c = s["calls"], s["busy"], s["self"], tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    total = busy["cli"] or 1.0
    m = {}
    for layer in LAYERS:
        m[f"{layer}.busy_s"] = (busy[layer] / rounds, "s")
        m[f"{layer}.self_s"] = (self_s[layer] / rounds, "s")
        m[f"{layer}.self_share"] = (self_s[layer] / total, "ratio")
    for name in ("tripack.tessellate", "tripack.validate_packing", "tripack.parse_packing",
                 "tripack.dump_packing", "kernel.factorize", "scan.min_cost_triangle",
                 "scan.ball_points", "pinopt.oracle_min_moves", "pinopt.min_moves",
                 "gcdperfect.search_size", "gcdperfect.is_gcd_perfect", "funceq.forced_trace",
                 "funceq.replay_trace", "funceq.check_table", "funceq.parse_table",
                 "cyclic.solve", "rectconcur.random_config", "rectconcur.certify_concurrency",
                 "svg.to_svg"):
        m[f"{name}.busy_s"] = (busy[name] / rounds, "s")
    for name in ("cli.run", "tripack.triangles_overlap_exact", "tripack.triangle_inside_delta",
                 "kernel.factorize", "scan.min_cost_triangle", "pinopt.family_search",
                 "gcdperfect.is_gcd_perfect", "cyclic.residuals",
                 "rectconcur.certify_concurrency"):
        m[f"{name}.calls"] = (calls[name] / rounds, "count")
    m["cli.calls"] = m.pop("cli.run.calls")
    m["cli.envelope_bytes"] = (c["cli.envelope_bytes"] / rounds, "bytes")
    m["tripack.anchors"] = (c["tripack.anchors"] / rounds, "count")
    m["tripack.overlap_tests_per_anchor"] = (
        ratio(calls["tripack.triangles_overlap_exact"], c["tripack.anchors"]), "ratio")
    m["scan.points_scanned"] = (c["scan.points_scanned"] / rounds, "count")
    m["scan.hit_ratio"] = (ratio(c["scan.hits"], calls["scan.min_cost_triangle"]), "ratio")
    m["pinopt.certified_ratio"] = (ratio(c["pinopt.certified"], c["pinopt.solved"]), "ratio")
    m["gcdperfect.leaf_yield"] = (ratio(c["gcdperfect.sets_found"], c["gcdperfect.leaf_checks"]),
                                  "ratio")
    m["gcdperfect.budget_refusals"] = (c["gcdperfect.budget_refusals"] / rounds, "count")
    m["funceq.steps"] = (c["funceq.steps"] / rounds, "count")
    m["cyclic.newton_iterations"] = (c["cyclic.newton_iterations"] / rounds, "count")
    m["cyclic.converged_ratio"] = (ratio(c["cyclic.converged"], c["cyclic.solved"]), "ratio")
    m["cyclic.certificates.busy_s"] = (
        (busy["cyclic.identity_checks"] + busy["cyclic.minmax_certificate"]) / rounds, "s")
    m["svg.bytes"] = (c["svg.bytes"] / rounds, "bytes")
    return m


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", required=True, help="JSON file with the round's ops")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))

    import numpy
    from jmokit import cli, scan

    loop = Loop(ops, Path.cwd(), cli)
    result = {"backend": scan.backend_name(), "numpy": numpy.__version__}
    calib.gauge()  # warm-up
    loop.gauge()  # every call has a gauge before it and one after it
    if not args.trace:
        started = time.perf_counter()
        # at least one timed round after the warm-up, and the peak memory read
        while time.perf_counter() - started < args.seconds or loop.rounds < PEAK_ROUNDS:
            loop.run_round()
    else:
        modules = {name: importlib.import_module(f"jmokit.{name}") for name in LAYERS}
        tracer = Tracer()
        plain = traced = 0.0
        traced_rounds = 0
        while plain + traced < args.seconds or traced_rounds == 0:
            plain += loop.run_round()
            tracer.install(modules, observers())
            try:
                traced += loop.run_round(tracer)
            finally:
                tracer.uninstall()
            traced_rounds += 1
        metrics = layer_metrics(tracer, traced_rounds)
        metrics["trace_overhead"] = (plain / traced, "ratio")  # equal op counts per side
        result["layers"] = metrics
    loop.gauge()
    result.update(
        latencies=loop.latencies, marks=loop.marks, gauges=loop.gauges,
        attempted=loop.attempted, failures=loop.failures, rounds=loop.rounds,
        ops_per_round=len(ops), digest=loop.digest(),
        peak_rss_mb=loop.peak_rss_mb,
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
