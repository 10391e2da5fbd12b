#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny size (under a minute).

Run from the root of a checkout:

    python3 bench/selftest.py

Checks that op generation is a pure function of the seed, that every
checker accepts the program's own results, that the envelope digest is
stable across two runs of one seed, that a wrong envelope (planted here,
not in the program) and an escaped exception are each counted as failed
calls, that every call is scaled by reference blocks timed on either side
of it, and that the tracer sees the layers each workload uses and removes
its wrappers afterwards.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path.cwd() / "src"))

import calib  # noqa: E402
import workloads  # noqa: E402
from run import scaled_times  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from worker import Loop, layer_metrics, observers  # noqa: E402

SCALE = 0.05
TRACED_LAYERS = {
    "pack_exact": {"cli", "tripack", "svg"},
    "oracle_search": {"cli", "scan", "pinopt", "gcdperfect", "funceq", "kernel"},
    "short_calls": {"cli", "pinopt", "gcdperfect", "cyclic", "rectconcur", "funceq", "svg",
                    "kernel"},
}


@contextlib.contextmanager
def scratch_dir():
    old = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield Path(tmp)
        finally:
            os.chdir(old)


def run_tiny(workload: str, seed: int, cli, rounds: int = 2, tracer: Tracer | None = None,
             modules: dict | None = None) -> Loop:
    """Rounds of a shrunken round; with a tracer, the last round is traced."""
    with scratch_dir() as tmp:
        loop = Loop(workloads.make_round(workload, seed, SCALE), tmp, cli)
        loop.gauge()
        for _ in range(rounds - 1):
            loop.run_round()
        if tracer is None:
            loop.run_round()
        else:
            tracer.install(modules, observers())
            try:
                loop.run_round(tracer)
            finally:
                tracer.uninstall()
        loop.gauge()
    return loop


class PlantedCli:
    """Stands in for jmokit.cli: alters the cost in the first 'pins solve' envelope."""

    def __init__(self, cli):
        self.cli, self.done = cli, False

    def run(self, argv):
        if self.done or argv[:2] != ["pins", "solve"]:
            return self.cli.run(argv)
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.run(argv)  # a malformed call exits here, unplanted
        env = json.loads(buf.getvalue())
        env["cost"] += 1
        self.done = True
        print(json.dumps(env))
        return code


class RaisingCli:
    def run(self, argv):
        raise RuntimeError("escaped from cli.run")


def main() -> int:
    from jmokit import cli

    problems = []

    def expect(cond: bool, what: str) -> None:
        print(("ok    " if cond else "FAIL  ") + what)
        if not cond:
            problems.append(what)

    for w in workloads.WORKLOADS:
        ops = json.dumps(workloads.make_round(w, 7))
        expect(ops == json.dumps(workloads.make_round(w, 7)), f"{w}: same seed, same ops")
        expect(ops != json.dumps(workloads.make_round(w, 8)), f"{w}: other seed, other ops")
        first, second = run_tiny(w, 3, cli), run_tiny(w, 3, cli)
        expect(not first.failures and not second.failures,
               f"{w}: {first.attempted} calls pass their checks {first.failures[:3]}")
        expect(first.digest() == second.digest(), f"{w}: digest stable across runs")
        marks = [m for r in first.marks for m in r]
        expect(len(marks) == first.attempted and 1 <= min(marks) and max(marks) < len(first.gauges),
               f"{w}: every call has a reference block before and after it")

    g = 2 * calib.REF_S  # blocks twice as slow as the reference: calls count half
    res = {"gauges": [g, g, g], "latencies": [[9.0, 9.0], [0.4, 0.2], [0.6, 0.3]],
           "marks": [[1, 1], [1, 2], [2, 2]]}
    expect(all(math.isclose(a, b) for a, b in zip(scaled_times(res), [0.25, 0.125])),
           "reference time: wall time scaled by the blocks, round 0 left out")

    loop = run_tiny("short_calls", 3, PlantedCli(cli), rounds=1)
    expect(len(loop.failures) == 1, f"planted wrong envelope counted: {loop.failures}")
    loop = run_tiny("oracle_search", 3, RaisingCli(), rounds=1)
    expect(len(loop.failures) == loop.attempted, "escaped exceptions counted as failed calls")

    modules = {name: importlib.import_module(f"jmokit.{name}") for name in LAYERS}
    owners = list(modules.values()) + [modules["svg"].Scene]
    original = [dict(vars(owner)) for owner in owners]
    for w, layers in TRACED_LAYERS.items():
        tracer = Tracer()
        loop = run_tiny(w, 5, cli, tracer=tracer, modules=modules)
        m = layer_metrics(tracer, 1)
        busy = {layer for layer in LAYERS if m[f"{layer}.busy_s"][0] > 0}
        expect(layers <= busy and not loop.failures, f"{w}: traced layers {sorted(busy)}")
        expect(m["cli.calls"][0] == len(loop.ops), f"{w}: one cli span per call")
    expect([dict(vars(owner)) for owner in owners] == original, "tracer removed its wrappers")

    print("selftest:", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
