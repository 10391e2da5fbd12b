#!/usr/bin/env python3
"""Summarise benchmark records and compare two sets of them.

run.py writes one record per run to .bench_out/.  Usage, from the root of
a checkout:

    python3 bench/compare.py .bench_out/                # spread of one set
    python3 bench/compare.py base_dir/ change_dir/      # base against change

For each workload and metric it prints the median, the quartiles and the
spread (quartile distance over median).  With two sets it also prints the
change of the median against the metric's bound in BENCHMARK.json.  Runs
of one workload and seed must have equal envelope digests, in one set and
across the two (envelopes are byte-identical for identical inputs); a
mismatch is reported and makes the exit code 1.  It refuses to compare
records whose scan backend, Python or numpy version or processor count
differ: the compiled scan core alone changes scan time by about 500x.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SAME = ("backend", "python", "numpy", "nproc")


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def table(records: list[dict]) -> dict:
    """(workload, trace) -> metric -> list of values."""
    out: dict = defaultdict(lambda: defaultdict(list))
    for r in records:
        for name, v in r["metrics"].items():
            out[(r["workload"], r["trace"])][name].append(v["value"])
    return out


def stats(values: list[float]) -> tuple[float, float, float, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def machines(records: list[dict]) -> set:
    return {tuple(r["machine"][k] for k in SAME) for r in records}


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(Path(a)) for a in argv]
    seen = set().union(*(machines(s) for s in sets))
    if len(seen) > 1:
        print(f"refusing to compare: records differ in {SAME}: {sorted(seen)}", file=sys.stderr)
        return 1
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: (m.get("bound"), m["better"])
              for m in spec["end_to_end"] + spec["per_layer"]}
    by_seed = defaultdict(set)
    for r in (r for s in sets for r in s):
        by_seed[(r["workload"], r["seed"])].add(r["digest"])
    mismatched = sorted(k for k, d in by_seed.items() if len(d) > 1)
    for workload, seed in mismatched:
        print(f"DIGEST MISMATCH: {workload} seed {seed} gave different envelopes")
    base = table(sets[0])
    change = table(sets[1]) if len(sets) == 2 else None
    for key in sorted(base):
        print(f"== {key[0]} trace {key[1]}: {len(next(iter(base[key].values())))} run(s)")
        for name, values in base[key].items():
            med, q1, q3, sp = stats(values)
            bound, better = bounds.get(name, (None, "lower"))
            line = f"  {name:40s} median {med:12.6g} q1 {q1:12.6g} q3 {q3:12.6g} spread {sp:6.3f}"
            if bound is not None:
                line += f" (bound {bound})"
            if change is not None and change[key].get(name):
                cmed = statistics.median(change[key][name])
                worse = (med - cmed if better == "higher" else cmed - med) / med if med else 0.0
                line += f"  change median {cmed:12.6g} worse by {worse:+.3f}"
                if bound is not None and worse > bound:
                    line += "  REGRESSION"
            print(line)
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
