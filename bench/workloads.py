"""Seeded op generation for the three benchmark workloads.

A workload is a *round*: a fixed list of CLI calls generated from the seed
alone (``make_round`` is a pure function of its arguments).  The runner
repeats the round until the measured time is used up, so every run of one
seed does the same work per round and per-layer counts repeat exactly.

Each op is a JSON-serialisable dict:

    argv    arguments for ``jmokit.cli.run`` (``--json`` is appended later)
    kind    which checker in ``checks.py`` judges the result
    expect  what the checker needs to know about the input
    prep    optional file to write (untimed) before the op first runs

Parameters that drive an op's cost are fixed where cost jumps between
neighbouring values (pack sides, scan and search points), and elsewhere drawn
with ``spread``: one value near the centre of each stratum of the range,
jittered by the seed.  Everything
else (the exact values, which anchor is corrupted and how, which table entry
is mutated, primes, starts, seeds and, except in oracle_search, the order of
the ops) is drawn freely.
That keeps each op's cost nearly the same for every seed, so the spread
between seeds measures the program and not the luck of the draw.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from checks import witness_elements

WORKLOADS = ("pack_exact", "oracle_search", "short_calls")

# Points of the (D, radius) sweep the scan timing table used to run, (4, 6),
# (25, 12) and (60, 17), plus points that reach D = 120 and radius 22.  Scan
# time jumps by tens of percent between neighbouring D, and search time by up
# to 2x between neighbouring max, so these ops keep fixed parameters: a
# seed-chosen D or max would move the latency percentiles with the seed.
# Every op stays under about 0.2 s on a 2-vCPU Xeon, so that it repeats
# over a dozen times in a run and its median repeat is steady: the sweep's
# (101, 22) and (143, 26) take 0.9 and 2 s a call.
SCAN_CASES = ((4, 6), (25, 12), (60, 17), (50, 14), (101, 12), (120, 14), (4, 22))
SEARCH_CASES = ((4, 150), (4, 200), (8, 250))

# Sides of the three pack_exact builds: the centres of three equal strata of
# [8, 16], rounded to half-integers.  They are fixed, not drawn from the seed:
# build and validation time grow with the square of the side, and rounding a
# seeded side to the nearest half moved the slowest op, and so latency_p90_ms,
# by 15 % between seeds.  Sides up to 24 made a round take 3 s, too long for
# each op to repeat often enough in a run to time it steadily.
PACK_SIDES = (Fraction(19, 2), Fraction(12), Fraction(29, 2))
PACK_SIDES_TINY = (Fraction(8), Fraction(17, 2), Fraction(19, 2))

SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
FRESH_PRIMES = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)

# Share of its stratum a cost-driving parameter may move with the seed.  Kept
# small so that every op, not only every round, costs nearly the same for
# every seed: latency percentiles over a few dozen mixed ops stay put.
JITTER = 0.1


def spread(rng: random.Random, k: int, lo: float, hi: float) -> list[float]:
    """k values in [lo, hi): one near the centre of each of k equal strata.

    The seed moves each value by up to JITTER/2 of its stratum, in opposite
    directions for strata 2i and 2i+1, so when an op's cost grows linearly
    with its parameter each pair costs the same for every seed, and each op
    nearly so.
    """
    u = JITTER * (rng.random() - 0.5)
    return [lo + (hi - lo) * (i + 0.5 + (u if i % 2 == 0 else -u)) / k for i in range(k)]


def make_round(workload: str, seed: int, scale: float = 1.0) -> list[dict]:
    """The op list of one round.  scale < 1 shrinks it for the self-test."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    return {"pack_exact": _pack_exact,
            "oracle_search": _oracle_search,
            "short_calls": _short_calls}[workload](rng, scale)


def _count(n: int, scale: float) -> int:
    return max(1, round(n * scale))


# -- pack_exact --------------------------------------------------------------


def _pack_exact(rng: random.Random, scale: float) -> list[dict]:
    """Three builds across the side range, then one validate of each built
    file: intact, with an overlap planted, or with an anchor moved outside.

    The round is kept short (about 1 s on a 2-vCPU Xeon) so that a run
    repeats every op over a dozen times and its median repeat is steady.
    """
    builds, checks = [], []
    ats = spread(rng, 3, 0, 1)
    for i, side in enumerate(PACK_SIDES if scale >= 1 else PACK_SIDES_TINY):
        margin = Fraction(i, 4)  # fixed per stratum: the margin moves the anchor count
        name = f"b{i}.pack"
        builds.append({
            "argv": ["pack", "build", "--side", str(side), "--margin", str(margin),
                     "--out", name],
            "kind": "pack_build",
            "expect": {"side": str(side), "margin": str(margin), "file": name},
        })
        # An overlap lets validation stop early, at a point set by where the
        # planted anchor sits; an outside anchor still leaves every pair to test.
        mode = ("intact", "overlap", "outside")[i]
        if mode == "intact":
            checks.append({"argv": ["pack", "validate", "--input", name],
                           "kind": "pack_validate", "expect": {"file": name}})
            continue
        bad = f"b{i}-{mode}.pack"
        checks.append({
            "argv": ["pack", "validate", "--input", bad],
            "kind": "pack_validate",
            "expect": {"file": bad},
            "prep": {"kind": "corrupt", "src": name, "dst": bad, "mode": mode, "at": ats[i],
                     "t": str(rng.choice([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))},
        })
    src = builds[0]["expect"]["file"]
    checks.append({"argv": ["pack", "render", "--input", src, "--svg", "render.svg"],
                   "kind": "pack_render", "expect": {"file": src, "svg": "render.svg"}})
    rng.shuffle(builds)
    rng.shuffle(checks)
    return builds + checks  # every build runs before the files it writes are read


# -- oracle_search -------------------------------------------------------------


def _oracle_search(rng: random.Random, scale: float) -> list[dict]:
    full = scale >= 1
    ops = [{"argv": ["pins", "oracle", "--doubled-area", str(d), "--radius", str(r)],
            "kind": "pins_oracle", "expect": {"doubled_area": d, "radius": r}}
           for d, r in (SCAN_CASES if full else SCAN_CASES[:2])]
    max_hi = 400 if full else 120
    searches = list(SEARCH_CASES if full else ())
    searches.append((2, int(spread(rng, 1, 100, max_hi + 1)[0])))  # cost smooth in max
    searches += [(size, rng.randint(100, max_hi)) for size in (3, 5)]  # no pool: cheap
    for size, m in searches:
        ops.append({"argv": ["gcdset", "search", "--size", str(size), "--max", str(m)],
                    "kind": "gcdset_search", "expect": {"size": size, "max": m}})
    lim_lo, lim_hi = (10**5, 2 * 10**5) if full else (10**3, 10**4)
    for limit in (int(x) for x in spread(rng, 1, lim_lo, lim_hi + 1)):
        ops.append({"argv": ["funceq", "trace", "--limit", str(limit)],
                    "kind": "funceq_trace", "expect": {"limit": limit}})
    n_lo, n_hi = (10**4, 10**5) if full else (10**3, 10**4)
    for i, raw in enumerate(spread(rng, 4, n_lo, n_hi + 1)):
        ops.append(_table_op(rng, f"t{i}.tab", int(raw), mutate=i % 2 == 1))
    # Not shuffled: peak memory is set by the widest scan plus whatever the
    # ops before it left on the heap, so a seeded order moved peak_rss_mb by
    # 10 % between seeds.
    return ops


def _table_op(rng: random.Random, name: str, limit: int, mutate: bool) -> dict:
    """funceq check of a constant-1 table, or of one with f(a^2 + b^2) = v >= 2
    (the sum rule at (a, b) then fails, so the check must exit 1)."""
    mutation = None
    if mutate:
        a = rng.randint(1, math.isqrt(limit // 2))
        b = rng.randint(a, math.isqrt(limit - a * a))
        mutation = [a * a + b * b, rng.randint(2, 9)]
    return {"argv": ["funceq", "check", "--input", name],
            "kind": "funceq_check",
            "expect": {"limit": limit, "mutation": mutation},
            "prep": {"kind": "table", "dst": name, "limit": limit, "mutation": mutation}}


# -- short_calls -----------------------------------------------------------------


MALFORMED = (
    (["pins", "solve", "--doubled-area", "many"], None),
    (["pins", "solve", "--doubled-area", "0"], None),
    (["gcdset", "check", "--elements", "6,x,15"], None),
    (["gcdset", "check", "--elements", "6,6"], None),
    (["gcdset", "search", "--size", "4", "--max", "400", "--budget", "5"], None),
    (["cyclic", "solve", "--n", "3"], None),
    (["cyclic", "verify", "--input", "short.ent"], "1.0\n2.0\n1.0\n"),
    (["funceq", "check", "--input", "bad.tab"], "1 1\n2 two\n"),
    (["pack", "validate", "--input", "bad.pack"], "side eight\n"),
    (["rect", "batch", "--rel-tol", "tight"], None),
)


def _short_calls(rng: random.Random, scale: float) -> list[dict]:
    groups = []  # shuffled as units: a cyclic verify stays right after its solve
    for raw in spread(rng, 2 * _count(30, scale), 0, 6):
        d = max(1, min(10**6, int(10 ** raw)))
        groups.append([{"argv": ["pins", "solve", "--doubled-area", str(d)],
                        "kind": "pins_solve", "expect": {"doubled_area": d}}])
    for i in range(_count(25, scale)):
        k = rng.randint(1, 3)
        primes = rng.sample(SMALL_PRIMES, 2 * k)
        p, q = primes[:k], primes[k:]
        groups.append([{"argv": ["gcdset", "construct", "--k", str(k), "--p",
                                 ",".join(map(str, p)), "--q", ",".join(map(str, q))],
                        "kind": "gcdset_construct", "expect": {"k": k, "p": p, "q": q}}])
        elements = witness_elements(zip(p, q))
        if i % 2:
            elements[rng.randrange(len(elements))] *= rng.choice(FRESH_PRIMES)
        groups.append([{"argv": ["gcdset", "check", "--elements", ",".join(map(str, elements))],
                        "kind": "gcdset_check",
                        "expect": {"elements": sorted(elements), "perfect": i % 2 == 0, "k": k}}])
    for i, raw in enumerate(spread(rng, 2 * _count(15, scale), 4, 65)):
        n, name = int(raw), f"c{i}.ent"
        groups.append([
            {"argv": ["cyclic", "solve", "--n", str(n), "--seed", str(rng.randrange(10**6)),
                      "--out", name],
             "kind": "cyclic_solve", "expect": {"n": n, "tol": 1e-10, "file": name}},
            {"argv": ["cyclic", "verify", "--input", name],
             "kind": "cyclic_verify", "expect": {"n": n, "tol": 1e-8, "file": name}}])
    for i, raw in enumerate(spread(rng, 2 * _count(15, scale), 10, 301)):
        count, perturbed = int(raw), i % 5 == 0
        argv = ["rect", "batch", "--count", str(count), "--seed", str(rng.randrange(10**6))]
        if perturbed:
            argv += ["--perturb", rng.choice(["0.9", "1.1", "1.25"])]
        groups.append([{"argv": argv, "kind": "rect_batch",
                        "expect": {"count": count, "perturbed": perturbed}}])
    for _ in range(_count(10, scale)):
        groups.append([{"argv": ["rect", "render", "--seed", str(rng.randrange(10**6)),
                                 "--svg", "rect.svg"],
                        "kind": "rect_render", "expect": {"svg": "rect.svg"}}])
    for i, raw in enumerate(spread(rng, 2 * _count(15, scale), 100, 2001)):
        groups.append([_table_op(rng, f"s{i}.tab", int(raw), mutate=i % 2 == 1)])
    calls = sum(len(g) for g in groups)
    for i in range(max(1, calls // 19)):  # about 5 % of the round
        argv, text = MALFORMED[i % len(MALFORMED)]
        op = {"argv": list(argv), "kind": "usage_error", "expect": {}}
        if text is not None:
            op["prep"] = {"kind": "text", "dst": argv[-1], "text": text}
        groups.append([op])
    rng.shuffle(groups)
    return [op for group in groups for op in group]
