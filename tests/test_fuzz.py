"""Seeded fuzz of the three file parsers through the command line.

Every input must give exit 0, 1 or 2 with no other exception, a file that
its parser refuses must exit 2, and whatever a parser accepts must survive
a dump and a second parse unchanged.
"""

import random

import pytest

from jmokit import cli, cyclic, funceq, tripack

CASES = 300

# fields that parse, fields that do not, and fields at the edges of the
# float range and of the decimal-exponent bound
NUMBERS = ["0", "1", "2", "3", "7", "-1", "+4", "10", "1/2", "19/2", "-3/4", "7/3", "1/0",
           "0/0", "0.5", ".25", "5.", "2.75", "1e2", "2E-1", "3e+0", "1_000", "1__0", "1e200",
           "1e-200", "1e400", "1e-400", "1.7e308", "4e-320", "1e4299", "1e-4299", "1e4300", "1e-4300", "1e4301",
           "1e-100000000", "1e100000000", "1e", "e5", "nan", "inf", "-inf", "0x10", "x",
           "side", "٣", "9" * 30]
SEPARATORS = [" ", "  ", "\t", " \t "]
ENDINGS = ["\n", "\r\n", "\r"]


def pick(rng, valid, p_valid=0.8):
    """A valid field with probability p_valid, else any field from NUMBERS."""
    return valid() if rng.random() < p_valid else rng.choice(NUMBERS)


def join_lines(rng, lines):
    out = []
    for line in lines:
        r = rng.random()
        if r < 0.05:
            out.append("")
        elif r < 0.1:
            out.append("# comment")
        elif r < 0.15:
            line += " # note"
        out.append(line)
    ending = rng.choice(ENDINGS)
    return ending.join(out) + (ending if rng.random() < 0.8 else "")


def random_packing(rng):
    quarters, side = rng.choice([(16, "4"), (24, "6"), (32, "8"), (38, "19/2"), (0, "0")])
    lines = [pick(rng, lambda: side)]
    for _ in range(rng.randrange(0, 12)):
        fields = [pick(rng, lambda: f"{rng.randrange(0, quarters + 1)}/4"),
                  pick(rng, lambda: f"{rng.randrange(-2, 5)}/4")]
        if rng.random() < 0.5:
            fields.append(pick(rng, lambda: f"{rng.randrange(0, quarters + 1)}/8"))
        if rng.random() < 0.05:
            fields = fields[:rng.randrange(0, 5)] + [rng.choice(NUMBERS)] * rng.randrange(0, 2)
        lines.append(rng.choice(SEPARATORS).join(fields))
    return join_lines(rng, lines)


def random_table(rng):
    limit = rng.randrange(1, 15)
    ns = list(range(1, limit + 1))
    if rng.random() < 0.3:
        rng.shuffle(ns)
    if rng.random() < 0.2:
        ns[rng.randrange(limit)] = rng.choice([0, -1, limit + 1, 10**18, ns[0]])
    lines = []
    for n in ns:
        fields = [pick(rng, lambda: str(n), 0.95), pick(rng, lambda: str(rng.randrange(1, 4)), 0.9)]
        if rng.random() < 0.03:
            fields = fields[:rng.randrange(0, 3)] + [rng.choice(NUMBERS)] * rng.randrange(0, 2)
        lines.append(rng.choice(SEPARATORS).join(fields))
    return join_lines(rng, lines)


def random_entries(rng):
    count = rng.choice([6, 8, 8, 10, 12, 13])
    lines = [pick(rng, lambda: repr(rng.choice([1.0, 2.0]) * (1 + rng.uniform(-1e-3, 1e-3))), 0.95)
             for _ in range(count)]
    return join_lines(rng, lines)


def parses(parse, text):
    try:
        return parse(text)
    except ValueError:
        return None


def run_cli(capsys, argv):
    code = cli.run(argv)
    capsys.readouterr()
    assert code in (0, 1, 2), argv
    return code


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_packing_files(capsys, tmp_path, seed):
    rng = random.Random(seed)
    path, svg = tmp_path / "in.pack", str(tmp_path / "out.svg")
    for _ in range(CASES):
        text = random_packing(rng)
        path.write_text(text, newline="")
        codes = [run_cli(capsys, ["pack", "validate", "--input", str(path), "--json"]),
                 run_cli(capsys, ["pack", "render", "--input", str(path), "--svg", svg])]
        instance = parses(tripack.parse_packing, text)
        if instance is None:
            assert codes == [2, 2], text
            continue
        dumped = tripack.dump_packing(instance)
        again = tripack.parse_packing(dumped)
        assert (again.side_len, again.forms) == (instance.side_len, instance.forms), text
        assert tripack.dump_packing(again) == dumped


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_table_files(capsys, tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "in.table"
    for _ in range(CASES):
        text = random_table(rng)
        path.write_text(text, newline="")
        code = run_cli(capsys, ["funceq", "check", "--input", str(path), "--json"])
        table = parses(funceq.parse_table, text)
        if table is None:
            assert code == 2, text
            continue
        values = [table(n) for n in range(1, table.limit + 1)]
        again = funceq.parse_table("".join(f"{n} {v}\n" for n, v in enumerate(values, start=1)))
        assert [again(n) for n in range(1, again.limit + 1)] == values, text


@pytest.mark.parametrize("seed", [1, 2])
def test_fuzz_entries_files(capsys, tmp_path, seed):
    rng = random.Random(seed)
    path = tmp_path / "in.ent"
    for _ in range(CASES):
        text = random_entries(rng)
        path.write_text(text, newline="")
        code = run_cli(capsys, ["cyclic", "verify", "--input", str(path), "--json"])
        vector = parses(cyclic.parse_entries, text)
        if vector is None:
            assert code == 2, text
            continue
        run_cli(capsys, ["cyclic", "solve", "--n", str(vector.n), "--init", str(path), "--json"])
        assert cyclic.parse_entries(cyclic.dump_entries(vector)) == vector, text
