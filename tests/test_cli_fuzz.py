"""A seeded fuzz of the CLI contract.

Every input ends in exit 0, or in exit 2 with one line
"error: <BentkitError subclass>: ..." on stderr, and never in a
traceback.  Exit 1, a failed claim, is allowed only for verify, where the
report says FAIL.  On exit 0, construct met every claim and its spec
round-trips through spec_to_json.

The inputs are mutations of valid ones: specs drawn by each family's
sampler at m <= 4 (n <= 14 once n is mutated), argument lists for demo,
sweep and field, and truth-table files for verify, walsh, anf and dual.
Each draw is seeded with random.Random, so every run checks the same
cases.
"""

import json
import random
import re

import pytest

from bentkit import boolfun as bf
from bentkit import errors
from bentkit import specs as sp
from bentkit.cli import main
from bentkit.gf2n import BivariateDomain, make_field

# stand-ins for any spec value: JSON of every type, near-miss hex texts,
# bits, shift lists and polynomials
VALUES = [None, True, False, 0, 1, 2, 3, -1, 7, 14, 25, 1.5, "", "0x",
          "0x0", "0x1", "0x3", "-0x1", "0xfffff", "zz", "X1", "X1*X2+1",
          "X9", [], [0], [1], [0, 1], [2], [[0]], [[0, 1], [1, 0]], ["0x1"],
          ["0x1", "0x2"], [["0x1", "0x0"]], {}, {"0x1": 1}]

ERROR_LINE = re.compile(r"error: (\w+): .*\n")


def run(capsys, argv):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def assert_refused_cleanly(argv, code, out, err):
    """Exit 2 with one error line that names a BentkitError subclass."""
    assert code == 2, (argv, code, out, err)
    match = ERROR_LINE.fullmatch(err)
    assert match, (argv, err)
    assert issubclass(getattr(errors, match[1], type), errors.BentkitError), (
        argv, err)


def flip(value, rng: random.Random):
    """value with one bit flipped: in a hex text, an int or one list entry."""
    if isinstance(value, str) and value.startswith("0x"):
        return f"0x{int(value, 16) ^ (1 << rng.randrange(16)):x}"
    if isinstance(value, int) and not isinstance(value, bool):
        return value ^ (1 << rng.randrange(4))
    if isinstance(value, list) and value:
        i = rng.randrange(len(value))
        return value[:i] + [flip(value[i], rng)] + value[i + 1:]
    if isinstance(value, str):  # F: one more monomial, maybe out of range
        return f"{value}+X{rng.randint(1, 6)}"
    return value


def mutate(doc: dict, rng: random.Random) -> dict:
    """doc with one change: a value replaced or flipped, a key deleted, or
    n moved; the family is flipped to another family."""
    doc = dict(doc)
    key = rng.choice(sorted(doc))
    kind = rng.randrange(4)
    if kind == 0:
        doc[key] = rng.choice(VALUES)
    elif kind == 1:
        doc[key] = (rng.choice(list(sp.FAMILIES)) if key == "family"
                    else flip(doc[key], rng))
    elif kind == 2:
        del doc[key]
    else:
        doc["n"] = rng.randint(-1, 14)
    return doc


def check_construct(capsys, path, text: str) -> None:
    path.write_text(text)
    argv = ["construct", str(path)]
    code, out, err = run(capsys, argv)
    if code == 2:
        assert_refused_cleanly(argv + [text], code, out, err)
        return
    assert code == 0 and not err, (text, code, out, err)
    assert out.splitlines()[-1].startswith("PASS "), (text, out)
    spec = sp.spec_from_json(text)
    assert sp.spec_from_json(sp.spec_to_json(spec)) == spec, text


@pytest.mark.parametrize("c", [[], [0, 0]])
def test_construct_refuses_a_quad_c_of_the_wrong_length(capsys, tmp_path, c):
    """Before the gcd test, which c = [] broke and c = [0, 0] fails."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "QuadFamily", "n": 6, "c": c,
                                "eps": 0, "u": ["0x1"], "F": "X1"}))
    assert run(capsys, ["construct", str(path)]) == (
        2, "", f"error: ArityMismatch: need m+1=4 coefficient bits, "
               f"got {len(c)}\n")


@pytest.mark.parametrize("name", sp.FAMILIES)
def test_mutated_specs_keep_the_cli_contract(capsys, tmp_path, name):
    family = sp.FAMILIES[name]
    rng = random.Random(f"construct {name}")
    path = tmp_path / "spec.json"
    for _ in range(50):
        size = rng.randint(family.least, 4 if family.scale == 2 else 3)
        spec = family.sample(family.scale * size, rng)
        doc = json.loads(sp.spec_to_json(spec))
        check_construct(capsys, path, json.dumps(mutate(doc, rng)))


# command lines that the parser refuses, each with BadArgument
USAGE_ERRORS = [
    [], ["frob"], ["demo"], ["demo", "frob"], ["--json"], ["--", "field"],
    ["verify", "f.tt", "--bogus"],
    ["demo", "mesnager", "--m", "3", "--f", "X1"],
    ["sweep", "--family", "QuadIdem", "--m", "2"],
    ["demo", "carlet", "--m", "3", "--seed"],
    ["field", "--n", "x"], ["field", "--n", "3", "--mod=zz"],
    ["field", "--n", "3", "extra"], ["walsh", "f.tt", "--json=yes"],
    ["verify"],
]

ARGUMENTS = [
    *USAGE_ERRORS,
    *(["demo", "carlet", "--m", m] for m in ("-1", "0", "1", "2", "3", "13")),
    ["demo", "carlet", "--m", "3", "--seed", "-5"],
    ["demo", "carlet", "--m", "3", "--seed", "100000", "--json"],
    *(["demo", "mesnager", "--m", m] for m in ("2", "3", "4", "13")),
    *(["demo", "mesnager", "--m", "3", "--f1", F]
      for F in ("X1*X2", "X3", "", "X1**", "0", "1", "X1+X1")),
    ["demo", "mesnager", "--m", "4", "--f2", "X1*X2*X3", "--json"],
    *(["sweep", "--family", fam, "--m", m, "--trials", t]
      for fam, m, t in (("Nope", "3", "1"), ("QuadIdem", "", "1"),
                        ("QuadIdem", "3..2", "1"), ("QuadIdem", "a", "1"),
                        ("QuadIdem", "0", "1"), ("KasamiGeneral", "1", "1"),
                        ("QuadIdem", "2", "0"), ("QuadIdem", "2", "-1"),
                        ("QuadIdem", "2..3", "2"), ("GoldLike", "1,2", "1"),
                        ("MMMonomial", "1..3", "1"), ("Niho", "13", "1"),
                        ("GoldLike", "7", "1"), ("QuadFamily", "1", "2"))),
    *(["field", "--n", n] for n in ("-1", "0", "1", "3", "8", "64")),
    *(["field", "--n", "3", f"--mod={mod}"]
      for mod in ("0", "1", "3", "b", "f", "-b", "1b")),
]


@pytest.mark.parametrize("argv", ARGUMENTS, ids=" ".join)
def test_arguments_keep_the_cli_contract(capsys, argv):
    code, out, err = run(capsys, argv)
    if code != 0:
        assert_refused_cleanly(argv, code, out, err)
    else:
        assert not err and "FAIL" not in out, (argv, out, err)


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_errors_are_one_bad_argument_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, ""), (argv, code, out, err)
    assert ERROR_LINE.fullmatch(err)[1] == "BadArgument", (argv, err)


def mutate_tt(text: str, rng: random.Random) -> str:
    """A .tt text with its header or payload changed in one place."""
    header, payload = text.splitlines()
    tokens = header.split()
    kind = rng.randrange(8)
    if kind == 0:  # a token replaced
        i = rng.randrange(len(tokens))
        tokens[i] = rng.choice(["n=0", "n=-1", "n=x", "n=30", "n=3",
                                "mod=0x0", "mod=zz", "mod=0x3", "mod=0xb",
                                "mod=0x13", "grid=xy", "grid=yx", "junk",
                                "BF", "=", "n="])
    elif kind == 1 and len(tokens) > 1:  # a token deleted
        del tokens[rng.randrange(len(tokens))]
    elif kind == 2:  # a token added
        tokens.insert(rng.randrange(1, len(tokens) + 1),
                      rng.choice(["grid=xy", "n=4", "x=y", "junk"]))
    elif kind == 3:  # payload cut or extended
        payload = (payload[:rng.randrange(len(payload))] if rng.random() < .5
                   else payload + rng.choice(["0", "00", "ff", "g"]))
    elif kind == 4:  # a payload bit flipped
        i = rng.randrange(len(payload))
        digit = int(payload[i], 16) ^ 1 << rng.randrange(4)
        payload = f"{payload[:i]}{digit:x}{payload[i + 1:]}"
    elif kind == 5:  # a payload character replaced
        i = rng.randrange(len(payload))
        payload = payload[:i] + rng.choice("gG -xF") + payload[i + 1:]
    elif kind == 6:  # lines dropped or added
        return rng.choice(["", header + "\n", payload + "\n",
                           f"{header}\n{payload}\n{payload}\n"])
    else:  # the payload of another size
        payload = rng.choice(["", "0", "00", "0f", "ffff", "00" * 64])
    return f"{' '.join(tokens)}\n{payload}\n"


def random_tables(rng: random.Random):
    """Valid tables on fields and grids, bent ones among them."""
    for n in range(1, 9):
        field = make_field(n)
        yield bf.TruthTable(field, rng.getrandbits(field.size))
        if n % 2 == 0:
            grid = BivariateDomain(make_field(n // 2))
            yield bf.TruthTable(grid, rng.getrandbits(grid.size))
    for name in ("QuadIdem", "KasamiGeneral", "MMLinear"):
        yield sp.build(sp.FAMILIES[name].sample(6, rng)).f


@pytest.mark.parametrize("command", ["verify", "walsh", "anf", "dual"])
def test_truth_table_files_keep_the_cli_contract(capsys, tmp_path, command):
    rng = random.Random(f"tt {command}")
    path = tmp_path / "f.tt"
    texts = [bf.format_tt(t) for t in random_tables(rng)]
    for text in texts + [mutate_tt(rng.choice(texts), rng)
                         for _ in range(80)]:
        path.write_text(text)
        argv = [command, str(path)]
        code, out, err = run(capsys, argv)
        if code == 1 and command == "verify":  # a claim failed: reported
            assert not err and out.startswith("FAIL "), (text, out, err)
        elif code != 0:
            assert_refused_cleanly(argv + [text], code, out, err)
        else:
            assert not err, (text, err)
