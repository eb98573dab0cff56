import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import cli
from bentkit import constructions as cx
from bentkit import multipoly as mp
from bentkit import specs as sp
from bentkit import verify as vf
from bentkit.cli import main
from bentkit.errors import BadRange, UnsupportedDegree
from bentkit.gf2n import make_field, rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subfield_basis(field, count):
    basis = []
    for y in field.subfield():
        if y and rank(basis + [y]) == len(basis) + 1:
            basis.append(y)
        if len(basis) == count:
            return basis
    raise AssertionError


def write_spec(tmp_path, name="inst.json"):
    field = make_field(6)
    us = subfield_basis(field, 3)
    spec = sp.ConstructionSpec(family="KasamiSubfield", n=6, mod=0x43,
                               lam=1, u=tuple(us), F="X1*X2*X3")
    path = tmp_path / name
    path.write_text(sp.spec_to_json(spec))
    return path


def test_field_command(capsys):
    code, out, _ = run(capsys, "field", "--n", "3")
    assert code == 0 and out.strip() == "n=3,mod=0xb"
    code, _, err = run(capsys, "field", "--n", "3", "--mod", "f")
    assert code == 2 and "ReducibleModulus" in err


def test_construct_writes_tables_and_report(capsys, tmp_path):
    spec_path = write_spec(tmp_path)
    code, out, _ = run(capsys, "construct", str(spec_path))
    assert code == 0
    assert (tmp_path / "inst.tt").exists()
    assert (tmp_path / "inst.dual.tt").exists()
    assert "PASS" in out
    table = bf.load_tt(tmp_path / "inst.tt")
    dual = bf.load_tt(tmp_path / "inst.dual.tt")
    assert bf.dual(bf.walsh(table)).bits == dual.bits


def test_construct_rejects_dependent_shifts(capsys, tmp_path):
    spec = sp.ConstructionSpec(family="KasamiSubfield", n=6, mod=0x43,
                               lam=1, u=(1, 1), F="X1*X2")
    path = tmp_path / "dep.json"
    path.write_text(sp.spec_to_json(spec))
    code, _, err = run(capsys, "construct", str(path))
    assert code == 2 and "NotIndependent" in err


def test_construct_rejects_bad_niho_k(capsys, tmp_path):
    spec = sp.ConstructionSpec(family="Niho", n=8, mod=0x11b, k=2,
                               u=(1,), F="X1")
    path = tmp_path / "gcd.json"
    path.write_text(sp.spec_to_json(spec))
    code, _, err = run(capsys, "construct", str(path))
    assert code == 2 and "GcdViolated" in err


def test_construct_refuses_niho_k_above_m(capsys, tmp_path):
    # k = 9 > m = 4 costs 2^8 sliced powers; k = 31 would run for days
    spec = sp.ConstructionSpec(family="Niho", n=8, k=9, u=(1,), F="X1")
    path = tmp_path / "big_k.json"
    path.write_text(sp.spec_to_json(spec))
    code, out, err = run(capsys, "construct", str(path))
    assert code == 2 and out == "" and "1 <= k <= m = 4" in err
    assert not (tmp_path / "big_k.tt").exists()


def test_verify_pass_and_fail(capsys, tmp_path):
    spec_path = write_spec(tmp_path)
    run(capsys, "construct", str(spec_path))
    tt = str(tmp_path / "inst.tt")
    code, out, _ = run(capsys, "verify", tt, "--expect", "bent,degree=3",
                       "--dual", str(tmp_path / "inst.dual.tt"))
    assert code == 0 and out.startswith("PASS")
    # constant function fails the default bent expectation
    zero = bf.TruthTable(make_field(4), 0)
    zpath = tmp_path / "zero.tt"
    bf.save_tt(zero, zpath)
    code, out, _ = run(capsys, "verify", str(zpath))
    assert code == 1 and out.startswith("FAIL")


def test_verify_emit_tt(capsys, tmp_path):
    spec_path = write_spec(tmp_path)
    run(capsys, "construct", str(spec_path))
    out_path = tmp_path / "emitted.tt"
    code, _, _ = run(capsys, "verify", str(tmp_path / "inst.tt"),
                     "--expect", "bent", "--emit-tt", str(out_path))
    assert code == 0
    assert out_path.read_text() == (tmp_path / "inst.dual.tt").read_text()


def test_verify_json_report(capsys, tmp_path):
    spec_path = write_spec(tmp_path)
    run(capsys, "construct", str(spec_path))
    code, out, _ = run(capsys, "verify", str(tmp_path / "inst.tt"),
                       "--expect", "bent", "--json")
    doc = json.loads(out)
    assert code == 0 and doc["is_bent"] and doc["all_claims_met"]


def test_walsh_and_anf_commands(capsys, tmp_path):
    field = make_field(4)
    g = pw.kasami_base(field, 1)
    path = tmp_path / "g.tt"
    bf.save_tt(g, path)
    code, out, _ = run(capsys, "walsh", str(path))
    values = [int(v) for v in out.split()]
    assert code == 0 and sorted(set(map(abs, values))) == [4]
    code, out, _ = run(capsys, "walsh", str(path), "--json")
    assert json.loads(out)["n"] == 4
    code, out, _ = run(capsys, "anf", str(path))
    assert code == 0 and out.startswith("degree 2")
    code, doc, _ = run(capsys, "anf", str(path), "--json")
    assert code == 0 and json.loads(doc) == {
        "degree": 2, "anf": out.splitlines()[1]}


def test_dual_command_roundtrip(capsys, tmp_path):
    field = make_field(4)
    g = pw.kasami_base(field, 1)
    path = tmp_path / "g.tt"
    bf.save_tt(g, path)
    out_path = tmp_path / "gdual.tt"
    code, _, _ = run(capsys, "dual", str(path), "-o", str(out_path))
    assert code == 0
    dual = bf.load_tt(out_path)
    assert dual.bits == bf.add_const(g, 1).bits
    # non-bent input is an input error
    zpath = tmp_path / "zero.tt"
    bf.save_tt(bf.TruthTable(field, 0), zpath)
    code, _, err = run(capsys, "dual", str(zpath))
    assert code == 2 and "NotBent" in err


def test_demo_carlet_command(capsys):
    code, out, _ = run(capsys, "demo", "carlet", "--m", "4")
    lines = [ln for ln in out.splitlines() if ln]
    assert code == 0
    assert len(lines) == 3
    assert all(ln.startswith("PASS") for ln in lines)
    assert [f"d={d}" in ln for d, ln in zip((2, 3, 4), lines)]


def test_demo_mesnager_command(capsys):
    code, out, _ = run(capsys, "demo", "mesnager", "--m", "3",
                       "--f1", "X1*X2", "--f2", "X2", "--f3", "X1")
    assert code == 0
    assert out.count("PASS") == 5  # f1, f2, f3, sum, table equality


@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("fs", [[], ["--f1", "X1"],
                                ["--f1", "X1*X2", "--f2", "X2", "--f3", "X1"]],
                         ids=["default", "f1", "all"])
def test_demo_mesnager_checks_m_before_reading_f(capsys, m, fs):
    want = "error: NoSolution: m >= 3 required so degree >= 2 choices exist\n"
    assert run(capsys, "demo", "mesnager", "--m", str(m), *fs) == (2, "", want)


@pytest.mark.parametrize("flag", ["--f1", "--f2", "--f3"])
def test_demo_mesnager_refuses_an_empty_f(capsys, flag):
    code, out, err = run(capsys, "demo", "mesnager", "--m", "3", flag, "")
    assert (code, out) == (2, "")
    assert err == "error: ArityMismatch: bad variable ''\n"


def test_sweep_command(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "KasamiSubfield",
                       "--m", "2..3", "--trials", "2", "--seed", "7")
    assert code == 0
    assert "4/4 claims met" in out
    code, out, _ = run(capsys, "sweep", "--family", "GoldLike",
                       "--m", "1", "--trials", "2", "--seed", "7",
                       "--json")
    doc = json.loads(out)
    assert code == 0 and doc["trials"] == 2 and doc["dual_matched"] == 2


def test_construct_verify_roundtrip_same_verdicts(capsys, tmp_path):
    spec_path = write_spec(tmp_path)
    code1, out1, _ = run(capsys, "construct", str(spec_path), "--json")
    doc1 = json.loads(out1)
    code2, out2, _ = run(capsys, "verify", str(tmp_path / "inst.tt"),
                         "--expect", "bent,degree=3",
                         "--dual", str(tmp_path / "inst.dual.tt"), "--json")
    doc2 = json.loads(out2)
    assert code1 == code2 == 0
    for key in ("is_bent", "degree", "idempotent", "duality", "dual_match",
                "all_claims_met"):
        assert doc1[key] == doc2[key]


def test_negative_modulus_is_refused(capsys, tmp_path):
    code, out, err = run(capsys, "field", "--n", "4", "--mod", "-13")
    assert code == 2 and out == "" and "ReducibleModulus" in err
    path = tmp_path / "neg.tt"
    path.write_text("BF n=4 mod=-0x13\n0000\n")
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and "ReducibleModulus" in err


def test_usage_error_exits_two(capsys):
    code, out, err = run(capsys, "sweep", "--family", "NoSuchFamily",
                         "--m", "2", "--trials", "1")
    assert code == 2 and out == ""
    assert "BadSpec" in err and "NoSuchFamily" in err
    assert all(name in err for name in sp.FAMILIES)


@pytest.mark.parametrize("text, reason", [
    ("BF n=4 mod=0x13 xy\n0000\n", "not key=value"),
    ("BF mod=0x13\n0000\n", "lacks n="),
    ("BF n=4\n0000\n", "lacks mod="),
    ("BF n=4 mod=0x13\nzz00\n", "not hex"),
    ("BF n=2 mod=0x7\nff\n", "payload sets bits at or above index 4"),
    ("BF n=4 mod=0x13 grid=zz\n0000\n", "unknown grid='zz'"),
    ("BF n=8 n=16 mod=0x1002b\n00\n", "header repeats n="),
    ("BF n=4 mod=0x13 mod=0x19\n0000\n", "header repeats mod="),
    ("BF n=4 grid=xy mod=0x7 grid=xy\n0000\n", "header repeats grid="),
])
def test_verify_rejects_malformed_table_files(capsys, tmp_path, text,
                                              reason):
    path = tmp_path / "bad.tt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "FieldMismatch" in err and reason in err


def construct(capsys, tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "construct", str(path))


IDENTITY3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("doc", [
    {"family": "KasamiGeneral", "n": 8, "lambda": "0x1", "u": ["0x1"],
     "F": "X1"},
    {"family": "MMLinear", "n": 6, "pi": IDENTITY3, "u": [["0x1", "0x0"]],
     "F": "X1"},
], ids=["field-n8", "grid-n6"])
def test_verify_refuses_a_dual_from_another_domain(capsys, tmp_path, doc):
    construct(capsys, tmp_path, "k6", {"family": "KasamiGeneral", "n": 6,
                                       "lambda": "0x1", "u": ["0x1"],
                                       "F": "X1"})
    assert construct(capsys, tmp_path, "other", doc)[0] == 0
    code, out, err = run(capsys, "verify", str(tmp_path / "k6.tt"),
                         "--dual", str(tmp_path / "other.dual.tt"))
    assert code == 2 and out == ""
    assert "FieldMismatch" in err and "different domain" in err


@pytest.mark.parametrize("doc", [
    {"family": "KasamiGeneral", "n": 6, "lambda": "0x1",
     "u": ["0x1", "0x20"], "F": "X1*X2"},
    {"family": "MMLinear", "n": 6, "pi": IDENTITY3,
     "u": [["0x1", "0x1"], ["0x0", "0x1"]], "F": "X1*X2"},
], ids=["KasamiGeneral", "MMLinear"])
def test_construct_refuses_a_shift_pair_violation(capsys, tmp_path, doc):
    code, out, err = construct(capsys, tmp_path, "pair", doc)
    assert code == 2 and out == ""
    assert "PreconditionViolated" in err and "pair (1,2)" in err
    assert not list(tmp_path.glob("*.tt"))


@pytest.mark.parametrize("claim, reason", [
    ("degree=x", "degree must be an integer"),
    ("duality=foo", "duality must be self, anti or neither"),
    ("bent,odd", "unknown expectation 'odd'"),
])
def test_verify_rejects_malformed_expectations(capsys, tmp_path, claim,
                                               reason):
    path = tmp_path / "g.tt"
    bf.save_tt(pw.kasami_base(make_field(4), 1), path)
    code, out, err = run(capsys, "verify", str(path), "--expect", claim)
    assert code == 2 and out == "" and reason in err
    assert err.startswith("error: BadArgument: bentkit verify: "
                          "argument --expect: ")


@pytest.mark.parametrize("claims, code, failure", [
    (["bent,,duality=anti"], 0, None),  # the empty part is skipped
    (["idempotent"], 1, "idempotent=False != expected True"),
    (["duality=SELF"], 1, "duality AntiSelfDual != expected SelfDual"),
    (["bent", "--expect", "duality=Anti"], 0, None),
])
def test_verify_checks_idempotence_and_duality_claims(capsys, tmp_path,
                                                      claims, code, failure):
    path = tmp_path / "a.tt"
    spec = '{"family": "KasamiAntiSelfDual", "n": 6, "F": "X1*X2"}'
    bf.save_tt(sp.build(sp.spec_from_json(spec)).f, path)
    got, out, err = run(capsys, "verify", str(path), "--expect", *claims)
    assert (got, err) == (code, "")
    assert out.startswith(("PASS " if code == 0 else "FAIL ") + str(path))
    assert "duality=AntiSelfDual" in out
    assert (failure in out) if failure else "  [" not in out


def test_demo_carlet_refuses_m_below_two(capsys):
    code, out, err = run(capsys, "demo", "carlet", "--m", "1")
    assert code == 2 and out == "" and "DimensionTooSmall" in err


@pytest.mark.parametrize("text, reason", [
    ('{"family": "KasamiGeneral", "n": 6,', "not valid JSON"),
    ('{"family": "KasamiGeneral", "n": 6, "lambda": "0x1", "F": "X1"}',
     "KasamiGeneral spec lacks u"),
    ('{"family": "Niho", "n": 8, "u": ["0x1"], "F": "X1"}',
     "Niho spec lacks k"),
    ('{"family": "MMLinear", "n": 6, "u": [["0x1", "0x0"]]}',
     "MMLinear spec lacks pi, F"),
    ('{"family": "QuadIdem", "n": 6}', "QuadIdem spec lacks c"),
    ('{"family": "KasamiSubfield", "n": 6, "lambda": "zz", "u": ["0x1"],'
     ' "F": "X1"}', "malformed KasamiSubfield spec"),
    ('["KasamiGeneral"]', "JSON object with a family"),
    ('{"family": "MMLinear", "n": 6, "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
     ' "u": ["01"], "F": "X1"}', "MMLinear shifts must be [x, y] pairs"),
    ('{"family": ["x"], "n": 6}', "unknown family ['x']"),
    ('{"family": "Niho", "n": 8, "k": 1, "u": "13", "F": "X1"}',
     "malformed Niho spec: u: expected list"),
    ('{"family": "KasamiAntiSelfDual", "n": 6.9, "F": "X1*X2"}',
     "malformed KasamiAntiSelfDual spec: n: expected int"),
    ('{"family": "KasamiAntiSelfDual", "n": true, "F": "X1*X2"}',
     "malformed KasamiAntiSelfDual spec: n: expected int"),
    ('{"family": "KasamiGeneral", "n": 6, "lambda": "0x1", "u": ["-0x1"],'
     ' "F": "X1"}', "malformed KasamiGeneral spec: u: negative value"),
    ('{"family": "MMLinear", "n": 6, "pi": [[1, 0], [0, 1], [0, 0]],'
     ' "u": [["0x1", "0x0"]], "F": "X1"}', "expected a square bit matrix"),
    ('{"family": "QuadIdem", "n": 6, "c": [0, 2, 0, 1]}',
     "malformed QuadIdem spec: c: expected bits 0 or 1"),
    ('{"family": "QuadIdem", "n": 6, "c": [0, 1, 0, 1], "eps": 5}',
     "malformed QuadIdem spec: eps: expected 0 or 1, got 5"),
    ('{"family": "QuadFamily", "n": 6, "c": [0, 0, 0, 1], "eps": -1,'
     ' "u": ["0x1"], "F": "X1"}',
     "malformed QuadFamily spec: eps: expected 0 or 1, got -1"),
    ('{"family": "GoldLike", "n": 8, "k": 7, "u": ["0x3"], "F": "X1"}',
     "GoldLike needs k = n/4 = 2, got k=7"),
    ('{"family": "KasamiIdempotent", "n": 7, "u": ["0x1"], "F": "X1"}',
     "KasamiIdempotent needs n divisible by 2, got n=7"),
    ('{"family": "MMLinear", "n": 7, "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
     ' "u": [["0x1", "0x0"]], "F": "X1"}',
     "MMLinear needs n divisible by 2, got n=7"),
    ('{"family": "KasamiGeneral", "n": 6, "lambda": "0x1", "u": ["0xffff"],'
     ' "F": "X1"}', "KasamiGeneral field elements must be below 2^6"),
    ('{"family": "KasamiSubfield", "n": 6, "lambda": "0x1ff", "u": ["0x1"],'
     ' "F": "X1"}', "KasamiSubfield field elements must be below 2^6"),
    ('{"family": "MMLinear", "n": 6, "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
     ' "b": "0x1ff", "u": [["0x1", "0x0"]], "F": "X1"}',
     "MMLinear field elements must be below 2^3"),
    ('{"family": "MMMonomial", "n": 6, "s": 1, "u": [["0x9", "0x1"]],'
     ' "F": "X1"}', "MMMonomial field elements must be below 2^3"),
    ('{"family": "KasamiGeneral", "n": -4, "lambda": "0x1", "u": ["0x1"],'
     ' "F": "X1"}', "KasamiGeneral needs n >= 1, got n=-4"),
])
def test_construct_rejects_malformed_specs(capsys, tmp_path, text, reason):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run(capsys, "construct", str(path))
    assert code == 2 and out == ""
    assert "BadSpec" in err and reason in err
    assert not (tmp_path / "bad.tt").exists()


@pytest.mark.parametrize("sizes", ["3..x", "x", "5..3", ""])
def test_sweep_rejects_bad_size_ranges(capsys, sizes):
    code, out, err = run(capsys, "sweep", "--family", "KasamiGeneral",
                         "--m", sizes, "--trials", "1")
    assert code == 2 and out == "" and "BadRange" in err


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_sweep_rejects_trial_counts_below_one(capsys, trials):
    code, out, err = run(capsys, "sweep", "--family", "KasamiGeneral",
                         "--m", "3", "--trials", trials)
    assert code == 2 and out == "" and "BadRange" in err


@pytest.mark.parametrize("size", ["0", "-1"])
@pytest.mark.parametrize("family",
                         ["KasamiAntiSelfDual", "MMLinear", "MMMonomial"])
def test_sweep_rejects_sizes_below_one(capsys, family, size):
    code, out, err = run(capsys, "sweep", "--family", family, "--m", size,
                         "--trials", "1")
    assert code == 2 and out == ""
    assert err == f"error: BadRange: {family} sizes must be at least 1, " \
                  f"got {size}\n"


def test_library_sweep_refuses_a_size_below_one():
    with pytest.raises(BadRange, match="got 0"):
        vf.sweep("MMLinear", [3, 0], 1, 0)


def test_kasami_antiselfdual_at_m1_is_a_precondition(capsys, tmp_path):
    path = tmp_path / "asd.json"
    path.write_text('{"family": "KasamiAntiSelfDual", "n": 2, "F": "X1"}')
    want = "error: PreconditionViolated: need n = 2m with m >= 2, got n=2\n"
    assert run(capsys, "construct", str(path)) == (2, "", want)
    assert run(capsys, "sweep", "--family", "KasamiAntiSelfDual", "--m", "1",
               "--trials", "1") == (2, "", want)
    assert not (tmp_path / "asd.tt").exists()


def test_sweep_mm_monomial_at_m1_is_bent(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "MMMonomial", "--m", "1",
                       "--trials", "3")
    assert code == 0 and "3/3 claims met, 3/3 bent" in out


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"],
    ["construct", "{dir}"],
    ["dual", "{tt}", "-o", "{dir}"],
    ["verify", "{tt}", "--emit-tt", "{dir}"],
    ["verify", "{bin}"],
], ids=["verify-dir", "construct-dir", "dual-out-dir", "emit-tt-dir",
        "verify-binary"])
def test_file_errors_exit_two_without_a_traceback(capsys, tmp_path, argv):
    bf.save_tt(pw.kasami_base(make_field(4), 1), tmp_path / "g.tt")
    (tmp_path / "b.tt").write_bytes(b"\xff\xfe")
    (tmp_path / "d").mkdir()
    paths = {"dir": tmp_path / "d", "tt": tmp_path / "g.tt",
             "bin": tmp_path / "b.tt"}
    code, out, err = run(capsys, *[a.format(**paths) for a in argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_construct_refuses_unknown_spec_keys(capsys, tmp_path):
    code, out, err = construct(capsys, tmp_path, "typo", {
        "family": "KasamiGeneral", "n": 6, "modulus": "0x49",
        "lambda": "0x1", "u": ["0x1"], "F": "X1"})
    assert code == 2 and out == ""
    assert "BadSpec" in err and "unknown keys modulus" in err
    assert not list(tmp_path.glob("*.tt"))


@pytest.mark.parametrize("doc, keys", [
    ({"family": "KasamiAntiSelfDual", "n": 6, "F": "X1*X2", "k": 3,
      "lambda": "0x5", "s": 9, "b": "0x1"}, "b, k, lambda, s"),
    ({"family": "Niho", "n": 6, "k": 1, "u": ["0x1"], "F": "X1",
      "c": [0, 0, 0, 1], "pi": IDENTITY3}, "c, pi"),
], ids=["KasamiAntiSelfDual", "Niho"])
def test_construct_refuses_keys_the_family_does_not_take(capsys, tmp_path,
                                                         doc, keys):
    code, out, err = construct(capsys, tmp_path, "extra", doc)
    assert code == 2 and out == ""
    assert "BadSpec" in err and f"unknown keys {keys}" in err
    assert not list(tmp_path.glob("*.tt"))


def test_verify_emit_tt_refuses_a_table_without_a_dual(capsys, tmp_path,
                                                      monkeypatch):
    """A spectrum that is not flat, and an odd n: each refused as `dual`
    refuses it, with the one transform the report took."""
    quad = bf.format_tt(cx.quad_idempotent_g(make_field(6), [1, 0, 0, 0]))
    walsh, calls = bf.walsh, []
    monkeypatch.setattr(bf, "walsh", lambda f: calls.append(f) or walsh(f))
    for text, error in ((quad, "NotBent"),
                        ("BF n=3 mod=0xb\nff\n", "OddDimension")):
        table = tmp_path / "q.tt"
        table.write_text(text)
        out_path = tmp_path / "out.tt"
        calls.clear()
        code, out, err = run(capsys, "verify", str(table), "--expect",
                             "nonbent", "--emit-tt", str(out_path))
        assert code == 2 and out.startswith("PASS") and len(calls) == 1
        assert err == run(capsys, "dual", str(table))[2]
        assert err.startswith(f"error: {error}: ")
        assert not out_path.exists()


def test_tables_above_n24_are_refused_up_front(capsys):
    for argv in (["demo", "carlet", "--m", "13"],
                 ["sweep", "--family", "MMLinear", "--m", "13",
                  "--trials", "1"],
                 ["sweep", "--family", "KasamiGeneral", "--m", "13",
                  "--trials", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert "UnsupportedDegree" in err and "n=26" in err
    # fields still reach n = 28 for scalar arithmetic
    assert run(capsys, "field", "--n", "28")[0] == 0


@pytest.mark.parametrize("demo", ["carlet", "mesnager"])
@pytest.mark.parametrize("m", [13, 40])
def test_demos_refuse_sizes_above_n24_with_the_table_message(capsys, demo, m):
    want = f"error: UnsupportedDegree: tables need n <= 24, got n={2 * m}\n"
    assert run(capsys, "demo", demo, "--m", str(m)) == (2, "", want)


# runs bentkit.cli.main(argv) with its address space capped at 1 GiB, so a
# size range that is expanded into a list ends in MemoryError instead of
# taking the machine's memory
CAPPED_CLI = """\
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
cap = 1 << 30 if hard == resource.RLIM_INFINITY else min(hard, 1 << 30)
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
from bentkit.cli import main
sys.exit(main(sys.argv[1:]))
"""


# the console script's shape, which the benchmark runs too
CLI = "import sys; from bentkit.cli import main; sys.exit(main())"


def fresh_cli(*argv, code=CLI, cwd=None, stdout=subprocess.PIPE, **env):
    """Run the CLI in a fresh interpreter, so that its exit runs too; env
    holds environment variables to set in it."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]]
                 if os.environ.get("PYTHONPATH") else [])), **env)
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=cwd, stdout=stdout, stderr=subprocess.PIPE,
                          text=True, timeout=120)


@pytest.mark.parametrize("family, sizes, n", [
    ("QuadIdem", "3..3000000", 26),
    ("QuadIdem", "3..10000000000", 26),
    ("GoldLike", "2,20000000000..30000000000", 80000000000),
])
def test_sweep_refuses_an_oversized_range_without_expanding_it(family, sizes,
                                                               n):
    out = fresh_cli("sweep", "--family", family, "--m", sizes, "--trials",
                    "1", code=CAPPED_CLI)
    want = f"error: UnsupportedDegree: tables need n <= 24, got n={n}\n"
    assert (out.returncode, out.stdout, out.stderr) == (2, "", want)


@pytest.fixture(scope="module")
def bent16(tmp_path_factory):
    """A directory holding f.tt, a bent table at n = 16."""
    path = tmp_path_factory.mktemp("bent16")
    spec = sp.FAMILIES["KasamiGeneral"].sample(16, random.Random(0))
    bf.save_tt(sp.build(spec).f, path / "f.tt")
    return path


def test_a_fresh_process_exits_0_with_the_whole_json_report(bent16):
    out = fresh_cli("verify", "f.tt", "--json", cwd=bent16)
    assert (out.returncode, out.stderr) == (0, "")
    assert json.loads(out.stdout)["is_bent"] is True


def test_a_fresh_process_writes_all_65536_walsh_values_before_exit(bent16):
    out = fresh_cli("walsh", "f.tt", "--json", cwd=bent16)
    assert (out.returncode, out.stderr) == (0, "")
    values = json.loads(out.stdout)["values"]
    assert len(values) == 1 << 16 and {abs(v) for v in values} == {1 << 8}


def test_a_fresh_process_exits_1_with_the_report_of_a_failed_claim(bent16):
    out = fresh_cli("verify", "f.tt", "--expect", "nonbent", cwd=bent16)
    assert (out.returncode, out.stderr) == (1, "")
    assert out.stdout.startswith("FAIL f.tt: bent=True ")
    assert out.stdout.count("\n") == 1


def test_a_fresh_process_exits_2_with_one_error_line(tmp_path):
    (tmp_path / "bad.tt").write_text("BF mod=0x13\n0000\n")
    out = fresh_cli("verify", "bad.tt", cwd=tmp_path)
    want = "error: FieldMismatch: header lacks n=\n"
    assert (out.returncode, out.stdout, out.stderr) == (2, "", want)


# PYTHONUNBUFFERED="" leaves stdout block-buffered, so `field`'s one line
# is written at the flush before exit; "1" writes every print at once
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("argv", [("field", "--n", "8"), ("walsh", "t.tt")])
def test_a_closed_stdout_ends_the_process_with_141_and_no_error(
        tmp_path, argv, unbuffered):
    """`bentkit walsh t.tt | head -1` is not an input error: the command ends
    as a writer killed by SIGPIPE would, with 128 + 13 and a quiet stderr."""
    table = bf.TruthTable(make_field(12), random.Random(1).getrandbits(4096))
    bf.save_tt(table, tmp_path / "t.tt")
    read, write = os.pipe()
    os.close(read)  # before the child starts, so that its first write fails
    try:
        out = fresh_cli(*argv, cwd=tmp_path, stdout=write,
                        PYTHONUNBUFFERED=unbuffered)
    finally:
        os.close(write)
    assert (out.returncode, out.stderr) == (141, "")


def test_library_sweep_reads_sizes_only_up_to_the_first_bad_one():
    def sizes():
        yield from (3, 13)
        raise AssertionError("read past the first size too large")
    with pytest.raises(UnsupportedDegree, match="got n=26"):
        vf.sweep("QuadIdem", sizes(), 1, 0)


@pytest.mark.parametrize("family", sorted(sp.FAMILIES))
def test_construct_and_sweep_report_what_check_reports(capsys, tmp_path,
                                                       family):
    m, seed = (1 if family == "GoldLike" else 3), 5
    spec = vf._sample(family, m, random.Random(seed))  # the sweep's first draw
    checked = vf.check(spec)
    want = checked.report.to_dict() | {"elapsed": 0}
    path = tmp_path / "inst.json"
    path.write_text(sp.spec_to_json(spec))
    code, out, _ = run(capsys, "construct", str(path), "--json")
    doc = json.loads(out)
    files = doc.pop("files")
    assert code == 0 and doc | {"elapsed": 0} == want
    assert bf.load_tt(files[0]).bits == checked.f.bits
    code, out, _ = run(capsys, "construct", str(path))
    assert code == 0 and f"PASS {checked.label}: " in out
    entry = vf.sweep(family, [m], 1, seed).entries[0]
    assert entry.notes == checked.label
    assert entry.report.to_dict() | {"elapsed": 0} == want
    assert entry.report.computed_dual is None  # no table kept per entry


# argv -> the attributes argparse gave it, when it parsed the command line:
# each form the CLI takes, then the examples of README's "Command line".
# func is the handler's name; argparse's command and demo_command, which
# named the handler, are left out.
PARSED = [
    (["field", "--n", "6"], {"func": "_cmd_field", "n": 6, "mod": None}),
    (["field", "--n=6", "--mod", "43"],
     {"func": "_cmd_field", "n": 6, "mod": 67}),
    (["field", "--mod=0x43", "--n", "6"],
     {"func": "_cmd_field", "n": 6, "mod": 67}),
    (["sweep", "--fam", "QuadIdem", "--m", "2..3", "--tri", "2"],
     {"func": "_cmd_sweep", "family": "QuadIdem", "m": "2..3", "trials": 2,
      "seed": 0, "json": False}),
    (["sweep", "--family=QuadIdem", "--m=2", "--trials=1", "--seed=-5"],
     {"func": "_cmd_sweep", "family": "QuadIdem", "m": "2", "trials": 1,
      "seed": -5, "json": False}),
    (["demo", "carlet", "--m", "3", "--seed", "-5"],
     {"func": "_cmd_demo_carlet", "m": 3, "seed": -5, "json": False}),
    (["demo", "carlet", "--m", "-1"],
     {"func": "_cmd_demo_carlet", "m": -1, "seed": 0, "json": False}),
    (["demo", "carlet", "--m", "3", "--m", "4", "--seed", "1", "--seed", "2"],
     {"func": "_cmd_demo_carlet", "m": 4, "seed": 2, "json": False}),
    (["verify", "--json", "f.tt", "--expect", "bent", "--expect",
      "degree=3,idempotent"],
     {"func": "_cmd_verify", "ttfile": "f.tt",
      "expect": ["bent", "degree=3,idempotent"], "dual": None,
      "emit_tt": None, "json": True}),
    (["verify", "f.tt", "--emit-tt", "d.tt", "--dual=g.tt"],
     {"func": "_cmd_verify", "ttfile": "f.tt", "expect": None, "dual": "g.tt",
      "emit_tt": "d.tt", "json": False}),
    (["verify", "--", "-f.tt"],
     {"func": "_cmd_verify", "ttfile": "-f.tt", "expect": None, "dual": None,
      "emit_tt": None, "json": False}),
    (["dual", "f.tt", "-o", "d.tt"],
     {"func": "_cmd_dual", "ttfile": "f.tt", "out": "d.tt"}),
    (["dual", "-od.tt", "f.tt"],
     {"func": "_cmd_dual", "ttfile": "f.tt", "out": "d.tt"}),
    (["dual", "-o=d.tt", "f.tt"],
     {"func": "_cmd_dual", "ttfile": "f.tt", "out": "d.tt"}),
    (["dual", "--out", "a", "--out", "b", "f.tt"],
     {"func": "_cmd_dual", "ttfile": "f.tt", "out": "b"}),
    (["demo", "mesnager", "--m", "3", "--f1", "X1*X2", "--f2=X2", "--f3",
      "X1", "--js"],
     {"func": "_cmd_demo_mesnager", "m": 3, "f1": "X1*X2", "f2": "X2",
      "f3": "X1", "json": True}),
    (["construct", "inst.json", "--json"],
     {"func": "_cmd_construct", "specfile": "inst.json", "json": True}),
    (["walsh", "--json", "inst.tt"],
     {"func": "_cmd_walsh", "ttfile": "inst.tt", "json": True}),
    (["demo", "carlet", "--m", "4"],
     {"func": "_cmd_demo_carlet", "m": 4, "seed": 0, "json": False}),
    (["demo", "mesnager", "--m", "3", "--f1", "X1*X2", "--f2", "X2", "--f3",
      "X1"],
     {"func": "_cmd_demo_mesnager", "m": 3, "f1": "X1*X2", "f2": "X2",
      "f3": "X1", "json": False}),
    (["sweep", "--family", "KasamiSubfield", "--m", "2..4", "--trials", "25",
      "--seed", "7"],
     {"func": "_cmd_sweep", "family": "KasamiSubfield", "m": "2..4",
      "trials": 25, "seed": 7, "json": False}),
    (["construct", "inst.json"],
     {"func": "_cmd_construct", "specfile": "inst.json", "json": False}),
    (["verify", "inst.tt", "--expect", "bent,degree=3", "--dual",
      "inst.dual.tt"],
     {"func": "_cmd_verify", "ttfile": "inst.tt", "expect": ["bent,degree=3"],
      "dual": "inst.dual.tt", "emit_tt": None, "json": False}),
    (["walsh", "inst.tt"],
     {"func": "_cmd_walsh", "ttfile": "inst.tt", "json": False}),
    (["anf", "inst.tt"], {"func": "_cmd_anf", "ttfile": "inst.tt",
                          "json": False}),
    (["dual", "inst.tt", "-o", "inst.dual.tt"],
     {"func": "_cmd_dual", "ttfile": "inst.tt", "out": "inst.dual.tt"}),
]


def parsed(argv):
    args = vars(cli.parse(argv))
    return args | {"func": args["func"].__name__}


@pytest.mark.parametrize("argv, want", [
    pytest.param(argv, want, id=" ".join(argv)) for argv, want in PARSED])
def test_parse_gives_what_argparse_gave(argv, want):
    assert parsed(argv) == want


def test_main_reads_sys_argv_without_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["bentkit", "field", "--n", "3"])
    assert main() == 0
    assert capsys.readouterr().out == "n=3,mod=0xb\n"


def test_an_option_takes_the_next_token_whatever_it_is():
    """argparse refused a value that looks like an option."""
    argv = ["demo", "mesnager", "--m", "3", "--f1", "-X1", "--f2", "--json"]
    assert parsed(argv) == {"func": "_cmd_demo_mesnager", "m": 3, "f1": "-X1",
                            "f2": "--json", "f3": None, "json": False}


def commands(node=cli.TOP, argv=()):
    """(argv, node) for the top, every group and every command in
    COMMANDS."""
    yield list(argv), node
    if len(node) == 2:
        for name, sub in node[1].items():
            yield from commands(sub, argv + (name,))


@pytest.mark.parametrize("help_flag", ["-h", "--help", "--he"])
@pytest.mark.parametrize("argv, node", [
    pytest.param(argv, node, id=" ".join(["bentkit", *argv]))
    for argv, node in commands()])
def test_help_names_every_argument_and_exits_0(capsys, argv, node,
                                               help_flag):
    code, out, err = run(capsys, *argv, help_flag)
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: {' '.join(['bentkit', *argv])} ")
    assert node[0] in out
    names = (node[1] if len(node) == 2
             else [name for row in node[2] for name in row[0].split()])
    for name in names:
        assert f" {name}" in out, name
