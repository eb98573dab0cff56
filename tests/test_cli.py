import json

import pytest

from bentkit import boolfun as bf
from bentkit import constructions as cx
from bentkit import multipoly as mp
from bentkit.cli import main
from bentkit.gf2n import make_field, rank


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def subfield_basis(field, count):
    basis = []
    for y in field.subfield().members:
        if y and rank(basis + [y]) == len(basis) + 1:
            basis.append(y)
        if len(basis) == count:
            return basis
    raise AssertionError


def write_spec(tmp_path, name="inst.json"):
    field = make_field(6)
    us = subfield_basis(field, 3)
    spec = cx.ConstructionSpec(family="KasamiSubfield", n=6, mod=0x43,
                               lam=1, u=tuple(us), F="X1*X2*X3")
    path = tmp_path / name
    path.write_text(cx.spec_to_json(spec))
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
    spec = cx.ConstructionSpec(family="KasamiSubfield", n=6, mod=0x43,
                               lam=1, u=(1, 1), F="X1*X2")
    path = tmp_path / "dep.json"
    path.write_text(cx.spec_to_json(spec))
    code, _, err = run(capsys, "construct", str(path))
    assert code == 2 and "NotIndependent" in err


def test_construct_rejects_bad_niho_k(capsys, tmp_path):
    spec = cx.ConstructionSpec(family="Niho", n=8, mod=0x11b, k=2,
                               u=(1,), F="X1")
    path = tmp_path / "gcd.json"
    path.write_text(cx.spec_to_json(spec))
    code, _, err = run(capsys, "construct", str(path))
    assert code == 2 and "GcdViolated" in err


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
    g = cx.kasami_base(field, 1)
    path = tmp_path / "g.tt"
    bf.save_tt(g, path)
    code, out, _ = run(capsys, "walsh", str(path))
    values = [int(v) for v in out.split()]
    assert code == 0 and sorted(set(map(abs, values))) == [4]
    code, out, _ = run(capsys, "walsh", str(path), "--json")
    assert json.loads(out)["n"] == 4
    code, out, _ = run(capsys, "anf", str(path))
    assert code == 0 and out.startswith("degree 2")


def test_dual_command_roundtrip(capsys, tmp_path):
    field = make_field(4)
    g = cx.kasami_base(field, 1)
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


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--family", "NoSuchFamily", "--m", "2",
              "--trials", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("text, reason", [
    ("BF n=4 mod=0x13 xy\n0000\n", "not key=value"),
    ("BF mod=0x13\n0000\n", "lacks n="),
    ("BF n=4\n0000\n", "lacks mod="),
    ("BF n=4 mod=0x13\nzz00\n", "not hex"),
])
def test_verify_rejects_malformed_table_files(capsys, tmp_path, text,
                                              reason):
    path = tmp_path / "bad.tt"
    path.write_text(text)
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "FieldMismatch" in err and reason in err


@pytest.mark.parametrize("claim, reason", [
    ("degree=x", "degree must be an integer"),
    ("duality=foo", "duality must be self, anti or neither"),
])
def test_verify_rejects_malformed_expectations(capsys, tmp_path, claim,
                                               reason):
    path = tmp_path / "g.tt"
    bf.save_tt(cx.kasami_base(make_field(4), 1), path)
    code, out, err = run(capsys, "verify", str(path), "--expect", claim)
    assert code == 2 and out == "" and reason in err


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
    ('{"family": "GoldLike", "n": 8, "k": 7, "u": ["0x3"], "F": "X1"}',
     "GoldLike needs k = n/4 = 2, got k=7"),
    ('{"family": "KasamiIdempotent", "n": 7, "u": ["0x1"], "F": "X1"}',
     "KasamiIdempotent needs n divisible by 2, got n=7"),
    ('{"family": "MMLinear", "n": 7, "pi": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],'
     ' "u": [["0x1", "0x0"]], "F": "X1"}',
     "MMLinear needs n divisible by 2, got n=7"),
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


def test_sweep_mm_monomial_at_m1_is_bent(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "MMMonomial", "--m", "1",
                       "--trials", "3")
    assert code == 0 and "3/3 claims met, 3/3 bent" in out
