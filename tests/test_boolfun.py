import random
import tracemalloc
from functools import partial

import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import specs as sp
from bentkit.errors import FieldMismatch, NotBent, OddDimension
from bentkit.gf2n import BivariateDomain, coordinate_tables, make_field


def tt_from_fn(domain, fn):
    return pw.from_bits(domain, [fn(i) for i in range(domain.size)])


def kasami_tt(field, lam=1):
    m = field.m
    return tt_from_fn(field, lambda x: field.trace_sub(
        field.mul(lam, field.mul(x, field.frob(x, m)))))


def test_walsh_constant_zero():
    field = make_field(2)
    spec = bf.walsh(bf.TruthTable(field, 0))
    assert spec.values == (4, 0, 0, 0)


@pytest.mark.parametrize("dom", [make_field(1), make_field(6),
                                 BivariateDomain(make_field(3))],
                         ids=["n1", "n6", "grid-n6"])
def test_constant_tables_reach_the_largest_magnitude(dom):
    """|W(0)| = 2^n, from W(0) = +2^n and -2^n: the top magnitude plane."""
    full = (1 << dom.size) - 1
    for bits in (0, full):
        spec = bf.walsh(bf.TruthTable(dom, bits))
        assert spec.extrema() == (0, 1 << dom.n)
        assert spec.off_flat_mask() == full


def test_walsh_cube_function_is_flat():
    # f(x) = x^3 on GF(4): value 1 everywhere except 0
    field = make_field(2)
    f = tt_from_fn(field, lambda x: 1 if x else 0)
    spec = bf.walsh(f)
    assert all(abs(v) == 2 for v in spec.values)
    assert spec.values == pw.walsh_naive(f).values


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_walsh_matches_naive_oracle(n):
    field = make_field(n)
    rng = random.Random(n)
    for _ in range(20):
        f = bf.TruthTable(field, rng.getrandbits(field.size))
        fast = bf.walsh(f)
        assert fast.values == pw.walsh_naive(f).values
        assert pw.parseval_holds(fast)


def test_walsh_matches_naive_at_ten_variables():
    field = make_field(10)
    rng = random.Random(99)
    f = bf.TruthTable(field, rng.getrandbits(field.size))
    assert bf.walsh(f).values == pw.walsh_naive(f).values


def test_walsh_holds_no_table_once_it_returns():
    """pull_linear keeps each map's plan, small ints only, and rebuilds its
    masks per call: after one walsh at n = 20, or two, the process holds
    less than one 2^20-bit table more than before."""
    field = make_field(20)
    f = bf.TruthTable(field, random.Random(20).getrandbits(field.size))
    coordinate_tables(20)  # kept for the process, whatever pull_linear keeps
    tracemalloc.start()
    try:
        held = []
        for _ in range(2):
            bf.walsh(f)
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert max(held) < field.size // 8, held


def test_fwht_twice_scales_by_size():
    rng = random.Random(3)
    signs = [1 - 2 * rng.randint(0, 1) for _ in range(64)]
    twice = pw.fwht(pw.fwht(signs[:]))
    assert twice == [64 * s for s in signs]


def test_is_bent():
    field = make_field(4)
    assert not bf.is_bent(bf.walsh(bf.TruthTable(field, 0)))
    assert bf.is_bent(bf.walsh(kasami_tt(field)))
    affine = tt_from_fn(field, partial(pw.trace_abs, field))
    assert not bf.is_bent(bf.walsh(affine))
    with pytest.raises(OddDimension):
        bf.is_bent(bf.walsh(bf.TruthTable(make_field(3), 5)))


def test_dual_involution_and_kasami_dual():
    field = make_field(4)
    g = kasami_tt(field)
    spec = bf.walsh(g)
    gdual = bf.dual(spec)
    # lambda = 1: the dual is g + 1
    assert gdual.bits == bf.add_const(g, 1).bits
    assert bf.dual(bf.walsh(gdual)).bits == g.bits


def test_dual_requires_bent():
    with pytest.raises(NotBent):
        bf.dual(bf.walsh(bf.TruthTable(make_field(4), 0)))


def test_duality_class():
    field = make_field(4)
    g = kasami_tt(field)
    assert bf.duality_class(g, g) == bf.DualityClass.SELF_DUAL
    assert (bf.duality_class(g, bf.add_const(g, 1))
            == bf.DualityClass.ANTI_SELF_DUAL)
    other = bf.TruthTable(field, g.bits ^ 0b110)
    assert bf.duality_class(g, other) == bf.DualityClass.NEITHER
    with pytest.raises(FieldMismatch, match="on different domains"):
        bf.duality_class(g, bf.TruthTable(make_field(6), 0))


def naive_anf_coeff(f, mask):
    """a_I = xor of f over the subcube below I."""
    acc = 0
    sub = mask
    while True:
        acc ^= (f.bits >> sub) & 1
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return acc


def test_anf_against_subcube_oracle():
    field = make_field(4)
    rng = random.Random(5)
    for _ in range(10):
        f = bf.TruthTable(field, rng.getrandbits(16))
        poly = bf.anf(f)
        monos = pw.monomials(poly)
        for mask in range(16):
            assert (mask in monos) == bool(naive_anf_coeff(f, mask))
        coeffs = [(poly.coeffs >> mask) & 1 for mask in range(16)]
        assert pw.mobius(coeffs) == pw.to_bitlist(f)


def test_anf_examples():
    field = make_field(4)
    ones = bf.add_const(bf.TruthTable(field, 0), 1)
    poly = bf.anf(ones)
    assert pw.monomials(poly) == frozenset({0}) and poly.degree() == 0
    assert bf.degree(bf.TruthTable(field, 0)) == 0
    trace = tt_from_fn(field, partial(pw.trace_abs, field))
    assert bf.degree(trace) == 1
    assert bf.degree(kasami_tt(field)) == 2


def test_is_idempotent():
    field = make_field(4)
    assert bf.is_idempotent(bf.TruthTable(field, 0))
    assert bf.is_idempotent(bf.add_const(bf.TruthTable(field, 0), 1))
    assert bf.is_idempotent(
        tt_from_fn(field, partial(pw.trace_abs, field)))
    for c in range(2, field.size):
        linear = tt_from_fn(field,
                            lambda x: pw.trace_abs(field, field.mul(c, x)))
        assert not bf.is_idempotent(linear)


def test_add_and_add_const():
    field = make_field(3)
    rng = random.Random(8)
    f = bf.TruthTable(field, rng.getrandbits(8))
    zero = bf.TruthTable(field, 0)
    assert bf.add(f, f).bits == 0
    assert bf.add(f, zero).bits == f.bits
    assert bf.add_const(f, 1).bits == f.bits ^ 0xFF
    assert bf.add_const(f, 0).bits == f.bits


def test_tt_file_format_frozen_example():
    field = make_field(2)
    f = bf.TruthTable(field, 0b1110)
    assert bf.format_tt(f) == "BF n=2 mod=0x7\n0e\n"
    again = bf.parse_tt(bf.format_tt(f))
    assert again.domain == field and again.bits == f.bits


@pytest.mark.parametrize("n", [3, 4, 6])
def test_tt_file_roundtrip_random(n):
    field = make_field(n)
    rng = random.Random(n + 40)
    for _ in range(5):
        f = bf.TruthTable(field, rng.getrandbits(field.size))
        again = bf.parse_tt(bf.format_tt(f))
        assert again.domain == f.domain and again.bits == f.bits


def test_tt_file_roundtrip_bivariate():
    dom = BivariateDomain(make_field(3))
    rng = random.Random(77)
    f = bf.TruthTable(dom, rng.getrandbits(dom.size))
    text = bf.format_tt(f)
    assert "grid=xy" in text.splitlines()[0]
    again = bf.parse_tt(text)
    assert again.domain == dom and again.bits == f.bits


def test_tt_file_rejects_garbage():
    with pytest.raises(FieldMismatch):
        bf.parse_tt("not a table\n00\n")
    with pytest.raises(FieldMismatch):
        bf.parse_tt("BF n=4 mod=0x13\n00\n")  # payload too short


def _field_of(f):
    dom = f.domain
    return dom.base if isinstance(dom, BivariateDomain) else dom


@pytest.mark.parametrize("doc", [
    '{"family": "QuadIdem", "n": 6, "mod": "0x5b", "c": [0, 0, 0, 1]}',
    '{"family": "MMLinear", "n": 6, "mod": "0xd", "pi": [[1, 0, 0], '
    '[0, 1, 0], [0, 0, 1]], "u": [["0x1", "0x0"]], "F": "X1"}',
], ids=["field", "grid"])
def test_tables_and_specs_share_one_field(tmp_path, doc):
    f = sp.build(sp.spec_from_json(doc)).f
    bf.save_tt(f, tmp_path / "f.tt")
    loaded = bf.load_tt(tmp_path / "f.tt")
    assert loaded == f and _field_of(loaded) is _field_of(f)
    # as verify X.tt --dual Y.tt loads both tables onto one Field
    assert _field_of(bf.load_tt(tmp_path / "f.tt")) is _field_of(loaded)
