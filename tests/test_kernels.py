"""Property tests: the packed-int kernels against the list oracles.

Random tables on fields with random irreducible moduli (n = 1..10, odd n
included) and on bivariate grids.  The oracles are the list transforms
(fwht, mobius and walsh_naive from tests/pointwise.py), re-indexed
point by point through walsh_index and pointwise.squaring_perm (x -> x^2
with Field.mul), and, for the bit-sliced constructors, the per-point
constructions in tests/pointwise.py, whose trace masks follow the
definition of the trace.
The translation behind D_u is checked against the per-index shift
T[i ^ s], every pair family's dual against the theorem
f~ = g~ + F(D_u1 g~, ...), with g~ and f~ read from spectra, and every
family's pair test parity(row(u) & v) = 0, with row(u) in closed form,
against D_u D_v g~ = 0 on the table (pointwise.table_condition).
The plane adder is checked against integer addition, and the packed
spectrum identity against its beta-by-beta oracle, on real and tampered
pairs.
Last, fuzzed spec JSON must parse and round-trip, and fuzzed .tt text must
parse, or be refused with a BentkitError.
"""

import itertools
import json
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import (  # noqa: E402
    assume,
    example,
    given,
    settings,
    strategies as st,
)

import pointwise as pw  # noqa: E402
from bentkit import boolfun as bf  # noqa: E402
from bentkit import constructions as cx  # noqa: E402
from bentkit import gf2n  # noqa: E402
from bentkit import multipoly as mp  # noqa: E402
from bentkit import specs as sp  # noqa: E402
from bentkit import verify as vf  # noqa: E402
from bentkit.errors import (  # noqa: E402
    BentkitError,
    FieldMismatch,
    NotBent,
    OddDimension,
)
from bentkit.gf2n import (  # noqa: E402
    BivariateDomain,
    Field,
    apply_linear,
    invert,
    is_irreducible,
    linear_planes,
    poly_mul,
    pull_linear,
    rank,
    trace_planes,
    translate,
    transpose,
)


def random_modulus(draw, n: int) -> int:
    """The first irreducible modulus at or after a random start, wrapping."""
    start = draw(st.integers(0, (1 << n) - 1))
    for offset in range(1 << n):
        mod = (1 << n) | ((start + offset) % (1 << n))
        if is_irreducible(mod):
            return mod
    raise AssertionError(f"no irreducible polynomial of degree {n}")


@st.composite
def fields(draw, max_n=10, min_n=1, step=1):
    """Fields whose degree n, a multiple of step, lies in min_n..max_n."""
    n = step * draw(st.integers(-(-min_n // step), max_n // step))
    return Field(n, random_modulus(draw, n))


@st.composite
def domains(draw, max_n=10):
    if draw(st.booleans()):
        return BivariateDomain(draw(fields(max_n // 2)))
    return draw(fields(max_n))


def inner_product_bent(n: int, a: int, c: int) -> int:
    """x.y + a.(x, y) + c on the index halves: bent whatever the pairing."""
    h = n // 2
    bits = 0
    for i in range(1 << n):
        v = ((i >> h) & i & ((1 << h) - 1)).bit_count()
        v += (i & a).bit_count() + c
        bits |= (v & 1) << i
    return bits


def squaring_closure(domain, bits: int) -> int:
    """OR of a table over the squaring orbits: an idempotent table."""
    perm = pw.squaring_perm(domain)
    for _ in range(domain.n):
        bits |= sum(((bits >> j) & 1) << i for i, j in enumerate(perm))
    return bits


@st.composite
def tables(draw, max_n=10):
    dom = draw(domains(max_n))
    bits = draw(st.integers(0, (1 << dom.size) - 1))
    kind = draw(st.sampled_from(["random", "bent", "idempotent"]))
    if kind == "bent" and dom.n % 2 == 0:
        bits = inner_product_bent(dom.n, bits >> 1, bits & 1)
    elif kind == "idempotent":
        bits = squaring_closure(dom, bits)
    return bf.TruthTable(dom, bits)


def list_spectrum(f) -> tuple[int, ...]:
    """The list FWHT, re-indexed beta by beta through walsh_index."""
    dom = f.domain
    raw = pw.fwht([1 - 2 * b for b in pw.to_bitlist(f)])
    return tuple(raw[dom.walsh_index(beta)] for beta in range(dom.size))


def packed(flags) -> int:
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def apply_columns(columns, z: int) -> int:
    out = 0
    for j, col in enumerate(columns):
        if (z >> j) & 1:
            out ^= col
    return out


@given(tables())
def test_walsh_planes_match_the_list_transform(f):
    spec = bf.walsh(f)
    old = list_spectrum(f)
    assert len(spec.planes) == f.domain.n + 2
    for k, plane in enumerate(spec.planes):
        assert plane == packed((v >> k) & 1 for v in old)
    assert spec.values == old
    assert pw.spectrum_from_values(f.domain, old) == spec
    assert [spec.value(beta) for beta in range(f.domain.size)] == list(old)
    assert pw.parseval_holds(spec)


@given(st.integers(1, 8), st.integers(0, 6), st.data())
def test_add_planes_is_integer_addition(width, n, data):
    size = 1 << n
    ints = st.lists(st.integers(0, (1 << width) - 1), min_size=size,
                    max_size=size)
    xs, ys = data.draw(ints), data.draw(ints)
    carry = data.draw(st.integers(0, size - 1))

    def planes(vals):
        return [packed((v >> k) & 1 for v in vals) for k in range(width)]

    out = bf.add_planes(planes(xs), planes(ys), carry)
    assert len(out) == width
    for i in range(size):
        got = sum(((p >> i) & 1) << k for k, p in enumerate(out))
        assert got == (xs[i] + ys[i] + ((carry >> i) & 1)) % (1 << width)


@given(tables(max_n=6))
def test_walsh_matches_the_naive_definition(f):
    assert bf.walsh(f).values == pw.walsh_naive(f).values


@given(tables())
def test_extrema_bentness_and_dual_match_the_list_versions(f):
    n = f.domain.n
    spec = bf.walsh(f)
    old = list_spectrum(f)
    mags = [abs(v) for v in old]
    flat = 1 << (n // 2)
    assert spec.extrema() == (min(mags), max(mags))
    assert spec.off_flat_mask() == packed(m != flat for m in mags)
    if n % 2:
        with pytest.raises(OddDimension):
            bf.is_bent(spec)
        return
    bent = all(m == flat for m in mags)
    assert bf.is_bent(spec) == bent
    if bent:
        assert bf.dual(spec).bits == packed(v < 0 for v in old)
    else:
        with pytest.raises(NotBent):
            bf.dual(spec)


@given(tables())
def test_packed_anf_and_degree_match_moebius(f):
    coeffs = pw.mobius(pw.to_bitlist(f))
    poly = bf.anf(f)
    assert poly.coeffs == packed(coeffs)
    assert pw.monomials(poly) == frozenset(
        i for i, c in enumerate(coeffs) if c)
    assert poly.degree() == max(
        (i.bit_count() for i, c in enumerate(coeffs) if c), default=0)
    assert bf.degree(f) == poly.degree()
    assert pw.mobius(coeffs) == pw.to_bitlist(f)


@given(st.integers(1, 8), st.data())
def test_packed_polynomial_ops_match_monomial_sets(tau, data):
    masks = st.integers(0, (1 << tau) - 1)
    gens = data.draw(st.lists(masks.filter(bool), max_size=3))
    if data.draw(st.booleans()):  # a sum of orbits: rotation-symmetric
        a = frozenset()
        for g in gens:
            a ^= pw.rotation_orbit(g, tau)
    else:
        a = data.draw(st.frozensets(masks, max_size=12))
    b = data.draw(st.frozensets(masks, max_size=12))
    F, G = mp.poly(tau, *a), mp.poly(tau, *b)
    assert pw.monomials(F) == a
    assert F.degree() == max((m.bit_count() for m in a), default=0)
    assert pw.monomials(F + G) == a ^ b
    assert mp.is_rotation_symmetric(F) == (
        frozenset(pw.rotate(m, tau) for m in a) == a)
    for g in gens:
        closure = mp.rotation_closure(g, tau)
        assert pw.monomials(closure) == pw.rotation_orbit(g, tau)
    d = data.draw(st.integers(1, tau))
    assert (pw.monomials(mp.elementary_symmetric(tau, d))
            == pw.elementary_monomials(tau, d))
    text = mp.format_poly(F)
    assert text == pw.format_monomials(a, tau)
    assert mp.parse_poly(text, tau) == F


@pytest.mark.parametrize("tau", range(1, 9))
def test_fourier_matches_the_list_transform(tau):
    rng = random.Random(tau)
    for _ in range(6):
        F = mp.ReducedPoly(tau, rng.getrandbits(1 << tau))
        signs = [1 - 2 * pw.evaluate(F, x) for x in range(1 << tau)]
        assert mp.fourier(F) == tuple(pw.fwht(signs))


@given(tables())
def test_idempotence_matches_the_squaring_permutation(f):
    perm = pw.squaring_perm(f.domain)
    assert bf.is_idempotent(f) == all(
        (f.bits >> i) & 1 == (f.bits >> j) & 1 for i, j in enumerate(perm))


@given(domains(), st.data())
def test_index_maps_match_squaring_perm_and_walsh_index(dom, data):
    bits = data.draw(st.integers(0, (1 << dom.size) - 1))
    perm = pw.squaring_perm(dom)
    squared = pull_linear(bits, dom.squaring_map())
    assert squared == packed((bits >> perm[x]) & 1 for x in range(dom.size))
    assert [apply_columns(dom.squaring_map(), x)
            for x in range(dom.size)] == perm

    cols = dom.walsh_map()
    pulled = pull_linear(bits, cols)
    assert pulled == packed((bits >> apply_columns(cols, z)) & 1
                            for z in range(dom.size))
    # the pairing Tr(beta * M z) is the dot product beta . z
    for i in range(dom.n):
        for j in range(dom.n):
            pairing = (dom.walsh_index(1 << i) & cols[j]).bit_count() & 1
            assert pairing == (i == j)


@st.composite
def invertible_maps(draw):
    n = draw(st.integers(1, 8))
    cols = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                         max_size=n).filter(lambda c: rank(c) == len(c)))
    return n, cols


@given(invertible_maps(), st.data())
def test_pull_linear_on_random_invertible_maps(nmap, data):
    n, cols = nmap
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    assert pull_linear(bits, cols) == packed(
        (bits >> apply_columns(cols, y)) & 1 for y in range(1 << n))


def test_pull_linear_refuses_a_singular_map():
    for _ in range(2):  # a refusal is not cached as a plan
        with pytest.raises(ValueError):
            pull_linear(0b1011, [0b01, 0b01])


def test_pull_linear_reduces_each_map_once(monkeypatch):
    cols = gf2n.make_field(10).walsh_map()
    bits = random.Random(0).getrandbits(1 << 10)
    once = pull_linear(bits, cols)
    calls = []
    monkeypatch.setattr(gf2n, "transpose",
                        lambda v: calls.append(v) or transpose(v))
    assert pull_linear(bits, cols) == once
    assert calls == []


@given(domains(), st.data())
def test_translate_matches_the_per_index_shift(dom, data):
    bits = data.draw(st.integers(0, (1 << dom.size) - 1))
    if isinstance(dom, BivariateDomain):
        element = st.integers(0, dom.base.size - 1)
        s = (data.draw(element) << dom.m) | data.draw(element)
    else:
        s = data.draw(st.integers(0, dom.size - 1))
    assert translate(bits, dom.n, s) == packed(
        (bits >> (i ^ s)) & 1 for i in range(dom.size))
    with pytest.raises(ValueError):
        translate(bits, dom.n, s | dom.size)


# ---------------------------------------------------------------------------
# bit-sliced field elements and constructors
# ---------------------------------------------------------------------------

def planes_of(values, n: int) -> tuple[int, ...]:
    return tuple(packed((v >> i) & 1 for v in values) for i in range(n))


def values_of(planes, size: int) -> list[int]:
    return [sum(((p >> x) & 1) << i for i, p in enumerate(planes))
            for x in range(size)]


@given(fields(max_n=8), st.data())
def test_sliced_mul_pow_and_linear_maps_match_field_arithmetic(field, data):
    n = field.n
    size = 1 << data.draw(st.integers(0, 6))
    element = st.integers(0, (1 << n) - 1)
    va = data.draw(st.lists(element, min_size=size, max_size=size))
    vb = data.draw(st.lists(element, min_size=size, max_size=size))
    a, b = planes_of(va, n), planes_of(vb, n)
    assert values_of(field.mul_planes(a, b), size) == [
        field.mul(x, y) for x, y in zip(va, vb)]
    order = field.size - 1
    e = data.draw(st.one_of(st.integers(1, 3 * field.size),
                            st.sampled_from([order, 2 * order])))
    assert values_of(field.pow_planes(a, e), size) == [
        pw.power(field, x, e) for x in va]
    k = data.draw(st.integers(0, 2 * n))
    c = data.draw(element)
    for cols, image in ((field.frob_map(k), lambda x: field.frob(x, k)),
                        (field.scale_map(c), lambda x: field.mul(c, x))):
        assert values_of(linear_planes(a, cols), size) == [
            image(x) for x in va]
        mask = data.draw(element)
        assert trace_planes(a, pw.pullback_mask(cols, mask)) == packed(
            pw.parity(image(x) & mask) for x in va)


@given(fields(max_n=12), st.data())
def test_trace_masks_match_the_definition(field, data):
    u = data.draw(st.integers(0, field.size - 1))
    assert field.trace_mask(u) == pw.trace_mask(field, u)
    assert field.walsh_index(u) == pw.trace_mask(field, u)
    if field.m is not None:
        y = data.draw(st.sampled_from(field.subfield()))
        assert field.trace_sub(y) == pw.trace_sub(field, y)


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n),
    st.integers(1 << n, 1 << (2 * n)) | st.integers(-5, -1))))
def test_apply_linear_refuses_bits_beyond_its_columns(args):
    columns, x = args
    with pytest.raises(ValueError):
        apply_linear(columns, x)
    assert apply_linear(columns, x & ((1 << len(columns)) - 1)) == (
        apply_columns(columns, x & ((1 << len(columns)) - 1)))


@given(fields(max_n=8), st.integers(-(1 << 9), -1), st.data())
def test_field_products_refuse_a_negative_operand(field, negative, data):
    other = data.draw(st.integers(0, field.size - 1))
    for a, b in ((other, negative), (negative, other)):
        with pytest.raises(ValueError):
            poly_mul(a, b)
        with pytest.raises(ValueError):
            field.mul(a, b)


@given(fields(max_n=12, min_n=2, step=2))
def test_subfield_is_the_frobenius_fixed_set(field):
    assert field.subfield() == tuple(
        y for y in range(field.size) if field.frob(y, field.m) == y)


def sample_kasami_general(data, rng, subfield_only=False):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    lam = rng.choice([y for y in field.subfield() if y])
    tau = rng.randint(1, field.m)
    us = sp.kasami_valid_us(field, lam, tau, rng, subfield_only=subfield_only)
    F = sp.random_poly(tau, rng)
    if subfield_only:
        return (cx.kasami_subfield(field, lam, us, F),
                pw.kasami_subfield(field, lam, us, F))
    return (cx.kasami_general(field, lam, us, F),
            pw.kasami_general(field, lam, us, F))


def sample_kasami_idempotent(data, rng):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    u = field.find_normal(rng.randrange(1 << field.m))
    F = sp.random_rotsym_poly(field.m, rng)
    return (cx.kasami_idempotent(field, u, F),
            pw.kasami_idempotent(field, u, F))


def sample_kasami_antiselfdual(data, rng):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    F = sp.random_poly(field.m - 1, rng)
    return (cx.kasami_antiselfdual(field, F),
            pw.kasami_antiselfdual(field, F))


def sample_quad_family(data, rng):
    field = data.draw(fields(max_n=10, min_n=2, step=2))
    m = field.m
    c = [rng.randint(0, 1) for _ in range(m + 1)]
    eps = rng.randint(0, 1)
    base = cx.quad_idempotent_g(field, c, eps)
    assert base.bits == pw.quad_bits(field, c, eps)
    assume(cx.is_quad_bent_gcd(c))
    tau = rng.randint(1, m)
    us = rng.sample([y for y in field.subfield() if y], tau)
    F = sp.random_poly(tau, rng)
    return (cx.quad_family(field, c, eps, us, F),
            pw.quad_family(field, c, eps, us, F))


def sample_gold_like(data, rng):
    field = data.draw(fields(max_n=8, min_n=4, step=4))
    lam = field.solve_semilinear(3 * (field.n // 4), 1)
    tau = rng.randint(1, field.n // 2)
    us = sp.gold_valid_us(field, lam, tau, rng)
    F = sp.random_poly(tau, rng)
    return cx.gold_like(field, lam, us, F), pw.gold_like(field, lam, us, F)


def sample_niho(data, rng):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    m = field.m
    k = rng.choice([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
    tau = rng.randint(1, m)
    us = rng.sample([y for y in field.subfield() if y], tau)
    F = sp.random_poly(tau, rng)
    return cx.niho_family(field, k, us, F), pw.niho_family(field, k, us, F)


def sample_mm_linear(data, rng):
    base = data.draw(fields(max_n=5, min_n=2))
    m, mod = base.n, base.modulus
    tau = rng.randint(1, min(m, 3))
    rows, b, pairs = sp.mm_linear_params(base, tau, rng)
    F = sp.random_poly(tau, rng)
    return (cx.mm_linear(base, rows, b, pairs, F),
            pw.mm_linear(m, rows, b, pairs, F, modulus=mod))


def sample_mm_monomial(data, rng):
    base = data.draw(fields(max_n=5, min_n=1))
    m, mod = base.n, base.modulus
    s = rng.choice([s for s in range(1, m + 1)
                    if m % s == 0 and (m // s) % 2 == 1])
    tau = 1 if s == 1 else rng.randint(1, 2)
    pairs = sp.mm_monomial_pairs(base, s, tau, rng)
    F = sp.random_poly(tau, rng)
    return (cx.mm_monomial(base, s, pairs, F),
            pw.mm_monomial(m, s, pairs, F, modulus=mod))


PAIR_SAMPLERS = pytest.mark.parametrize("sample", [
    sample_kasami_general,
    lambda data, rng: sample_kasami_general(data, rng, subfield_only=True),
    sample_kasami_idempotent,
    sample_kasami_antiselfdual,
    sample_quad_family,
    sample_gold_like,
    sample_niho,
    sample_mm_linear,
    sample_mm_monomial,
], ids=["KasamiGeneral", "KasamiSubfield", "KasamiIdempotent",
        "KasamiAntiSelfDual", "QuadFamily", "GoldLike", "Niho", "MMLinear",
        "MMMonomial"])


@PAIR_SAMPLERS
@settings(max_examples=40)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sliced_constructors_match_the_pointwise_oracle(sample, data, seed):
    pair, (f, base, dual) = sample(data, random.Random(seed))
    assert pair.f.bits == f
    assert pair.base.bits == base
    if dual is None:
        assert pair.predicted_dual is None
    else:
        assert pair.predicted_dual.bits == dual


@PAIR_SAMPLERS
@settings(max_examples=20)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_the_dual_theorem_holds_on_every_pair_family(sample, data, seed):
    """D_ui D_uj g~ = 0 for the sampled shifts, with g~ from the base's
    spectrum, so f~ = g~ + F(D_u1 g~, ...): the dual read from f's own
    spectrum.  This certifies the samplers' closed-form shift tests."""
    pair, _ = sample(data, random.Random(seed))
    dom = pair.f.domain
    gdual = bf.dual(bf.walsh(pair.base)).bits
    for ui, uj in itertools.combinations(pair.shifts, 2):
        d = gdual ^ translate(gdual, dom.n, ui)  # D_ui g~
        assert d == translate(d, dom.n, uj)      # D_uj D_ui g~ = 0
    fdual = bf.dual(bf.walsh(pair.f)).bits
    rebuilt = cx._shifted(dom, pair.base.bits, gdual, pair.shifts)(
        pair.poly, pair.notes)
    assert rebuilt.f == pair.f
    assert rebuilt.predicted_dual.bits == fdual
    if pair.predicted_dual is not None:
        assert pair.predicted_dual.bits == fdual


@PAIR_SAMPLERS
@settings(max_examples=20)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_packed_master_identity_matches_the_pointwise_oracle(sample, data,
                                                            seed):
    """True on the real pair; False, as the oracle says, when f has one bit
    flipped, when F's constant monomial is toggled, and when one shift
    moves so that f would change (no move does when F is constant)."""
    rng = random.Random(seed)
    pair, _ = sample(data, rng)
    dom, F = pair.f.domain, pair.poly
    flip = rng.randrange(dom.size)
    tampered = [
        pair._replace(f=bf.TruthTable(dom, pair.f.bits ^ (1 << flip))),
        pair._replace(poly=F + mp.poly(F.tau, 0)),
    ]
    real = mp.compose_traces(dom, F, pair.shifts)
    moves = [(i, v) for i in range(F.tau) for v in range(1, dom.size)]
    for i, v in rng.sample(moves, len(moves)):
        shifts = list(pair.shifts)
        shifts[i] ^= v
        if shifts[i] and mp.compose_traces(dom, F, shifts) != real:
            tampered.append(pair._replace(shifts=tuple(shifts)))
            break
    assert len(tampered) == 3 or pw.monomials(F) <= {0}
    assert vf.master_identity_holds(pair)
    assert pw.master_identity_holds(pair)
    for bad in tampered:
        assert not vf.master_identity_holds(bad)
        assert not pw.master_identity_holds(bad)


def spectrum_dual(base) -> int:
    return bf.dual(bf.walsh(base)).bits


def row_holds(row, u: int, v: int) -> bool:
    """The samplers' and _shifted's pair test on the family's row."""
    return not pw.parity(row(u) & v)


@settings(max_examples=20)
@given(fields(max_n=10, min_n=4, step=2), st.integers(0, 2**32 - 1))
def test_kasami_pair_predicate_is_the_table_condition(field, seed):
    rng = random.Random(seed)
    for lam in field.subfield()[1:]:
        gdual = spectrum_dual(pw.kasami_base(field, lam))
        row = cx._kasami_row(field, field.inv(lam))  # mu = lambda^-1
        for _ in range(4):
            u, v = rng.randrange(field.size), rng.randrange(field.size)
            assert (row_holds(row, u, v)
                    == pw.table_condition(gdual, field.n, u, v))


@settings(max_examples=20)
@given(fields(max_n=8, min_n=4, step=4), st.integers(0, 2**32 - 1))
def test_gold_pair_predicate_is_the_table_condition(field, seed):
    rng = random.Random(seed)
    k = field.n // 4
    lam = rng.choice([z for z in range(field.size)
                      if z ^ field.frob(z, 3 * k) == 1])
    gdual = spectrum_dual(cx.gold_like(field, lam, [1], mp.poly(1, 1)).base)
    row = cx._gold_row(field, lam)
    for _ in range(40):
        u, v = rng.randrange(field.size), rng.randrange(field.size)
        assert row_holds(row, u, v) == pw.table_condition(gdual, field.n, u, v)


@settings(max_examples=20)
@given(fields(max_n=5, min_n=2), st.integers(0, 2**32 - 1))
def test_mm_linear_pair_predicate_is_the_table_condition(K, seed):
    rng = random.Random(seed)
    m = K.n
    rows = sp.random_invertible(m, rng)
    b = rng.randrange(K.size)
    base = cx.mm_linear(K, rows, b, [(1, 0)], mp.poly(1, 1)).base
    gdual = spectrum_dual(base)
    row = cx._mm_linear_row(K, invert(transpose(rows)))
    for _ in range(40):
        u, v = rng.randrange(base.domain.size), rng.randrange(base.domain.size)
        assert row_holds(row, u, v) == pw.table_condition(gdual, 2 * m, u, v)


@settings(max_examples=20)
@given(fields(max_n=5, min_n=1), st.integers(0, 2**32 - 1))
def test_mm_monomial_pair_predicate_is_the_table_condition(K, seed):
    rng = random.Random(seed)
    m = K.n
    s = rng.choice([s for s in range(1, m + 1)
                    if m % s == 0 and (m // s) % 2 == 1])
    base = cx.mm_monomial(K, s, [(1, 0)], mp.poly(1, 1)).base
    gdual = spectrum_dual(base)
    row = cx._mm_monomial_row(K)
    sub = [y for y in range(K.size) if K.frob(y, s) == y]
    for _ in range(40):
        u1, u2, v1, v2 = (rng.choice(sub) for _ in range(4))
        u, v = (u1 << m) | u2, (v1 << m) | v2
        assert row_holds(row, u, v) == pw.table_condition(gdual, 2 * m, u, v)


# Spec keys with values of their own shape; near misses of that shape
# (and any JSON at all) stand in for one key of every other document.
_hexes = st.integers(-5, 1 << 12).map(
    lambda v: f"0x{v:x}" if v >= 0 else f"-0x{-v:x}")
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats()
    | st.text(max_size=4) | _hexes,
    lambda inner: st.lists(inner, max_size=4), max_leaves=12)
_bits = st.lists(st.integers(0, 1), max_size=4)


def _matrices(rows: int, cols: int, top: int):
    return st.lists(st.lists(st.integers(0, top), min_size=cols,
                             max_size=cols), min_size=rows, max_size=rows)


_ints = st.integers(-2, 20)
_not_ints = st.booleans() | st.floats() | st.sampled_from(["6", "0x6"])
_spec_shapes = {  # key: (shape, near miss)
    "n": (_ints, _not_ints), "eps": (_ints, _not_ints),
    "k": (_ints, _not_ints), "s": (_ints, _not_ints),
    "mod": (_hexes, _ints), "lambda": (_hexes, _ints), "b": (_hexes, _ints),
    "c": (_bits, st.lists(st.integers(-1, 3) | st.booleans(), max_size=4)),
    "pi": (st.integers(0, 4).flatmap(lambda m: _matrices(m, m, 1)),
           st.integers(1, 3).flatmap(lambda m: _matrices(m, m + 1, 2))),
    "u": (st.lists(_hexes, max_size=3)
          | st.lists(st.lists(_hexes, min_size=2, max_size=2), max_size=3),
          st.lists(_hexes | st.lists(_hexes, max_size=3), max_size=3)
          | st.text(max_size=3)),
    "F": (st.sampled_from(["X1", "X1*X2+1", "0", "X9"]), _ints),
}


@st.composite
def spec_docs(draw):
    """A family's spec, each optional key of it present or not; in half of
    them one key (of any family) is dropped, given a near miss of its
    shape, or given any JSON value."""
    family = draw(st.sampled_from(sorted(sp.FAMILIES)))
    record = sp.FAMILIES[family]
    doc = {"family": family}
    for key, (shape, _) in _spec_shapes.items():
        if key in ("n",) + record.fields or (
                key in ("mod",) + record.optional and draw(st.booleans())):
            doc[key] = draw(shape)
    if draw(st.booleans()):
        key = draw(st.sampled_from(["family", "other", *_spec_shapes]))
        how = draw(st.sampled_from(["near", "near", "any", "drop"]))
        if how == "drop":
            doc.pop(key, None)
        elif how == "near" and key in _spec_shapes:
            doc[key] = draw(_spec_shapes[key][1])
        else:
            doc[key] = draw(_json_values)
    return doc


@settings(max_examples=400)
@given(spec_docs())
def test_spec_json_round_trips_or_is_refused(doc):
    try:
        spec = sp.spec_from_json(json.dumps(doc))
    except BentkitError:
        return
    text = sp.spec_to_json(spec)
    assert sp.spec_from_json(text) == spec
    assert sp.spec_to_json(sp.spec_from_json(text)) == text


_header_tokens = st.sampled_from(
    ["n=4", "n=6", "n=-4", "n=0", "n=29", "n=x", "n=", "mod=0x13",
     "mod=0x43", "mod=-0x13", "mod=0x1f", "mod=0", "mod=zz", "mod=",
     "grid=xy", "grid=yx", "xy", "n=2", "mod=0x7"]) | st.text(max_size=6)


@settings(max_examples=400)
@given(st.lists(_header_tokens, max_size=4),
       st.sampled_from(["", "00", "0000", "ffff", "zz", "0" * 16, "1"])
       | st.text(alphabet="0123456789abcdefx ", max_size=20),
       st.sampled_from(["BF ", "BF", "bf ", ""]), st.booleans())
@example(["n=4", "mod=-0x13"], "0000", "BF ", False)
@example(["n=8", "mod=-0x13", "grid=xy"], "0" * 64, "BF ", False)
@example(["n=4", "mod=0x13"], "ffff", "BF ", False)
def test_tt_text_parses_or_is_refused(tokens, payload, magic, extra_line):
    text = magic + " ".join(tokens) + "\n" + payload + "\n"
    if extra_line:
        text += "00\n"
    try:
        f = bf.parse_tt(text)
    except BentkitError:
        return
    assert bf.parse_tt(bf.format_tt(f)) == f


@pytest.mark.parametrize("text", [
    "BF n=2 mod=0x7\nff\n",
    "BF n=1 mod=0x3\n04\n",
    "BF n=2 mod=0x3 grid=xy\n10\n",
])
def test_tt_payload_bits_beyond_the_table_are_refused(text):
    """Below n = 3 the payload byte has room for bits past index 2^n."""
    with pytest.raises(FieldMismatch, match="at or above index"):
        bf.parse_tt(text)
