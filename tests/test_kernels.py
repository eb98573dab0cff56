"""Property tests: the packed-int kernels against the list oracles.

Random tables on fields with random irreducible moduli (n = 1..10, odd n
included) and on bivariate grids.  The oracles are the list transforms
fwht, mobius and walsh_naive, re-indexed point by point through
walsh_index and squaring_perm, and, for the bit-sliced constructors, the
per-point constructions in tests/pointwise.py.  Last, fuzzed spec JSON
must parse and round-trip, or be refused with a BentkitError.
"""

import json
import math
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

import pointwise as pw  # noqa: E402
from bentkit import boolfun as bf  # noqa: E402
from bentkit import constructions as cx  # noqa: E402
from bentkit.errors import (  # noqa: E402
    BentkitError,
    NoSolution,
    NotBent,
    OddDimension,
)
from bentkit.gf2n import (  # noqa: E402
    BivariateDomain,
    Field,
    is_irreducible,
    linear_planes,
    pull_linear,
    pullback_mask,
    rank,
    trace_planes,
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
    perm = domain.squaring_perm()
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
    raw = bf.fwht([1 - 2 * b for b in f.to_bitlist()])
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
    assert bf.WalshSpectrum.from_values(f.domain, old) == spec
    assert [spec.value(beta) for beta in range(f.domain.size)] == list(old)
    assert spec.parseval_holds()


@given(tables(max_n=6))
def test_walsh_matches_the_naive_definition(f):
    assert bf.walsh(f).values == bf.walsh_naive(f).values


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
    coeffs = bf.mobius(f.to_bitlist())
    poly = bf.anf(f)
    assert poly.coeffs == packed(coeffs)
    assert poly.monomials == frozenset(i for i, c in enumerate(coeffs) if c)
    assert poly.degree() == max(
        (i.bit_count() for i, c in enumerate(coeffs) if c), default=0)
    assert bf.degree(f) == poly.degree()
    assert bf.from_anf(f.domain, poly).bits == f.bits


@given(tables())
def test_idempotence_matches_the_squaring_permutation(f):
    perm = f.domain.squaring_perm()
    assert bf.is_idempotent(f) == all(
        f.bit(i) == f.bit(j) for i, j in enumerate(perm))


@given(domains(), st.data())
def test_index_maps_match_squaring_perm_and_walsh_index(dom, data):
    bits = data.draw(st.integers(0, (1 << dom.size) - 1))
    perm = dom.squaring_perm()
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
    with pytest.raises(ValueError):
        pull_linear(0b1011, [0b01, 0b01])


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
        field.pow(x, e) for x in va]
    k = data.draw(st.integers(0, 2 * n))
    c = data.draw(element)
    for cols, image in ((field.frob_map(k), lambda x: field.frob(x, k)),
                        (field.scale_map(c), lambda x: field.mul(c, x))):
        assert values_of(linear_planes(a, cols), size) == [
            image(x) for x in va]
        mask = data.draw(element)
        assert trace_planes(a, pullback_mask(cols, mask)) == packed(
            pw.parity(image(x) & mask) for x in va)


@given(fields(max_n=12, min_n=2, step=2))
def test_subfield_is_the_frobenius_fixed_set(field):
    assert field.subfield().members == tuple(
        y for y in range(field.size) if field.frob(y, field.m) == y)


def sample_kasami_general(data, rng, subfield_only=False):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    lam = rng.choice([y for y in field.subfield().members if y])
    tau = rng.randint(1, field.m)
    us = cx.kasami_valid_us(field, lam, tau, rng, subfield_only=subfield_only)
    F = cx.random_poly(tau, rng)
    if subfield_only:
        return (cx.kasami_subfield(field, lam, us, F),
                pw.kasami_subfield(field, lam, us, F))
    return (cx.kasami_general(field, lam, us, F),
            pw.kasami_general(field, lam, us, F))


def sample_kasami_idempotent(data, rng):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    u = field.find_normal(rng.randrange(1 << field.m), in_subfield=True)
    F = cx.random_rotsym_poly(field.m, rng)
    return (cx.kasami_idempotent(field, u, F),
            pw.kasami_idempotent(field, u, F))


def sample_kasami_antiselfdual(data, rng):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    F = cx.random_poly(field.m - 1, rng)
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
    us = rng.sample([y for y in field.subfield().members if y], tau)
    F = cx.random_poly(tau, rng)
    return (cx.quad_family(field, c, eps, us, F),
            pw.quad_family(field, c, eps, us, F))


def sample_gold_like(data, rng):
    field = data.draw(fields(max_n=8, min_n=4, step=4))
    lam = field.solve_semilinear(3 * (field.n // 4), 1)
    tau = rng.randint(1, field.n // 2)
    us = cx.gold_valid_us(field, lam, tau, rng)
    F = cx.random_poly(tau, rng)
    return cx.gold_like(field, lam, us, F), pw.gold_like(field, lam, us, F)


def sample_niho(data, rng):
    field = data.draw(fields(max_n=10, min_n=4, step=2))
    m = field.m
    k = rng.choice([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
    tau = rng.randint(1, m)
    us = rng.sample([y for y in field.subfield().members if y], tau)
    F = cx.random_poly(tau, rng)
    return cx.niho_family(field, k, us, F), pw.niho_family(field, k, us, F)


def sample_mm_linear(data, rng):
    base = data.draw(fields(max_n=5, min_n=2))
    m, mod = base.n, base.modulus
    tau = rng.randint(1, min(m, 3))
    rows, b, pairs = cx.mm_linear_params(m, tau, rng, modulus=mod)
    F = cx.random_poly(tau, rng)
    return (cx.mm_linear(m, rows, b, pairs, F, modulus=mod),
            pw.mm_linear(m, rows, b, pairs, F, modulus=mod))


def sample_mm_monomial(data, rng):
    base = data.draw(fields(max_n=5, min_n=1))
    m, mod = base.n, base.modulus
    s = rng.choice([s for s in range(1, m + 1)
                    if m % s == 0 and (m // s) % 2 == 1])
    tau = 1 if s == 1 else rng.randint(1, 2)
    pairs = cx.mm_monomial_pairs(m, s, tau, rng, modulus=mod)
    F = cx.random_poly(tau, rng)
    return (cx.mm_monomial(m, s, pairs, F, modulus=mod),
            pw.mm_monomial(m, s, pairs, F, modulus=mod))


@pytest.mark.parametrize("sample", [
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
@settings(max_examples=40)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_sliced_constructors_match_the_pointwise_oracle(sample, data, seed):
    try:
        pair, (f, base, dual) = sample(data, random.Random(seed))
    except NoSolution:
        assume(False)
    assert pair.f.bits == f
    assert pair.base.bits == base
    if dual is None:
        assert pair.predicted_dual is None
    else:
        assert pair.predicted_dual.bits == dual


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
    """A family's spec; in half of them one key is dropped, given a near
    miss of its shape, or given any JSON value."""
    family = draw(st.sampled_from(sorted(cx.FAMILIES)))
    needed = ("n",) + cx.FAMILIES[family].fields
    doc = {"family": family}
    for key, (shape, _) in _spec_shapes.items():
        if key in needed or draw(st.booleans()):
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
        spec = cx.spec_from_json(json.dumps(doc))
    except BentkitError:
        return
    text = cx.spec_to_json(spec)
    assert cx.spec_from_json(text) == spec
    assert cx.spec_to_json(cx.spec_from_json(text)) == text
