import hashlib
import itertools
import math
import random
import tracemalloc
from functools import lru_cache

import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import constructions as cx
from bentkit import multipoly as mp
from bentkit import specs as sp
from bentkit.errors import (
    ArityMismatch,
    BadDimension,
    BadDivisor,
    BadLambda,
    BadSpec,
    BaseNotBent,
    BentkitError,
    GcdViolated,
    LambdaConstraintViolated,
    NoModularInverse,
    NoSolution,
    NotIndependent,
    NotInSubfield,
    NotNormal,
    NotRotationSymmetric,
    PreconditionViolated,
    SingularPermutation,
    ZeroCoefficient,
)
from bentkit.gf2n import (
    BivariateDomain,
    apply_linear,
    default_modulus,
    invert,
    is_irreducible,
    make_field,
    rank,
    transpose,
)
from bentkit.verify import master_identity_holds


def subfield_units(field):
    return [y for y in field.subfield() if y]


def subfield_basis(field, count):
    basis = []
    for y in subfield_units(field):
        if rank(basis + [y]) == len(basis) + 1:
            basis.append(y)
        if len(basis) == count:
            return basis
    raise AssertionError("subfield too small")


def assert_bent_with_dual(pair):
    spec = bf.walsh(pair.f)
    assert bf.is_bent(spec), pair.notes
    if pair.predicted_dual is not None:
        assert bf.dual(spec).bits == pair.predicted_dual.bits, pair.notes
    return spec


# ---------------------------------------------------------------------------
# Kasami family
# ---------------------------------------------------------------------------

def test_kasami_general_single_shift_always_valid():
    field = make_field(6)
    pair = cx.kasami_general(field, 1, [0b100101 % field.size or 5],
                             mp.poly(1, 0b1))
    assert_bent_with_dual(pair)


def test_kasami_general_m2_subfield_basis():
    field = make_field(4)
    us = subfield_basis(field, 2)
    pair = cx.kasami_general(field, 1, us, mp.poly(2, 0b11))
    spec = assert_bent_with_dual(pair)
    assert spec.extrema() == (4, 4)


def test_kasami_general_f_zero_reduces_to_base():
    field = make_field(6)
    lam = subfield_units(field)[3]
    pair = cx.kasami_general(field, lam, [1], mp.poly(1))
    assert pair.f.bits == pw.kasami_base(field, lam).bits
    # the closed-form dual is the inverse-coefficient base plus one
    expected = bf.add_const(pw.kasami_base(field, pw.power(field, lam, -1)), 1)
    assert pair.predicted_dual.bits == expected.bits
    assert_bent_with_dual(pair)


def test_kasami_general_random_lambdas_dual_matches():
    rng = random.Random(20)
    for n in (4, 6, 8):
        field = make_field(n)
        for _ in range(3):
            lam = rng.choice(subfield_units(field))
            tau = rng.randint(1, field.m)
            us = sp.kasami_valid_us(field, lam, tau, rng)
            pair = cx.kasami_general(field, lam, us,
                                     sp.random_poly(tau, rng))
            assert_bent_with_dual(pair)


def test_kasami_general_rejects_bad_parameters():
    field = make_field(6)
    with pytest.raises(BadLambda):
        cx.kasami_general(field, 0, [1], mp.poly(1, 1))
    outside = next(x for x in range(field.size)
                   if field.frob(x, 3) != x)
    with pytest.raises(BadLambda):
        cx.kasami_general(field, outside, [1], mp.poly(1, 1))
    # find a pair violating the trace condition
    lam = 1
    smask = field.subtrace_mask(1)
    for u2 in range(2, field.size):
        sym = (field.mul(field.frob(1, 3), u2)
               ^ field.mul(1, field.frob(u2, 3)))
        if (sym & smask).bit_count() & 1:
            with pytest.raises(PreconditionViolated):
                cx.kasami_general(field, lam, [1, u2], mp.poly(2, 0b11))
            break
    else:
        raise AssertionError("no violating pair found")
    with pytest.raises(ArityMismatch, match="tau=4 outside 1..3"):
        cx.kasami_general(field, 1, [field.find_normal()] * 4,
                          mp.poly(4, 0b1111))


def test_kasami_subfield_degree_three():
    field = make_field(6)
    us = subfield_basis(field, 3)
    pair = cx.kasami_subfield(field, 1, us, mp.poly(3, 0b111))
    assert_bent_with_dual(pair)
    assert bf.degree(pair.f) == 3


def test_kasami_subfield_quadratic_dominates_linear_f():
    field = make_field(6)
    us = subfield_basis(field, 2)
    pair = cx.kasami_subfield(field, 1, us, mp.poly(2, 0b01, 0b10))
    assert_bent_with_dual(pair)
    assert bf.degree(pair.f) == 2


def test_kasami_subfield_m2_dual_matches():
    field = make_field(4)
    us = subfield_basis(field, 2)
    for lam in subfield_units(field):
        pair = cx.kasami_subfield(field, lam, us, mp.poly(2, 0b11))
        assert_bent_with_dual(pair)


def test_kasami_subfield_rejections():
    field = make_field(6)
    outside = next(x for x in range(field.size)
                   if field.frob(x, 3) != x)
    with pytest.raises(NotInSubfield):
        cx.kasami_subfield(field, 1, [outside], mp.poly(1, 1))
    u = subfield_units(field)[0]
    with pytest.raises(NotIndependent):
        cx.kasami_subfield(field, 1, [u, u], mp.poly(2, 0b11))
    with pytest.raises(ZeroCoefficient, match="must be nonzero"):
        cx.kasami_subfield(field, 1, [u, 0], mp.poly(2, 0b11))


def test_kasami_idempotent_elementary_symmetric_ladder():
    for m in (2, 3, 4):
        field = make_field(2 * m)
        u = field.find_normal(0)
        for d in range(2, m + 1):
            pair = cx.kasami_idempotent(field, u,
                                        mp.elementary_symmetric(m, d))
            spec = assert_bent_with_dual(pair)
            assert bf.is_idempotent(pair.f)
            assert bf.degree(pair.f) == d
            assert bf.is_idempotent(bf.dual(spec))


def test_kasami_idempotent_rejections():
    field = make_field(6)
    with pytest.raises(NotNormal):
        cx.kasami_idempotent(field, 1, mp.elementary_symmetric(3, 2))
    u = field.find_normal(0)
    with pytest.raises(NotRotationSymmetric):
        cx.kasami_idempotent(field, u, mp.poly(3, 0b011))


def next_modulus(n):
    """The least irreducible degree-n modulus above the default one."""
    return next(p for p in range(default_modulus(n) + 2, 1 << (n + 1), 2)
                if is_irreducible(p))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_kasami_ladder_rungs_equal_kasami_idempotent(m):
    """The rungs d = 2..m built one after another through _differences' memo
    of the checked orbit are the pairs built from a cold memo, field by
    field."""
    n = 2 * m
    for field in (make_field(n), make_field(n, next_modulus(n))):
        for u in sorted({field.find_normal(seed) for seed in (0, 1, 7)}):
            es = [mp.elementary_symmetric(m, d) for d in range(2, m + 1)]
            rungs = [cx.kasami_idempotent(field, u, F) for F in es]
            for F, pair in zip(es, rungs):
                cx._differences.cache_clear()
                alone = cx.kasami_idempotent(field, u, F)
                assert pair._asdict() == alone._asdict()


def test_kasami_antiselfdual():
    field = make_field(6)
    pair = cx.kasami_antiselfdual(field, mp.poly(2, 0b11))
    spec = assert_bent_with_dual(pair)
    assert (bf.duality_class(pair.f, bf.dual(spec))
            == bf.DualityClass.ANTI_SELF_DUAL)
    # F = 0 leaves the base, itself anti-self-dual
    base_pair = cx.kasami_antiselfdual(field, mp.poly(2))
    assert base_pair.f.bits == pw.kasami_base(field, 1).bits
    assert_bent_with_dual(base_pair)


def test_kasami_antiselfdual_triple_sum_closure():
    rng = random.Random(31)
    field = make_field(8)
    m = 4
    Fs = [sp.random_poly(m - 1, rng) for _ in range(3)]
    pairs = [cx.kasami_antiselfdual(field, F) for F in Fs]
    total = bf.add(bf.add(pairs[0].f, pairs[1].f), pairs[2].f)
    direct = cx.kasami_antiselfdual(field, Fs[0] + Fs[1] + Fs[2])
    assert total.bits == direct.f.bits
    spec = bf.walsh(total)
    assert (bf.duality_class(total, bf.dual(spec))
            == bf.DualityClass.ANTI_SELF_DUAL)


# ---------------------------------------------------------------------------
# quadratic idempotents
# ---------------------------------------------------------------------------

def test_quad_idempotent_g_examples():
    field = make_field(6)
    m = 3
    kasami_like = cx.quad_idempotent_g(field, [0] * m + [1], 0)
    assert kasami_like.bits == pw.kasami_base(field, 1).bits
    const_one = cx.quad_idempotent_g(field, [0] * (m + 1), 1)
    assert const_one.bits == (1 << field.size) - 1
    assert not bf.is_bent(bf.walsh(const_one))
    rng = random.Random(44)
    for _ in range(10):
        c = [rng.randint(0, 1) for _ in range(m + 1)]
        g = cx.quad_idempotent_g(field, c, rng.randint(0, 1))
        assert bf.is_idempotent(g)


def test_is_quad_bent_gcd_examples():
    # m=2, c=(*,0,1): gcd(X^2, X^4+1) = 1
    assert cx.is_quad_bent_gcd([0, 0, 1])
    assert cx.is_quad_bent_gcd([1, 0, 1])  # c_0 never matters
    # c_m = 0 can never be bent
    assert not cx.is_quad_bent_gcd([0, 1, 0])
    assert not cx.is_quad_bent_gcd([1, 1, 1, 0])


@pytest.mark.parametrize("c", [(), (1,)])
def test_is_quad_bent_gcd_refuses_fewer_than_two_bits(c):
    message = f"need m\\+1 >= 2 coefficient bits, got {len(c)}"
    with pytest.raises(ArityMismatch, match=message):
        cx.is_quad_bent_gcd(c)


def test_is_quad_bent_gcd_power_of_two_case():
    # n = 8: the verdict collapses to c_m = 1
    m = 4
    for bits in range(1 << (m + 1)):
        c = [(bits >> i) & 1 for i in range(m + 1)]
        assert cx.is_quad_bent_gcd(c) == (c[m] == 1)


def test_quad_family():
    field = make_field(6)
    us = subfield_basis(field, 2)
    pair = cx.quad_family(field, [0, 1, 1, 1], 0, us, mp.poly(2, 0b11))
    assert pair.predicted_dual is None
    assert bf.is_bent(bf.walsh(pair.f))
    # the pure-Kasami coefficient vector reproduces the Kasami table
    k_pair = cx.quad_family(field, [0, 0, 0, 1], 0, us, mp.poly(2, 0b11))
    s_pair = cx.kasami_subfield(field, 1, us, mp.poly(2, 0b11))
    assert k_pair.f.bits == s_pair.f.bits


def test_quad_family_rejections():
    field = make_field(6)
    us = subfield_basis(field, 2)
    with pytest.raises(BaseNotBent):
        cx.quad_family(field, [0, 1, 0, 0], 0, us, mp.poly(2, 0b11))
    outside = next(x for x in range(field.size)
                   if field.frob(x, 3) != x)
    with pytest.raises(NotInSubfield):
        cx.quad_family(field, [0, 0, 0, 1], 0, [outside, us[0]],
                       mp.poly(2, 0b11))
    with pytest.raises(ZeroCoefficient, match="must be nonzero"):
        cx.quad_family(field, [0, 0, 0, 1], 0, [us[0], 0], mp.poly(2, 0b11))


@pytest.mark.parametrize("c", [[], [0, 0], [0, 1], [0, 0, 1, 1, 0]])
def test_quad_family_checks_the_length_of_c_before_the_gcd_test(c):
    """As quad_idempotent_g refuses c, whatever the gcd test would say."""
    field = make_field(6)
    us = subfield_basis(field, 2)
    message = f"need m\\+1=4 coefficient bits, got {len(c)}"
    with pytest.raises(ArityMismatch, match=message):
        cx.quad_idempotent_g(field, c)
    with pytest.raises(ArityMismatch, match=message):
        cx.quad_family(field, c, 0, us, mp.poly(2, 0b11))


def test_quad_idempotent_family_degree_ladder():
    rng = random.Random(50)
    for m in (3, 4):
        field = make_field(2 * m)
        while True:
            c = [rng.randint(0, 1) for _ in range(m + 1)]
            if cx.is_quad_bent_gcd(c):
                break
        u = field.find_normal(1)
        for d in range(2, m + 1):
            pair = cx.quad_idempotent_family(
                field, c, 0, u, mp.elementary_symmetric(m, d))
            assert bf.is_bent(bf.walsh(pair.f))
            assert bf.is_idempotent(pair.f)
            assert bf.degree(pair.f) == d


# ---------------------------------------------------------------------------
# Gold-like family
# ---------------------------------------------------------------------------

def test_gold_like_base_self_dual():
    for k in (1, 2):
        field = make_field(4 * k)
        lam = field.solve_semilinear(3 * k, 1)
        assert lam ^ field.frob(lam, 3 * k) == 1
        pair = cx.gold_like(field, lam, [1], mp.poly(1))
        spec = assert_bent_with_dual(pair)
        assert bf.dual(spec).bits == pair.f.bits


def test_gold_like_with_linear_f():
    field = make_field(4)
    lam = field.solve_semilinear(3, 1)
    for u in range(1, field.size):
        pair = cx.gold_like(field, lam, [u], mp.poly(1, 0b1))
        assert_bent_with_dual(pair)


def test_gold_like_pair_search_at_k2():
    rng = random.Random(60)
    field = make_field(8)
    lam = field.solve_semilinear(6, 1)
    us = sp.gold_valid_us(field, lam, 2, rng)
    pair = cx.gold_like(field, lam, us, mp.poly(2, 0b11, 0b01))
    assert_bent_with_dual(pair)


def test_gold_like_rejections():
    with pytest.raises(BadDimension):
        cx.gold_like(make_field(6), 1, [1], mp.poly(1, 1))
    field = make_field(4)
    with pytest.raises(LambdaConstraintViolated):
        cx.gold_like(field, 0, [1], mp.poly(1, 1))
    lam = field.solve_semilinear(3, 1)
    tmask = field.trace_mask(1)
    for u2 in range(2, field.size):
        sym = field.mul(field.frob(1, 1), u2) ^ field.mul(1, field.frob(u2, 1))
        if (field.mul(lam, sym) & tmask).bit_count() & 1:
            with pytest.raises(PreconditionViolated):
                cx.gold_like(field, lam, [1, u2], mp.poly(2, 0b11))
            break
    else:
        raise AssertionError("no violating pair found")


@pytest.mark.parametrize("n, build", [
    (6, lambda field, us, F: cx.kasami_general(field, 1, us, F)),
    (8, lambda field, us, F: cx.gold_like(
        field, field.solve_semilinear(6, 1), us, F)),
], ids=["KasamiGeneral", "GoldLike"])
def test_shifts_outside_the_field_are_a_value_error(n, build):
    """A shift below 0 or at 2^n is refused before any pair is judged."""
    field = make_field(n)
    for us in ([1 << n, 1], [1, 1 << n], [-1, 1], [1, -1]):
        with pytest.raises(ValueError):
            build(field, us, mp.poly(2, 0b11))


def test_differences_memo_keys_the_base_by_identity():
    """The memo hits on the cached base and misses on an equal copy, as a
    Base equals only itself; hashing one reads no table, so even a list in
    place of g hashes."""
    field = make_field(8)
    base, us = cx._kasami_base(field, 1), tuple(subfield_basis(field, 2))
    cx._differences.cache_clear()
    for b in (base, base, cx.Base(*base)):
        cx._differences(b, us)
    info = cx._differences.cache_info()
    assert (info.hits, info.misses) == (1, 2)
    assert cx.Base(*base) != base and not cx.Base(*base) == base
    hash(cx.Base(field, [], None, None))


def test_a_repeated_mm_monomial_build_reuses_its_base():
    """Its base is cached as the field bases are, so a second build hands
    _differences the same Base and its memo hits."""
    def build():
        return cx.mm_monomial(make_field(3), 1, [(1, 1)], mp.poly(1, 1))
    cx._differences.cache_clear()
    assert build() == build()
    assert cx._differences.cache_info().hits == 1


def _grid_pairs(count):
    """count independent pairs on the GF(2^3) grid, x halves first."""
    return [(1 << i, 0) if i < 3 else (0, 1 << i - 3) for i in range(count)]


# name: build(count, F) on inputs fit for the family but for F, at n = 8
# (m = 4) or on the GF(2^3) grid (m = 3), and the family's fixed shift
# count (None: count shifts)
ARITY_CASES = {
    "kasami_general": (lambda t, F: cx.kasami_general(
        make_field(8), 1, subfield_units(make_field(8))[:t], F), None),
    "kasami_subfield": (lambda t, F: cx.kasami_subfield(
        make_field(8), 1, subfield_basis(make_field(8), t), F), None),
    "kasami_idempotent": (lambda t, F: cx.kasami_idempotent(
        make_field(8), make_field(8).find_normal(), F), 4),
    "kasami_antiselfdual": (lambda t, F: cx.kasami_antiselfdual(
        make_field(8), F), 3),
    "quad_family": (lambda t, F: cx.quad_family(
        make_field(8), [0, 0, 0, 0, 1], 0,
        subfield_units(make_field(8))[:t], F), None),
    "quad_idempotent_family": (lambda t, F: cx.quad_idempotent_family(
        make_field(8), [0, 0, 0, 0, 1], 0, make_field(8).find_normal(), F),
        4),
    "gold_like": (lambda t, F: cx.gold_like(
        make_field(8), make_field(8).solve_semilinear(6, 1),
        subfield_units(make_field(8))[:t], F), None),
    "niho_family": (lambda t, F: cx.niho_family(
        make_field(8), 3, subfield_units(make_field(8))[:t], F), None),
    "mm_linear": (lambda t, F: cx.mm_linear(
        make_field(3), [1, 2, 4], 0, _grid_pairs(t), F), None),
    "mm_monomial": (lambda t, F: cx.mm_monomial(
        make_field(3), 3, _grid_pairs(t), F), None),
}


@pytest.mark.parametrize("name", sorted(ARITY_CASES))
def test_every_family_refuses_an_f_of_another_arity(name):
    """F needs one variable per shift, in every family, whatever else the
    family checks; the family itself builds with a fitting F."""
    build, fixed = ARITY_CASES[name]
    for count in ([fixed] if fixed else [1, 2]):
        build(count, mp.elementary_symmetric(count, 1))
        for tau in {count - 1, count + 1} - {0}:
            with pytest.raises(ArityMismatch, match=(
                    f"^F has {tau} variables but {count} shifts$")):
                build(count, mp.elementary_symmetric(tau, 1))


@pytest.mark.parametrize("name", ["gold_like", "kasami_general", "mm_linear",
                                  "mm_monomial", "niho_family", "quad_family"])
def test_every_family_bounds_tau_by_half_of_n(name):
    """n/2 + 1 shifts and an F of as many variables are refused at every
    family that admits that many shifts."""
    build, _ = ARITY_CASES[name]
    half = 3 if name.startswith("mm_") else 4
    with pytest.raises(ArityMismatch,
                       match=f"^tau={half + 1} outside 1..{half}$"):
        build(half + 1, mp.elementary_symmetric(half + 1, 1))


# ---------------------------------------------------------------------------
# Niho family
# ---------------------------------------------------------------------------

def test_niho_exponents_frozen_values():
    # single exponent (2^3-1) * inv(4) + 1 = 50 mod 63
    assert pw.niho_exponents(3, 2) == [50]
    assert pw.niho_exponents(3, 1) == []
    assert len(pw.niho_exponents(4, 3)) == 3


NIHO_SMALL = [(m, k) for m in range(2, 8) for k in range(1, m + 1)
              if math.gcd(k, m) == 1]


@pytest.mark.parametrize("m,k", NIHO_SMALL)
def test_niho_base_matches_the_per_exponent_sum(m, k):
    """The product form equals the sum of one trace per Niho exponent."""
    field = make_field(2 * m)
    assert cx.niho_g(field, k).bits == pw.niho_base(field, k)


# sha256 prefixes of the m = 8 bases, from the per-exponent sum
NIHO_M8 = {1: "b4812884fd6a511d", 3: "860652ec379df599",
           5: "ba098157aea67442", 7: "90a57be830f9133d"}


def test_niho_bases_at_m8_for_every_k():
    field = make_field(16)
    ks = [k for k in range(1, 9) if math.gcd(k, 8) == 1]
    assert ks == sorted(NIHO_M8)
    for k in ks:
        bits = cx.niho_g(field, k).bits
        digest = hashlib.sha256(bits.to_bytes(field.size // 8, "little"))
        assert digest.hexdigest()[:16] == NIHO_M8[k], k


def test_niho_k1_reduces_to_norm_base():
    field = make_field(6)
    assert cx.niho_g(field, 1).bits == pw.kasami_base(field, 1).bits


@pytest.mark.parametrize("m,k", [(3, 1), (3, 2), (4, 3), (8, 1), (8, 3),
                                 (8, 5), (8, 7), (10, 9)])
def test_niho_base_and_cited_dual(m, k):
    field = make_field(2 * m)
    g = cx.niho_g(field, k)
    spec = bf.walsh(g)
    assert bf.is_bent(spec)
    assert bf.dual(spec).bits == cx.niho_dual_g(field, k).bits


def test_niho_family_dual_and_reduction():
    field = make_field(6)
    us = subfield_basis(field, 2)
    pair = cx.niho_family(field, 2, us, mp.poly(2, 0b11))
    assert_bent_with_dual(pair)
    trivial = cx.niho_family(field, 2, [us[0]], mp.poly(1))
    assert trivial.f.bits == cx.niho_g(field, 2).bits


def test_niho_normal_orbit_gives_idempotent():
    field = make_field(6)
    u = field.find_normal(0)
    orbit = [field.frob(u, i) for i in range(3)]
    pair = cx.niho_family(field, 2, orbit,
                          mp.rotation_closure(0b011, 3))
    assert_bent_with_dual(pair)
    assert bf.is_idempotent(pair.f)


def test_niho_rejections():
    field = make_field(8)
    with pytest.raises(GcdViolated):
        cx.niho_g(field, 2)  # gcd(2, 4) != 1
    field6 = make_field(6)
    outside = next(x for x in range(field6.size)
                   if field6.frob(x, 3) != x)
    with pytest.raises(NotInSubfield):
        cx.niho_family(field6, 2, [outside], mp.poly(1, 1))
    with pytest.raises(ZeroCoefficient, match="must be nonzero"):
        cx.niho_family(field6, 2, [0], mp.poly(1, 1))


# ---------------------------------------------------------------------------
# Maiorana-McFarland families
# ---------------------------------------------------------------------------

def test_bivariate_index_roundtrip():
    for m in (2, 3, 5):
        base = make_field(m)
        dom = BivariateDomain(base)
        for x in range(base.size):
            for y in range(base.size):
                assert dom.split((x << m) | y) == (x, y)


def test_mat_invert_roundtrip():
    rng = random.Random(70)
    for m in (2, 3, 5):
        rows = sp.random_invertible(m, rng)
        inv = invert(rows)
        for y in range(1 << m):
            assert pw.pullback_mask(inv, pw.pullback_mask(rows, y)) == y
            assert apply_linear(invert(transpose(rows)),
                                apply_linear(transpose(rows), y)) == y
    with pytest.raises(SingularPermutation):
        invert((1, 1))


def test_mm_linear_identity_pi():
    identity = (1, 2)
    pair = cx.mm_linear(make_field(2), identity, 0, [(1, 0)], mp.poly(1, 0b1))
    assert_bent_with_dual(pair)


def test_mm_linear_classic_base_dual():
    # pi = identity, F = 0: dual of Tr(xy) + Tr(by) is Tr(yx) + Tr(bx)
    m = 2
    base = make_field(m)
    dom = BivariateDomain(base)
    b = 0x2
    pair = cx.mm_linear(base, (1, 2), b, [(1, 0)], mp.poly(1))
    expected = pw.from_bits(dom, [
        pw.trace_abs(base, base.mul(y, x) ^ base.mul(b, x))
        for i in range(dom.size)
        for x, y in [dom.split(i)]])
    assert pair.predicted_dual.bits == expected.bits
    assert_bent_with_dual(pair)


def test_mm_linear_random_parameters():
    rng = random.Random(80)
    for m in (2, 3):
        for _ in range(3):
            tau = rng.randint(1, 2)
            rows, b, pairs = sp.mm_linear_params(make_field(m), tau, rng)
            pair = cx.mm_linear(make_field(m), rows, b, pairs,
                                sp.random_poly(tau, rng))
            assert_bent_with_dual(pair)


def test_mm_linear_refuses_a_row_of_pi_outside_the_field(monkeypatch):
    """A bit beyond m, or a negative row, is refused before B is built; it
    used to be truncated into another pi (0b1001 -> the identity's row)."""
    def unexpected(*args):
        raise AssertionError("built the polar matrix")
    monkeypatch.setattr(cx, "_quadratic", unexpected)
    for pi in ([0b1001, 0b010, 0b100], [-1, 0b010, 0b100]):
        with pytest.raises(SingularPermutation, match="pi must be 3x3"):
            cx.mm_linear(make_field(3), pi, 0, [(1, 0)], mp.poly(1, 1))


def test_mm_linear_rejections():
    with pytest.raises(SingularPermutation):
        cx.mm_linear(make_field(2), (1, 1), 0, [(1, 0)], mp.poly(1, 1))
    with pytest.raises(NotIndependent):
        cx.mm_linear(make_field(2), (1, 2), 0, [(1, 0), (1, 0)],
                     mp.poly(2, 0b11))
    # engineered condition violation: pi = identity, pairs (1,0) and (0,1)
    # give Tr(1*1 + 0) = Tr(1) = 1 on GF(2^2) ... trace of 1 is 0 for m=2,
    # so use m=3 pairs ((1,1),(0,1)): t = 1*pi^-1(0)+1*pi^-1(1) = 1, Tr(1)=1
    with pytest.raises(PreconditionViolated):
        cx.mm_linear(make_field(3), (1, 2, 4), 0, [(1, 1), (0, 1)],
                     mp.poly(2, 0b11))
    # a coordinate beyond GF(2^2) must not spill into the pair index
    for pair in ((0, 5), (4, 0), (-1, 1)):
        with pytest.raises(ValueError):
            cx.mm_linear(make_field(2), (1, 2), 0, [pair], mp.poly(1, 1))


def test_mm_monomial_exponents_frozen():
    assert cx.monomial_inverse_exponent(1, 1) == 1   # every d, and y^1 permutes
    assert cx.monomial_inverse_exponent(3, 1) == 5   # 3d = 1 mod 7
    assert cx.monomial_inverse_exponent(2, 2) == 2   # 5d = 1 mod 3
    assert (cx.monomial_inverse_exponent(4, 4) * 17) % 15 == 1
    with pytest.raises(NoModularInverse,
                       match=r"2\^1\+1 is not invertible mod 2\^4-1"):
        cx.monomial_inverse_exponent(4, 1)


def test_mm_monomial_single_pair():
    for (m, s) in [(1, 1), (2, 2), (3, 1), (3, 3)]:
        pair = cx.mm_monomial(make_field(m), s, [(1, 0)], mp.poly(1, 0b1))
        assert bf.is_bent(bf.walsh(pair.f))
        assert pair.predicted_dual is None


def test_mm_monomial_searched_pairs():
    rng = random.Random(90)
    for (m, s) in [(2, 2), (3, 3)]:
        pairs = sp.mm_monomial_pairs(make_field(m), s, 2, rng)
        pair = cx.mm_monomial(make_field(m), s, pairs, sp.random_poly(2, rng))
        assert bf.is_bent(bf.walsh(pair.f))


# ---------------------------------------------------------------------------
# shift draws: uniform on the kernel of the picked rows
# ---------------------------------------------------------------------------

def _sizes(family: str, top: int):
    """(m, s) of every admissible size m <= top of a family's shift
    sampler, s the MMMonomial subfield degree (else None).  s or m shifts
    is the most the samplers ask for, and where the shifts must be
    independent, the most that fit: they lie in GF(2^m), or span an
    isotropic space of the nondegenerate pair form on 2m dimensions (2s
    for MMMonomial)."""
    if family == "MMMonomial":
        return [(m, s) for m in range(1, top + 1) for s in range(1, m + 1)
                if m % s == 0 and (m // s) % 2]
    if family == "GoldLike":
        return [(m, None) for m in range(2, top + 1, 2)]
    return [(m, None) for m in range(1 if family == "MMLinear" else 2,
                                     top + 1)]


@lru_cache(maxsize=None)
def _base_dual(family: str, K, param) -> int:
    """The base dual g~ of one family instance, read from its spectrum."""
    F = mp.poly(1, 1)
    if family == "MMLinear":
        base = cx.mm_linear(K, *param, [(1, 0)], F).base
    elif family == "MMMonomial":
        base = cx.mm_monomial(K, param, [(1, 0)], F).base
    elif family == "GoldLike":
        base = cx.gold_like(K, param, [1], F).base
    else:
        base = pw.kasami_base(K, param)
    return bf.dual(bf.walsh(base)).bits


def _draw_shifts(family: str, K, param, tau: int, rng):
    """(shift indices, g~) of one call of the family's shift sampler: param
    is lambda, or s for MMMonomial; MMLinear draws its own (pi, b)."""
    if family.startswith("Kasami"):
        us = sp.kasami_valid_us(K, param, tau, rng,
                                subfield_only=family == "KasamiSubfield")
        return us, _base_dual("Kasami", K, param)
    if family == "GoldLike":
        return sp.gold_valid_us(K, param, tau, rng), _base_dual(family, K,
                                                                 param)
    if family == "MMLinear":
        rows, b, pairs = sp.mm_linear_params(K, tau, rng)
        param = (rows, b)
    else:
        pairs = sp.mm_monomial_pairs(K, param, tau, rng)
    return ([(x << K.n) | y for x, y in pairs],
            _base_dual(family, K, param))


def _shift_domain(family: str, K, param):
    """The indices a shift may take, and whether picks must be independent."""
    if family in ("KasamiGeneral", "GoldLike"):
        return range(1, K.size), False
    if family == "KasamiSubfield":
        return K.subfield()[1:], True
    if family == "MMLinear":
        return range(1, K.size * K.size), True
    sub = [y for y in range(K.size) if K.frob(y, param) == y]
    return [(x << K.n) | y for x in sub for y in sub if x or y], True


def _fits(family: str, K, param, gdual: int, picked, v: int) -> bool:
    """v may follow the picks: in the domain, new (independent if the
    family needs it) and D_u D_v g~ = 0 on the table for each pick u."""
    domain, indep = _shift_domain(family, K, param)
    n = K.n * (2 if family.startswith("MM") else 1)
    return (v in domain
            and (rank(picked + [v]) > len(picked) if indep
                 else v not in picked)
            and all(pw.table_condition(gdual, n, u, v) for u in picked))


def _param(family: str, K, rng, s):
    """A random lambda for the Kasami and Gold-like samplers, else s."""
    if family.startswith("Kasami"):
        return rng.choice(subfield_units(K))
    if family == "GoldLike":
        return rng.choice([z for z in range(K.size)
                           if z ^ K.frob(z, 3 * K.n // 4) == 1])
    return s


SHIFT_SAMPLERS = ("KasamiGeneral", "KasamiSubfield", "GoldLike", "MMLinear",
                  "MMMonomial")


def _field_of(family: str, m: int):
    return make_field(m if family.startswith("MM") else 2 * m)


@pytest.mark.parametrize("family", SHIFT_SAMPLERS)
def test_every_shift_sampler_passes_the_table_oracle(family):
    """At every admissible m <= 6 each pick fits the picks before it on
    the base dual's table.  An independent draw of one shift more than
    fit raises NoSolution: at s = 1 no two pairs of GF(2)^2 fit."""
    for m, s in _sizes(family, 6):
        K = _field_of(family, m)
        most = s or m
        for seed in range(3):
            rng = random.Random(f"{family} {m} {seed}")
            param = _param(family, K, rng, s)
            for tau in range(1, most + 1):
                us, gdual = _draw_shifts(family, K, param, tau, rng)
                assert len(us) == tau
                for i, v in enumerate(us):
                    assert _fits(family, K, param, gdual, us[:i], v), (
                        family, m, s, us)
            if _shift_domain(family, K, param)[1]:
                with pytest.raises(NoSolution):
                    _draw_shifts(family, K, param, most + 1, rng)


class _Redraw(Exception):
    """The scripted rng has run out: the sampler asked for a redraw."""


class _Scripted(random.Random):
    """getrandbits gives the scripted values in turn and then raises
    _Redraw; with no script it draws from the seed and records its
    values.  random.Random routes randrange through getrandbits too."""

    def __init__(self, seed=0, script=None):
        super().__init__(seed)
        self.script, self.values, self.widths = script, [], []

    def getrandbits(self, k):
        self.widths.append(k)
        if self.script is None:
            value = super().getrandbits(k)
        elif len(self.values) < len(self.script):
            value = self.script[len(self.values)]
        else:
            raise _Redraw
        self.values.append(value)
        return value


@pytest.mark.parametrize("family", SHIFT_SAMPLERS)
def test_each_pick_is_uniform_on_the_admissible_shifts(family):
    """Every first draw value of the last pick, in turn, is accepted or
    redrawn; the accepted picks are the admissible shifts, read by
    brute force on the table, each exactly once.  So each admissible
    shift is equally likely, at every n <= 8."""
    for m, s in _sizes(family, 4):
        K = _field_of(family, m)
        for tau, seed in itertools.product(
                range(1, (s or m) + 1), range(2)):
            rng = random.Random(f"{family} {m} {tau} {seed}")
            param = _param(family, K, rng, s)
            before = _Scripted(seed)
            picked, gdual = _draw_shifts(family, K, param, tau - 1, before)
            probe = _Scripted(script=before.values)
            with pytest.raises(_Redraw):
                _draw_shifts(family, K, param, tau, probe)
            accepted = []
            for value in range(1 << probe.widths[-1]):
                try:
                    us, _ = _draw_shifts(family, K, param, tau, _Scripted(
                        script=before.values + [value]))
                except _Redraw:
                    continue
                assert us[:-1] == picked
                accepted.append(us[-1])
            domain = _shift_domain(family, K, param)[0]
            assert sorted(accepted) == [
                v for v in domain
                if _fits(family, K, param, gdual, picked, v)], (
                family, m, s, picked)


# At n = 20 no sampler may hold a 2^n-bit table's worth of memory (at
# n = 24, a 2^24-bit one): each pair test reads row(u) off a matrix, for
# a quadratic base T B^-1 T from its polar matrix B, built from no table,
# so a sampler that builds its base or its dual fails.  A list of
# MMMonomial's 4^10 - 1 candidate pairs at s = 10 would come to about 320.
SAMPLER_TABLES_N20 = 1


@pytest.mark.parametrize("name", [
    *sp.FAMILIES, "MMMonomial s=10",
    "KasamiGeneral n=24", "GoldLike n=24", "MMLinear n=24"])
def test_samplers_at_n20_hold_a_bounded_number_of_tables(name):
    rng = random.Random(0)
    family, _, size = name.partition(" n=")
    n = int(size or 20)
    tracemalloc.start()
    try:
        if name == "MMMonomial s=10":
            sp.mm_monomial_pairs(make_field(10), 10, 2, rng)
        else:
            sp.FAMILIES[family].sample(n, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < SAMPLER_TABLES_N20 << (n - 3), f"{name}: {peak} bytes"


def test_mm_monomial_rejections():
    with pytest.raises(BadDivisor):
        cx.mm_monomial(make_field(4), 2, [(1, 0)], mp.poly(1, 1))  # m/s even
    with pytest.raises(BadDivisor):
        # s does not divide m
        cx.mm_monomial(make_field(3), 2, [(1, 0)], mp.poly(1, 1))
    with pytest.raises(PreconditionViolated):
        # (1, 0) and (0, 1) fail D_u D_v g~ = 0: Tr(1) = 1 at m = 3
        cx.mm_monomial(make_field(3), 3, [(1, 0), (0, 1)], mp.poly(2, 0b11))
    with pytest.raises(PreconditionViolated):
        # outside GF(2^s)
        cx.mm_monomial(make_field(3), 1, [(2, 0)], mp.poly(1, 1))


# ---------------------------------------------------------------------------
# spectrum identity across all families
# ---------------------------------------------------------------------------

def test_master_identity_every_family():
    rng = random.Random(100)
    field6 = make_field(6)
    us6 = subfield_basis(field6, 2)
    u_norm = field6.find_normal(0)
    gold_field = make_field(8)
    gold_lam = gold_field.solve_semilinear(6, 1)
    instances = [
        cx.kasami_general(field6, subfield_units(field6)[2],
                          sp.kasami_valid_us(
                              field6, subfield_units(field6)[2], 2, rng),
                          mp.poly(2, 0b11)),
        cx.kasami_subfield(field6, 1, us6, mp.poly(2, 0b11, 0b01)),
        cx.kasami_idempotent(field6, u_norm, mp.elementary_symmetric(3, 2)),
        cx.kasami_antiselfdual(field6, mp.poly(2, 0b11)),
        cx.quad_family(field6, [0, 1, 1, 1], 0, us6, mp.poly(2, 0b11)),
        cx.quad_idempotent_family(field6, [0, 1, 1, 1], 0, u_norm,
                                  mp.rotation_closure(0b011, 3)),
        cx.gold_like(gold_field, gold_lam,
                     sp.gold_valid_us(gold_field, gold_lam, 2, rng),
                     mp.poly(2, 0b11)),
        cx.niho_family(field6, 2, us6, mp.poly(2, 0b11)),
        cx.mm_linear(make_field(3),
                     *sp.mm_linear_params(make_field(3), 2, rng),
                     mp.poly(2, 0b11)),
        cx.mm_monomial(make_field(3), 1, [(1, 1)], mp.poly(1, 0b1)),
    ]
    for pair in instances:
        assert master_identity_holds(pair), pair.notes


# ---------------------------------------------------------------------------
# seeded samplers
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(sp.FAMILIES))
def test_every_sampler_draws_a_buildable_spec_in_one_pass(name):
    """No sampler gives up: each draw at every admissible size is a spec
    its family builds, and one size below the family's least is refused.
    GoldLike's size is k (n = 4k)."""
    record = sp.FAMILIES[name]
    if record.least > 1:
        with pytest.raises(PreconditionViolated):
            sp.build(record.sample(record.scale * (record.least - 1),
                                   random.Random(0)))
    for size in range(record.least, (2 if name == "GoldLike" else 6) + 1):
        for seed in range(40):
            spec = record.sample(record.scale * size, random.Random(seed))
            sp.build(spec)


def _registry_claims(spec, built) -> dict:
    """The claims the family registry stated, one rule per family, before
    each pair carried its own."""
    if spec.family == "QuadIdem":
        return {"bent": cx.is_quad_bent_gcd(spec.c), "idempotent": True}
    degree = max(2, built.poly.degree())
    if spec.family == "KasamiSubfield":
        return {"bent": True, "degree": degree}
    # QuadFamily expands one shift into its normal orbit: the idempotent
    if spec.family == "KasamiIdempotent" or (
            spec.family == "QuadFamily" and len(built.shifts) != len(spec.u)):
        return {"bent": True, "idempotent": True, "degree": degree}
    if spec.family == "KasamiAntiSelfDual":
        return {"bent": True, "duality": bf.DualityClass.ANTI_SELF_DUAL}
    return {"bent": True}


@pytest.mark.parametrize("name", sorted(sp.FAMILIES))
def test_each_pair_carries_the_claims_the_registry_stated(name):
    record = sp.FAMILIES[name]
    rng = random.Random(f"claims {name}")
    specs = [record.sample(record.scale * size, rng)
             for size in (range(1, 3) if name == "GoldLike" else range(2, 7))
             for _ in range(3)]
    if name == "QuadFamily":  # one normal element, F in m variables
        u = make_field(8).find_normal(0)
        specs += [sp.ConstructionSpec(name, 8, c=(1, 0, 0, 0, 1), u=(u,), F=F)
                  for F in ("X1*X2*X3+X2*X3*X4+X3*X4*X1+X4*X1*X2",
                            "X1+X2+X3+X4")]
    rules = []
    for spec in specs:
        built = sp.build(spec)
        rules.append(_registry_claims(spec, built))
        assert built.claims == bf.Expectation(**rules[-1]), spec
    if name == "QuadIdem":  # under a passing and a failing gcd test
        assert {rule["bent"] for rule in rules} == {True, False}
    if name == "QuadFamily":  # both branches of its build
        assert {"idempotent" in rule for rule in rules} == {True, False}


# ---------------------------------------------------------------------------
# spec serialization
# ---------------------------------------------------------------------------

def test_spec_roundtrip_every_shape():
    specs = [
        sp.ConstructionSpec(family="KasamiGeneral", n=6, mod=0x43, lam=0x7,
                            u=(1, 9), F="X1*X2"),
        sp.ConstructionSpec(family="KasamiAntiSelfDual", n=6, mod=0x43,
                            F="X1*X2"),
        sp.ConstructionSpec(family="QuadIdem", n=8, mod=0x11b,
                            c=(0, 1, 0, 0, 1), eps=1),
        sp.ConstructionSpec(family="GoldLike", n=8, mod=0x11b, k=2,
                            u=(3,), F="X1"),
        sp.ConstructionSpec(family="Niho", n=10, mod=0x409, k=3,
                            u=(5, 6), F="X1+X2"),
        sp.ConstructionSpec(family="MMLinear", n=6, mod=0xb,
                            pi=(1, 2, 4), b=0x5, u=((1, 0), (0, 1)),
                            F="X1*X2"),
        sp.ConstructionSpec(family="MMMonomial", n=6, mod=0xb, s=1,
                            u=((1, 1),), F="X1"),
    ]
    # every family, as its registry sampler draws it
    rng = random.Random(5)
    sampled = [record.sample(record.scale * size, rng)
               for record in sp.FAMILIES.values() for size in (2, 3)]
    assert {spec.family for spec in sampled} == set(sp.FAMILIES)
    for spec in specs + sampled:
        text = sp.spec_to_json(spec)
        again = sp.spec_from_json(text)
        assert again == spec
        assert sp.spec_to_json(again) == text
    for spec in sampled:
        built = sp.build(spec)
        again = sp.build(sp.spec_from_json(sp.spec_to_json(spec)))
        built, again = [(p.f, p.base, p.predicted_dual, p.notes)
                        for p in (built, again)]
        assert built == again


def test_build_dispatches_and_validates():
    field = make_field(6)
    us = subfield_basis(field, 2)
    spec = sp.ConstructionSpec(family="KasamiSubfield", n=6, mod=0x43,
                               lam=1, u=tuple(us), F="X1*X2")
    pair = sp.build(spec)
    assert_bent_with_dual(pair)

    quad = sp.build(sp.ConstructionSpec(family="QuadIdem", n=6, mod=0x43,
                                        c=(0, 0, 0, 1), eps=0))
    assert quad.f.bits == pw.kasami_base(field, 1).bits

    u_norm = field.find_normal(0)
    idem = sp.build(sp.ConstructionSpec(
        family="QuadFamily", n=6, mod=0x43, c=(0, 0, 0, 1), eps=0,
        u=(u_norm,), F="X1*X2+X2*X3+X1*X3"))
    assert bf.is_idempotent(idem.f)

    bad = sp.ConstructionSpec(family="Niho", n=8, mod=0x11b, k=2,
                              u=(1,), F="X1")
    with pytest.raises(GcdViolated):
        sp.build(bad)


def test_build_checks_the_size_rule_and_gold_k():
    gold = sp.ConstructionSpec(family="GoldLike", n=8, mod=0x11b, u=(3,),
                               F="X1")
    assert sp.build(gold).f == sp.build(gold._replace(k=2)).f
    with pytest.raises(BadSpec, match="GoldLike needs k = n/4 = 2"):
        sp.build(gold._replace(k=7))
    with pytest.raises(BadSpec, match="GoldLike needs n divisible by 4"):
        sp.build(gold._replace(n=6, mod=0x43))
    with pytest.raises(BentkitError):
        sp.build(gold._replace(n=-4, mod=None))


def test_build_refuses_an_unknown_family_listing_the_known_ones():
    spec = sp.ConstructionSpec(family="Gold", n=8, u=(3,), F="X1")
    with pytest.raises(BadSpec, match="unknown family 'Gold'; known: ") as exc:
        sp.build(spec)
    assert all(name in str(exc.value) for name in sp.FAMILIES)
