"""Acceptance suite: one test per criterion, every check integer-exact.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
live).  Randomized criteria are seeded, so reruns are bit-identical.
"""

import random
import time

import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import constructions as cx
from bentkit import multipoly as mp
from bentkit import specs as sp
from bentkit import verify as vf
from bentkit.gf2n import make_field


def _announce(num: int, ok: bool, desc: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def _spectrum_dual_matches(pair) -> bool:
    spec = bf.walsh(pair.f)
    return (bf.is_bent(spec)
            and pair.predicted_dual is not None
            and bf.dual(spec).bits == pair.predicted_dual.bits)


# ---------------------------------------------------------------------------
# 1. transform correctness
# ---------------------------------------------------------------------------

def test_criterion_01_transform_correctness():
    start = time.perf_counter()
    rng = random.Random(1)
    ok = True
    for n in (2, 4, 6):
        field = make_field(n)
        for _ in range(200):
            f = bf.TruthTable(field, rng.getrandbits(field.size))
            if bf.walsh(f).values != pw.walsh_naive(f).values:
                ok = False
    # Parseval on constructed instances, including n = 12 ones
    field12 = make_field(12)
    u12 = field12.find_normal(0)
    gold12 = make_field(12)
    field6 = make_field(6)
    basis6 = sp.kasami_valid_us(field6, 1, 3, rng, subfield_only=True)
    instances = [
        cx.kasami_subfield(field6, 1, basis6, mp.poly(3, 0b111)).f,
        cx.kasami_idempotent(field12, u12, mp.elementary_symmetric(6, 3)).f,
        cx.quad_idempotent_g(make_field(8), [0, 0, 0, 0, 1], 0),
        cx.gold_like(gold12, gold12.solve_semilinear(9, 1), [1],
                     mp.poly(1, 0b1)).f,
        cx.niho_family(make_field(10), 3,
                       [make_field(10).subfield()[3]],
                       mp.poly(1, 0b1)).f,
        cx.mm_linear(make_field(3), (1, 2, 4), 0x5, [(1, 0)],
                     mp.poly(1, 0b1)).f,
        cx.mm_monomial(make_field(3), 1, [(1, 1)], mp.poly(1, 0b1)).f,
    ]
    for f in instances:
        if not pw.parseval_holds(bf.walsh(f)):
            ok = False
    elapsed = time.perf_counter() - start
    _announce(1, ok and elapsed < 10,
              f"fast WHT = naive at n in {{2,4,6}} x200, Parseval exact "
              f"through n=12 ({elapsed:.1f}s < 10s)")


# ---------------------------------------------------------------------------
# 2 + 3. Kasami family sweep and the degree law
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def kasami_pool():
    """25 seeded valid parameter sets per m in {2,3,4,5}, mixed shapes."""
    rng = random.Random(2)
    start = time.perf_counter()
    general, subfield = [], []
    for m in (2, 3, 4, 5):
        field = make_field(2 * m)
        units = [y for y in field.subfield() if y]
        for trial in range(25):
            lam = rng.choice(units)
            tau = rng.randint(1, m)
            F = sp.random_poly(tau, rng)
            if trial % 2 == 0:
                us = sp.kasami_valid_us(field, lam, tau, rng,
                                        subfield_only=True)
                subfield.append((m, F, cx.kasami_subfield(field, lam, us, F)))
            else:
                us = sp.kasami_valid_us(field, lam, tau, rng)
                general.append((m, F, cx.kasami_general(field, lam, us, F)))
    return general, subfield, time.perf_counter() - start


def test_criterion_02_kasami_flat_spectra_and_duals(kasami_pool):
    general, subfield, build_time = kasami_pool
    start = time.perf_counter()
    ok = True
    for m, _F, pair in general + subfield:
        spec = bf.walsh(pair.f)
        flat = 1 << m
        if spec.extrema() != (flat, flat):
            ok = False
        if bf.dual(spec).bits != pair.predicted_dual.bits:
            ok = False
    elapsed = build_time + time.perf_counter() - start
    total = len(general) + len(subfield)
    _announce(2, ok and total == 100 and elapsed < 60,
              f"{total} Kasami instances (m=2..5): |W|=2^m everywhere, "
              f"predicted duals bit-exact ({elapsed:.1f}s < 60s)")


def test_criterion_03_degree_law(kasami_pool):
    _general, subfield, _t = kasami_pool
    ok = True
    for _m, F, pair in subfield:
        d = F.degree()
        expected = d if d >= 2 else 2
        if bf.degree(pair.f) != expected:
            ok = False
    _announce(3, ok,
              f"degree = max(2, deg F) on all {len(subfield)} "
              "independent-shift instances (zero tolerance)")


# ---------------------------------------------------------------------------
# 4. Carlet demonstrator
# ---------------------------------------------------------------------------

def test_criterion_04_carlet_degree_ladder():
    start = time.perf_counter()
    ok = True
    produced = 0
    for m in (3, 4, 5, 6):
        for entry in vf.demo_carlet(m, seed=0):
            produced += 1
            if not (entry.report.is_bent and entry.report.idempotent
                    and entry.report.degree == entry.d
                    and entry.dual_idempotent and entry.ok):
                ok = False
    elapsed = time.perf_counter() - start
    expected_count = sum(m - 1 for m in (3, 4, 5, 6))
    _announce(4, ok and produced == expected_count and elapsed < 300,
              f"bent idempotents of every degree 2..m for m=3..6, duals "
              f"idempotent ({elapsed:.1f}s < 300s)")


# ---------------------------------------------------------------------------
# 5. Mesnager demonstrator
# ---------------------------------------------------------------------------

def test_criterion_05_mesnager_triples():
    rng = random.Random(5)
    ok = True
    for m in (3, 4, 5):
        for _ in range(10):
            F1 = sp.random_poly(m - 1, rng)
            F2 = sp.random_poly(m - 1, rng)
            F3 = sp.random_poly(m - 1, rng)
            bundle = vf.demo_mesnager(m, F1, F2, F3)
            if not bundle.ok:
                ok = False
            if not all(r.duality == bf.DualityClass.ANTI_SELF_DUAL
                       for r in bundle.reports):
                ok = False
    _announce(5, ok,
              "10 seeded triples per m in {3,4,5}: f1, f2, f3 and their sum "
              "all anti-self-dual, sum equals the direct construction")


# ---------------------------------------------------------------------------
# 6. quadratic gcd criterion
# ---------------------------------------------------------------------------

def test_criterion_06_quad_gcd_exhaustive():
    ok = True
    for m in (2, 3, 4, 5):
        field = make_field(2 * m)
        for bits in range(1 << (m + 1)):
            c = [(bits >> i) & 1 for i in range(m + 1)]
            verdict = cx.is_quad_bent_gcd(c)
            actual = bf.is_bent(bf.walsh(cx.quad_idempotent_g(field, c, 0)))
            if verdict != actual:
                ok = False
            if m == 4 and verdict != (c[m] == 1):
                ok = False
    _announce(6, ok,
              "gcd verdict = WHT bentness for all 2^(m+1) coefficient "
              "vectors, m=2..5; n=8 collapses to c_m=1")


# ---------------------------------------------------------------------------
# 7. Gold-like family
# ---------------------------------------------------------------------------

def test_criterion_07_gold_like():
    rng = random.Random(7)
    ok = True
    for k in (1, 2, 3):
        field = make_field(4 * k)
        lam = field.solve_semilinear(3 * k, 1)
        if lam ^ field.frob(lam, 3 * k) != 1:
            ok = False
        base = cx.gold_like(field, lam, [1], mp.poly(1))
        base_spec = bf.walsh(base.f)
        if not (bf.is_bent(base_spec)
                and bf.dual(base_spec).bits == base.f.bits):
            ok = False  # base must be self-dual
        for _ in range(10):
            tau = rng.randint(1, min(2 * k, 4))
            us = sp.gold_valid_us(field, lam, tau, rng)
            pair = cx.gold_like(field, lam, us, sp.random_poly(tau, rng))
            if not _spectrum_dual_matches(pair):
                ok = False
    _announce(7, ok,
              "k=1..3 (n=4,8,12): lambda solves the semilinear constraint, "
              "base self-dual, 10 seeded sets per k bent with duals exact")


# ---------------------------------------------------------------------------
# 8. Niho family
# ---------------------------------------------------------------------------

def test_criterion_08_niho():
    rng = random.Random(8)
    ok = True
    for (m, k) in ((3, 2), (4, 3), (5, 2), (5, 3)):
        field = make_field(2 * m)
        g = cx.niho_g(field, k)
        spec = bf.walsh(g)
        if not bf.is_bent(spec):
            ok = False
        if bf.dual(spec).bits != cx.niho_dual_g(field, k).bits:
            ok = False
        units = [y for y in field.subfield() if y]
        for _ in range(10):
            tau = rng.randint(1, m)
            us = rng.sample(units, tau)
            pair = cx.niho_family(field, k, us, sp.random_poly(tau, rng))
            if not _spectrum_dual_matches(pair):
                ok = False
        u = field.find_normal(rng.randrange(len(units)))
        orbit = [field.frob(u, i) for i in range(m)]
        idem = cx.niho_family(field, k, orbit,
                              sp.random_rotsym_poly(m, rng))
        if not (_spectrum_dual_matches(idem) and bf.is_idempotent(idem.f)):
            ok = False
    _announce(8, ok,
              "(m,k) in {(3,2),(4,3),(5,2),(5,3)}: base bent with the cited "
              "dual bit-exact, 10 seeded sets per pair, orbit instances "
              "idempotent")


# ---------------------------------------------------------------------------
# 9. Maiorana-McFarland families
# ---------------------------------------------------------------------------

def test_criterion_09_maiorana_mcfarland():
    rng = random.Random(9)
    ok = True
    for m in (2, 3, 4):
        K = make_field(m)
        for _ in range(15):
            tau = rng.randint(1, 2)
            rows, b, pairs = sp.mm_linear_params(K, tau, rng)
            pair = cx.mm_linear(K, rows, b, pairs, sp.random_poly(tau, rng))
            if not _spectrum_dual_matches(pair):
                ok = False
        divisors = [s for s in range(1, m + 1)
                    if m % s == 0 and (m // s) % 2 == 1]
        for _ in range(15):
            s = rng.choice(divisors)
            tau = 1 if s == 1 else rng.randint(1, 2)
            pairs = sp.mm_monomial_pairs(K, s, tau, rng)
            pair = cx.mm_monomial(K, s, pairs, sp.random_poly(tau, rng))
            if not bf.is_bent(bf.walsh(pair.f)):
                ok = False
            d = cx.monomial_inverse_exponent(m, s)
            if (d * ((1 << s) + 1)) % ((1 << m) - 1) != 1:
                ok = False
    _announce(9, ok,
              "15 seeded sets per MM theorem for m=2..4: all bent, linear-pi "
              "duals exact, monomial exponent inverts 2^s+1")


# ---------------------------------------------------------------------------
# 10. spectrum identity
# ---------------------------------------------------------------------------

def test_criterion_10_master_identity():
    rng = random.Random(10)
    field6 = make_field(6)
    units6 = [y for y in field6.subfield() if y]
    basis6 = sp.kasami_valid_us(field6, 1, 3, rng, subfield_only=True)
    u6 = field6.find_normal(0)
    gold8 = make_field(8)
    lam8 = gold8.solve_semilinear(6, 1)
    K4 = make_field(4)
    instances = [
        cx.kasami_general(field6, units6[4],
                          sp.kasami_valid_us(field6, units6[4], 2, rng),
                          sp.random_poly(2, rng)),
        cx.kasami_subfield(field6, units6[2], basis6[:2], mp.poly(2, 0b11)),
        cx.kasami_idempotent(field6, u6, mp.elementary_symmetric(3, 3)),
        cx.kasami_antiselfdual(field6, mp.poly(2, 0b11, 0b01)),
        cx.quad_family(field6, [0, 1, 1, 1], 0, basis6[:2],
                       mp.poly(2, 0b11)),
        cx.quad_idempotent_family(field6, [1, 1, 1, 1], 1, u6,
                                  mp.rotation_closure(0b011, 3)),
        cx.gold_like(gold8, lam8, sp.gold_valid_us(gold8, lam8, 3, rng),
                     sp.random_poly(3, rng)),
        cx.niho_family(field6, 2, basis6[:2], mp.poly(2, 0b11, 0)),
        cx.mm_linear(K4, *sp.mm_linear_params(K4, 2, rng), mp.poly(2, 0b11)),
        cx.mm_monomial(K4, 4, sp.mm_monomial_pairs(K4, 4, 2, rng),
                       mp.poly(2, 0b11)),
    ]
    ok = all(vf.master_identity_holds(pair) for pair in instances)
    _announce(10, ok,
              "W_f equals the scaled Fourier expansion over shifted "
              "base-dual values at every beta, one instance per family")
