"""One constructor per bent-function family, with predicted duals.

Every family is a bent base g plus F(Tr(u_1 x), ..., Tr(u_tau x)), and one
theorem covers them all: if D_ui D_uj g~ = 0 for all i < j, with
D_u h(x) = h(x) + h(x + u), then f is bent with dual

    f~ = g~ + F(D_u1 g~, ..., D_utau g~)     (_theorem_dual).

So each family states only three things: its base table g, its base dual
g~ (None for QuadFamily and MMMonomial, whose duals verification computes
from the spectrum), and one pair predicate ok(u, v) for D_u D_v g~ = 0:
_polar_ok read off g~'s table where g~ is quadratic, a closed form for
MMMonomial's cubic g~.  _shifted checks ok on every pair of shifts, builds
f and attaches the predicted dual; the samplers _scan under the same ok.
The returned pair also carries the base, the shifts u_i and F, so the
spectrum identity

    W_f(beta) = 2^(n/2 - tau) * sum_w chat[w] * (-1)^(gdual(beta + w.u))

can be re-checked against any instance.

Families on GF(2^(2m)) use univariate tables; the Maiorana-McFarland
families live on the GF(2^m) x GF(2^m) grid (BivariateDomain), where the
shift (u1, u2) is the index (u1 << m) | u2.

No constructor loops over the 2^n indices.  Tables are built from
bit-sliced field values (gf2n.linear_planes and Field.mul_planes): the
coordinate tables are the identity x -> x, a field product is n^2 ANDs of
planes, a trace form Tr(u x) is the XOR of the coordinate tables that
walsh_index(u) selects, a translation x -> x + u is one masked delta-swap
per set bit of u (gf2n.translate), and multipoly.compose turns argument
tables into F(...).  tests/pointwise.py keeps the per-point formulas as
the oracle.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from . import gf2n, multipoly
from .boolfun import DualityClass, TruthTable
from .errors import (
    ArityMismatch,
    BadDimension,
    BadDivisor,
    BadLambda,
    BadSpec,
    BaseNotBent,
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
from .gf2n import (
    BivariateDomain,
    Field,
    add_const,
    coordinate_tables,
    invert,
    linear_planes,
    poly_gcd,
    rank,
    trace_planes,
    translate,
    transpose,
)
from .multipoly import ReducedPoly

# f = base + poly(Tr(shifts[0] x), ...), its dual (None where the family
# has no dual formula) and a one-line label
ConstructedPair = namedtuple(
    "ConstructedPair", "f predicted_dual notes base shifts poly")


# ---------------------------------------------------------------------------
# shared validation helpers
# ---------------------------------------------------------------------------

def _require_half(field: Field, least: int = 2) -> int:
    if field.m is None or field.m < least:
        raise PreconditionViolated(
            f"need n = 2m with m >= {least}, got n={field.n}")
    return field.m


def _check_lambda(field: Field, lam: int) -> None:
    if lam == 0:
        raise BadLambda("lambda must be nonzero")
    if field.frob(lam, field.m) != lam:
        raise BadLambda(f"lambda {lam:#x} is not in the subfield")


def _check_tau(F: ReducedPoly, count: int, bound: int) -> None:
    if F.tau != count:
        raise ArityMismatch(f"F has {F.tau} variables but {count} shifts")
    if not 1 <= F.tau <= bound:
        raise ArityMismatch(f"tau={F.tau} outside 1..{bound}")


def _check_subfield_units(field: Field, us) -> None:
    m = field.m
    for u in us:
        if u == 0:
            raise ZeroCoefficient("shift elements must be nonzero")
        if field.frob(u, m) != u:
            raise NotInSubfield(f"shift {u:#x} is not in GF(2^{m})")


def _full(dom) -> int:
    """The all-ones table on a domain."""
    return (1 << dom.size) - 1


def _theorem_dual(dom, gdual: int, shifts, F: ReducedPoly) -> TruthTable:
    """The dual g~ + F(D_u1 g~, ..., D_utau g~) of g + F(Tr(u_1 x), ...).

    gdual is the base's dual table g~; the pairwise conditions
    D_ui D_uj g~ = 0 are the caller's to check.
    """
    args = [gdual ^ translate(gdual, dom.n, u) for u in shifts]  # D_u g~
    return TruthTable(dom, gdual ^ multipoly.compose(F, args, _full(dom)))


def _shifted(dom, base: int, gdual: int | None, shifts, F: ReducedPoly,
             notes: str, ok=None) -> ConstructedPair:
    """The pair f = g + F(Tr(u_1 x), ..., Tr(u_tau x)) of the base table g.

    ok(u, v) is the family's test of D_u D_v g~ = 0 and must hold on
    every pair of shifts.  The dual is predicted when g~ is known.
    """
    shifts = tuple(shifts)
    if ok is not None:
        for (i, u), (j, v) in combinations(enumerate(shifts, 1), 2):
            if not ok(u, v):
                raise PreconditionViolated(
                    f"shift condition fails for pair ({i},{j})")
    f = base ^ multipoly.compose_traces(dom, F, shifts)
    return ConstructedPair(
        f=TruthTable(dom, f),
        predicted_dual=(None if gdual is None
                        else _theorem_dual(dom, gdual, shifts, F)),
        notes=notes, base=TruthTable(dom, base), shifts=shifts, poly=F)


def _polar_ok(n: int, gdual: int):
    """ok(u, v): D_u D_v g~ = 0 for a table g~ of degree at most 2, where it
    is the constant g~(0) + g~(u) + g~(v) + g~(u + v).  A shift beyond the
    n index bits is a ValueError before any bit is read."""
    table = gdual.to_bytes(((1 << n) + 7) >> 3, "little")

    def bit(i):
        return table[i >> 3] >> (i & 7) & 1

    def ok(u, v):
        if (u | v) >> n:
            raise ValueError(f"shifts {u:#x}, {v:#x} leave {n} index bits")
        return not bit(0) ^ bit(u) ^ bit(v) ^ bit(u ^ v)
    return ok


def _quadratic(field: Field, lin, mask: int) -> int:
    """The sliced form parity(x L(x) & mask), L the map with columns lin."""
    xs = coordinate_tables(field.n)
    return trace_planes(field.mul_planes(xs, linear_planes(xs, lin)), mask)


# ---------------------------------------------------------------------------
# Kasami family (norm-form base Tr_sub(lambda * x^(2^m+1)))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kasami_bits(field: Field, lam: int) -> int:
    """Tr_sub(lam * x^(2^m+1)) = Tr(theta lam * x x^(2^m)), sliced."""
    return _quadratic(field, field.frob_map(field.m), field.subtrace_mask(lam))


def _kasami_dual(field: Field, lam: int) -> int:
    """The base's dual Tr_sub(lambda^-1 * x^(2^m+1)) + 1: the inverted
    lambda, which the un-inverted statement form matches only at 1."""
    return _kasami_bits(field, field.inv(lam)) ^ _full(field)


def _kasami_pair(field: Field, lam: int, us, F: ReducedPoly,
                 notes: str) -> ConstructedPair:
    """Kasami base plus F of trace forms, its dual by the theorem;
    subfield shifts meet the pair condition trivially."""
    gdual = _kasami_dual(field, lam)
    return _shifted(field, _kasami_bits(field, lam), gdual, us, F, notes,
                    _polar_ok(field.n, gdual))


def kasami_general(field: Field, lam: int, us,
                   F: ReducedPoly) -> ConstructedPair:
    """Kasami base plus F of trace forms, for shifts anywhere in the field
    that pairwise meet D_u D_v g~ = 0 on the base's dual g~."""
    m = _require_half(field)
    _check_lambda(field, lam)
    us = list(us)
    _check_tau(F, len(us), m)
    return _kasami_pair(field, lam, us, F,
                        f"KasamiGeneral n={field.n} lam={lam:#x} tau={F.tau}")


def kasami_subfield(field: Field, lam: int, us, F: ReducedPoly) -> ConstructedPair:
    """Kasami family with independent subfield shifts."""
    m = _require_half(field)
    _check_lambda(field, lam)
    us = list(us)
    _check_subfield_units(field, us)
    if rank(us) != len(us):
        raise NotIndependent("shift elements are dependent over F_2")
    _check_tau(F, len(us), m)
    return _kasami_pair(field, lam, us, F,
                        f"KasamiSubfield n={field.n} lam={lam:#x} tau={F.tau}")


def _normal_orbit(field: Field, u: int, F: ReducedPoly) -> list[int]:
    """Shifts u, u^2, ... of a normal subfield u, for rotation-symmetric F."""
    m = _require_half(field)
    if not field.is_normal(u):
        raise NotNormal(f"{u:#x} is not a normal element of the subfield")
    if not multipoly.is_rotation_symmetric(F):
        raise NotRotationSymmetric("F must be invariant under cyclic shift")
    _check_tau(F, m, m)
    orbit = []
    t = u
    for _ in range(field.m):
        orbit.append(t)
        t = field.sqr(t)
    return orbit


def kasami_idempotent(field: Field, u: int, F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent from a normal subfield orbit and rotation-symmetric F."""
    notes = f"KasamiIdempotent n={field.n} u={u:#x} d={F.degree()}"
    return _kasami_pair(field, 1, _normal_orbit(field, u, F), F, notes)


def kasami_antiselfdual(field: Field, F: ReducedPoly) -> ConstructedPair:
    """Anti-self-dual family over the trace-zero hyperplane basis."""
    m = _require_half(field)
    _check_tau(F, m - 1, m)
    return _kasami_pair(field, 1, field.trace_zero_basis(), F,
                        f"KasamiAntiSelfDual n={field.n} d={F.degree()}")


# ---------------------------------------------------------------------------
# Quadratic idempotent family
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _quad_bits(field: Field, c: tuple[int, ...], eps: int) -> int:
    """The quadratic idempotent from one sliced product.

    sum_{i<m} c_i Tr(x^(2^i+1)) = Tr(x L(x)) for the linear map
    L(x) = sum_{i<m} c_i x^(2^i), and the c_m term Tr_sub(x^(2^m+1)) is
    the Kasami base at lambda = 1.
    """
    m = field.m
    bits = _full(field) if eps else 0
    lin = [0] * field.n
    for i in range(m):
        if c[i]:
            lin = [a ^ b for a, b in zip(lin, field.frob_map(i))]
    if any(lin):
        bits ^= _quadratic(field, lin, field.trace_mask(1))
    if c[m]:
        bits ^= _kasami_bits(field, 1)
    return bits


def quad_idempotent_g(field: Field, c, eps: int = 0) -> TruthTable:
    """Quadratic idempotent sum_i c_i Tr(x^(2^i+1)) + c_m Tr_sub(x^(2^m+1)) + eps."""
    m = _require_half(field, 1)
    c = tuple(int(b) & 1 for b in c)
    if len(c) != m + 1:
        raise ArityMismatch(f"need m+1={m + 1} coefficient bits, got {len(c)}")
    return TruthTable(field, _quad_bits(field, c, eps & 1))


def is_quad_bent_gcd(c) -> bool:
    """Bentness test for the quadratic idempotent via an F_2[X] gcd.

    The coefficient polynomial sum_{i=1}^{m-1} c_i (X^i + X^(n-i)) + c_m X^m
    must be coprime to X^n + 1; the affine bits c_0 and eps never matter.
    """
    c = tuple(int(b) & 1 for b in c)
    m = len(c) - 1
    n = 2 * m
    L = 0
    for i in range(1, m):
        if c[i]:
            L ^= (1 << i) | (1 << (n - i))
    if c[m]:
        L ^= 1 << m
    return poly_gcd(L, (1 << n) | 1) == 1


def quad_family(field: Field, c, eps: int, us, F: ReducedPoly) -> ConstructedPair:
    """Any bent quadratic idempotent plus F of subfield trace forms.

    No closed-form dual is attached; verification computes the dual from
    the spectrum instead.
    """
    m = _require_half(field, 1)
    c = tuple(int(b) & 1 for b in c)
    if not is_quad_bent_gcd(c):
        raise BaseNotBent("coefficient vector fails the gcd bentness test")
    us = list(us)
    _check_subfield_units(field, us)
    _check_tau(F, len(us), m)
    return _shifted(
        field, quad_idempotent_g(field, c, eps).bits, None, us, F,
        f"QuadFamily n={field.n} c={''.join(map(str, c))} tau={F.tau}")


def quad_idempotent_family(field: Field, c, eps: int, u: int,
                           F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent of prescribed degree from any quadratic base."""
    pair = quad_family(field, c, eps, _normal_orbit(field, u, F), F)
    return pair._replace(
        notes=f"QuadIdemFamily n={field.n} u={u:#x} d={F.degree()}")


# ---------------------------------------------------------------------------
# Gold-like family on GF(2^(4k))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gold_bits(field: Field, lam: int) -> int:
    """Tr(lam * x^(2^k+1)) with k = n/4, sliced; it is its own dual."""
    return _quadratic(field, field.frob_map(field.n // 4),
                      field.trace_mask(lam))


def gold_like(field: Field, lam: int, us, F: ReducedPoly) -> ConstructedPair:
    """Self-dual Gold-like base Tr(lambda x^(2^k+1)) plus F of trace forms."""
    if field.n % 4 != 0:
        raise BadDimension(f"n={field.n} is not 4k")
    k = field.n // 4
    if lam ^ field.frob(lam, 3 * k) != 1:
        raise LambdaConstraintViolated(
            f"lambda {lam:#x} fails lambda + lambda^(2^(3k)) = 1")
    us = list(us)
    _check_tau(F, len(us), field.n // 2)
    base = _gold_bits(field, lam)
    return _shifted(field, base, base, us, F,  # self-dual
                    f"GoldLike n={field.n} k={k} lam={lam:#x} tau={F.tau}",
                    _polar_ok(field.n, base))


# ---------------------------------------------------------------------------
# Niho-exponent family
# ---------------------------------------------------------------------------

def niho_exponents(m: int, k: int) -> list[int]:
    """Exponents (2^m-1) * i/2^k + 1 with /2^k the inverse mod 2^(2m)-1."""
    order = (1 << (2 * m)) - 1
    inv2k = pow(2, -k, order)
    return [(((1 << m) - 1) * i * inv2k + 1) % order
            for i in range(1, 1 << (k - 1))]


@lru_cache(maxsize=None)
def _niho_tables(field: Field, k: int) -> tuple[int, int]:
    """Base bits and dual bits."""
    m = field.m
    xs = coordinate_tables(field.n)
    full = _full(field)
    tmask = field.trace_mask(1)
    g_bits = _kasami_bits(field, 1)
    for e in niho_exponents(m, k):
        g_bits ^= trace_planes(field.pow_planes(xs, e), tmask)
    # dual: Tr_sub((alpha*A + x^(2^m) + alpha^(2^(n-k))) * A^(1/(2^k-1)))
    # with alpha + alpha^(2^m) = 1 and A = 1 + x + x^(2^m); the root index
    # 1/(2^k-1) is invertible mod 2^m-1 because gcd(k, m) = 1.
    e_root = pow((1 << k) - 1, -1, (1 << m) - 1)
    alpha = field.solve_semilinear(m, 1)
    alpha_c = field.frob(alpha, (2 * m - k) % (2 * m))
    xm = linear_planes(xs, field.frob_map(m))
    A = add_const([a ^ b for a, b in zip(xs, xm)], 1, full)
    apow = field.pow_planes(A, e_root)  # 0 where A = 0, as e_root >= 1
    B = add_const([a ^ b for a, b in zip(
        linear_planes(A, field.scale_map(alpha)), xm)], alpha_c, full)
    d_bits = trace_planes(field.mul_planes(B, apow), field.subtrace_mask(1))
    return g_bits, d_bits


def _check_niho(field: Field, k: int) -> int:
    m = _require_half(field)
    if not 1 <= k <= m:
        raise PreconditionViolated(f"need 1 <= k <= m = {m}, got k={k}")
    if math.gcd(k, m) != 1:
        raise GcdViolated(f"need gcd(k, m) = 1, got k={k}, m={m}")
    return m


def niho_g(field: Field, k: int) -> TruthTable:
    """Niho-exponent bent base; k=1 degenerates to the norm-form base."""
    _check_niho(field, k)
    return TruthTable(field, _niho_tables(field, k)[0])


def niho_dual_g(field: Field, k: int) -> TruthTable:
    """Closed-form dual of the Niho base."""
    _check_niho(field, k)
    return TruthTable(field, _niho_tables(field, k)[1])


def niho_family(field: Field, k: int, us, F: ReducedPoly) -> ConstructedPair:
    """Niho base plus F of trace forms with subfield shifts."""
    m = _check_niho(field, k)
    us = list(us)
    _check_subfield_units(field, us)
    _check_tau(F, len(us), m)
    return _shifted(field, *_niho_tables(field, k), us, F,
                    f"Niho n={field.n} k={k} tau={F.tau}")


# ---------------------------------------------------------------------------
# Maiorana-McFarland families on the bivariate grid
# ---------------------------------------------------------------------------

def _grid_planes(base: Field) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Planes of x and y on the grid: the high and low coordinate tables."""
    cs = coordinate_tables(2 * base.n)
    return cs[base.n:], cs[:base.n]


def _check_pairs(K: Field, us) -> tuple[int, ...]:
    """Grid shift indices (u1 << m) | u2 of pairs independent over F_2.

    A coordinate outside GF(2^m) is a ValueError, as in apply_linear, so
    it cannot spill into the other half of the index.
    """
    pairs = [(int(a), int(b)) for a, b in us]
    if any(c < 0 or c >> K.n for pair in pairs for c in pair):
        raise ValueError(f"shift pairs {pairs} leave GF(2^{K.n})")
    shifts = tuple((a << K.n) | b for a, b in pairs)
    if rank(shifts) != len(shifts):
        raise NotIndependent("shift pairs are dependent as 2m-bit vectors")
    return shifts


def _mm_linear_dual(K: Field, inv, b: int) -> int:
    """The MMLinear base's dual Tr(y pi^-1(x) + b pi^-1(x)), inv the
    columns of pi^-1."""
    xs, ys = _grid_planes(K)
    pix = linear_planes(xs, inv)
    return (trace_planes(K.mul_planes(ys, pix), K.trace_mask(1))
            ^ trace_planes(pix, K.trace_mask(b)))


def mm_linear(K: Field, pi, b: int, us, F: ReducedPoly) -> ConstructedPair:
    """Tr(x pi(y)) + Tr(b y) + F of pair trace forms on K = GF(2^m).

    pi is a linear bijection, an m x m matrix over F_2 in row-bitmask form.
    """
    m = K.n
    if len(pi) != m:
        raise SingularPermutation(f"pi must be {m}x{m}")
    cols = transpose(pi)
    inv = invert(cols)  # the columns of pi^-1
    shifts = _check_pairs(K, us)
    _check_tau(F, len(shifts), m)
    xs, ys = _grid_planes(K)
    base = (trace_planes(K.mul_planes(xs, linear_planes(ys, cols)),
                         K.trace_mask(1))
            ^ trace_planes(ys, K.trace_mask(b)))
    gdual = _mm_linear_dual(K, inv, b)
    return _shifted(BivariateDomain(K), base, gdual, shifts, F,
                    f"MMLinear m={m} b={b:#x} tau={F.tau}",
                    _polar_ok(2 * m, gdual))


def monomial_inverse_exponent(m: int, s: int) -> int:
    """d in 1..2^m-1 with d * (2^s + 1) = 1 mod 2^m - 1 (exists when m/s is
    odd); at m = 1 that is d = 1, so y -> y^d stays a permutation."""
    try:
        return pow((1 << s) + 1, -1, (1 << m) - 1) or 1
    except ValueError:
        raise NoModularInverse(
            f"2^{s}+1 is not invertible mod 2^{m}-1") from None


def _mm_monomial_ok(K: Field):
    """The MMMonomial pair condition on GF(2^s)^2 grid shifts u, v:
    u1 v2 + v1 u2 = 0 and Tr(u1^2 v2 + u2 v1^2) = 0.  A closed form, as
    g~ is cubic; stricter than D_u D_v g~ = 0, but golden records pin it."""
    split = BivariateDomain(K).split

    def ok(u, v):
        (u1, u2), (v1, v2) = split(u), split(v)
        return not (K.mul(u1, v2) ^ K.mul(v1, u2)) and not K.trace_abs(
            K.mul(K.sqr(u1), v2) ^ K.mul(u2, K.sqr(v1)))
    return ok


def mm_monomial(K: Field, s: int, us, F: ReducedPoly) -> ConstructedPair:
    """Tr(x y^d) + F of pair trace forms on K = GF(2^m), d inverting 2^s + 1.

    Shift pairs come from GF(2^s) x GF(2^s) and must pairwise meet the
    pair condition of _mm_monomial_ok.
    """
    m = K.n
    if s < 1 or m % s != 0 or (m // s) % 2 == 0:
        raise BadDivisor(f"need s | m with m/s odd, got m={m}, s={s}")
    d = monomial_inverse_exponent(m, s)
    dom = BivariateDomain(K)
    shifts = _check_pairs(K, us)
    _check_tau(F, len(shifts), m)
    for u1, u2 in map(dom.split, shifts):
        if K.frob(u1, s) != u1 or K.frob(u2, s) != u2:
            raise PreconditionViolated(
                f"pair ({u1:#x},{u2:#x}) is not in GF(2^{s}) x GF(2^{s})")
    xs, ys = _grid_planes(K)
    base = trace_planes(K.mul_planes(xs, K.pow_planes(ys, d)),
                        K.trace_mask(1))
    return _shifted(dom, base, None, shifts, F,
                    f"MMMonomial m={m} s={s} d={d} tau={F.tau}",
                    _mm_monomial_ok(K))


# ---------------------------------------------------------------------------
# seeded parameter search
# ---------------------------------------------------------------------------

def random_poly(tau: int, rng: random.Random) -> ReducedPoly:
    """Random reduced polynomial with one to four monomials."""
    space = 1 << tau
    count = rng.randint(1, min(4, space))
    return multipoly.poly(tau, *rng.sample(range(space), count))


def random_rotsym_poly(m: int, rng: random.Random) -> ReducedPoly:
    """Random rotation-symmetric polynomial from one or two shift orbits."""
    while True:
        F = multipoly.rotation_closure(rng.randrange(1, 1 << m), m)
        if rng.random() < 0.5:
            F = F + multipoly.rotation_closure(rng.randrange(1, 1 << m), m)
        if F.coeffs:
            return F


def _scan(cands, tau: int, rng: random.Random, ok,
          indep: bool = False) -> list:
    """Pick tau distinct candidates, pairwise ok, by wrapped scans from
    random start positions; independent over F_2 if indep.

    Greedy choices can dead-end (an early pick may admit no partner), so
    a failed pass restarts from fresh positions before giving up.
    """
    count = len(cands)
    for _ in range(32):
        chosen = []
        for _slot in range(tau):
            start = rng.randrange(count)
            for off in range(count):
                cand = cands[(start + off) % count]
                if ((rank(chosen + [cand]) > len(chosen) if indep
                     else cand not in chosen)
                        and all(ok(cand, u) for u in chosen)):
                    chosen.append(cand)
                    break
            else:
                break
        if len(chosen) == tau:
            return chosen
    raise NoSolution("no candidate satisfies the shift conditions")


def kasami_valid_us(field: Field, lam: int, tau: int, rng: random.Random,
                    subfield_only: bool = False) -> list[int]:
    """Shift list whose pairs meet the Kasami pair condition."""
    cands = field.subfield()[1:] if subfield_only else range(1, field.size)
    ok = _polar_ok(field.n, _kasami_dual(field, lam))
    return _scan(cands, tau, rng, ok, subfield_only)


def gold_valid_us(field: Field, lam: int, tau: int,
                  rng: random.Random) -> list[int]:
    """Shift list whose pairs meet the Gold-like pair condition."""
    return _scan(range(1, field.size), tau, rng,
                 _polar_ok(field.n, _gold_bits(field, lam)))


def random_invertible(m: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.getrandbits(m) for _ in range(m))
        if rank(rows) == m:
            return rows


def mm_linear_params(K: Field, tau: int, rng: random.Random):
    """Random (pi, b, pairs) satisfying the linear-permutation conditions."""
    rows = random_invertible(K.n, rng)
    inv = invert(transpose(rows))  # the columns of pi^-1
    b = rng.randrange(K.size)
    shifts = _scan(range(1, K.size * K.size), tau, rng,
                   _polar_ok(2 * K.n, _mm_linear_dual(K, inv, b)), indep=True)
    return rows, b, [BivariateDomain(K).split(u) for u in shifts]


def mm_monomial_pairs(K: Field, s: int, tau: int,
                      rng: random.Random) -> list[tuple[int, int]]:
    """Random shift pairs in GF(2^s)^2 meeting the monomial-family conditions."""
    sub = [y for y in range(K.size) if K.frob(y, s) == y]
    cands = [(a << K.n) | b for a in sub for b in sub if a or b]
    shifts = _scan(cands, tau, rng, _mm_monomial_ok(K), indep=True)
    return [BivariateDomain(K).split(u) for u in shifts]


# ---------------------------------------------------------------------------
# ConstructionSpec and its JSON codec (bit-exact round trip)
# ---------------------------------------------------------------------------

# family and n, then the parameters a family takes (None where it takes
# none): ints, except c and pi (tuples of ints), u (a tuple of elements or
# of (x, y) pairs) and F (the text of a polynomial)
ConstructionSpec = namedtuple(
    "ConstructionSpec", "family n mod lam c eps k s pi b u F",
    defaults=(None,) * 10)


def _want(v, kind):
    """v if its JSON type is kind (a JSON true is not an integer)."""
    if type(v) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {v!r}")
    return v


def _hex(v) -> int:
    x = int(_want(v, str), 16)
    if x < 0:
        raise ValueError(f"negative value {v!r}")
    return x


def _bit(v) -> int:
    if _want(v, int) not in (0, 1):
        raise ValueError(f"expected 0 or 1, got {v!r}")
    return v


def _bits(v) -> tuple[int, ...]:
    if any(type(b) is not int or b not in (0, 1) for b in _want(v, list)):
        raise ValueError(f"expected bits 0 or 1, got {v!r}")
    return tuple(v)


def _matrix(v) -> tuple[int, ...]:
    """Row bitmasks of a square matrix given as rows of bits."""
    rows = [_bits(row) for row in _want(v, list)]
    if any(len(row) != len(rows) for row in rows):
        raise ValueError("expected a square bit matrix")
    return tuple(sum(bit << j for j, bit in enumerate(row)) for row in rows)


def _shifts(v) -> tuple:
    """Hex elements, or [x, y] pairs of them."""
    if _want(v, list) and all(type(p) is list for p in v):
        return tuple((_hex(x), _hex(y)) for x, y in v)
    return tuple(_hex(x) for x in v)


def _hex_text(v):
    """0x-hex text of an element, or lists of it for tuples of elements."""
    return [_hex_text(x) for x in v] if isinstance(v, tuple) else f"0x{v:x}"


# (JSON key, ConstructionSpec attribute, encode, decode) in the order
# spec_to_json writes them; an attribute that is None is left out.
_CODEC = (
    ("family", "family", str, lambda v: _want(v, str)),
    ("n", "n", int, lambda v: _want(v, int)),
    ("mod", "mod", _hex_text, _hex),
    ("lambda", "lam", _hex_text, _hex),
    ("c", "c", list, _bits),
    ("eps", "eps", int, _bit),
    ("k", "k", int, lambda v: _want(v, int)),
    ("s", "s", int, lambda v: _want(v, int)),
    ("pi", "pi", lambda rows: [[(row >> j) & 1 for j in range(len(rows))]
                               for row in rows], _matrix),
    ("b", "b", _hex_text, _hex),
    ("u", "u", _hex_text, _shifts),
    ("F", "F", str, lambda v: _want(v, str)),
)


def spec_to_json(spec: ConstructionSpec) -> str:
    doc = {key: encode(getattr(spec, attr))
           for key, attr, encode, _ in _CODEC
           if getattr(spec, attr) is not None}
    return json.dumps(doc, indent=2) + "\n"


def spec_from_json(text: str) -> ConstructionSpec:
    """Parse a spec; bad JSON, or a missing or bad key, or one that the
    family does not take, is BadSpec."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise BadSpec(f"spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "family" not in doc:
        raise BadSpec("spec must be a JSON object with a family")
    name = doc["family"]
    family = lookup_family(name)
    unknown = sorted(set(doc) - {"family", "n", "mod", *family.fields,
                                 *family.optional})
    if unknown:
        raise BadSpec(f"{name} spec has unknown keys {', '.join(unknown)}")
    missing = [key for key in ("n",) + family.fields if key not in doc]
    if missing:
        raise BadSpec(f"{name} spec lacks {', '.join(missing)}")
    values = {}
    for key, attr, _, decode in _CODEC:
        if key in doc:
            try:
                values[attr] = decode(doc[key])
            except (TypeError, ValueError) as exc:
                raise BadSpec(f"malformed {name} spec: {key}: {exc}") from None
    spec = ConstructionSpec(**values)
    if spec.u and isinstance(spec.u[0], tuple) != family.pairs:
        raise BadSpec(f"{name} shifts must be "
                      + ("[x, y] pairs" if family.pairs else "hex strings"))
    return spec


# ---------------------------------------------------------------------------
# the family registry: spec fields, size rule, build, sampler and claims
# ---------------------------------------------------------------------------

def _field(spec: ConstructionSpec) -> Field:
    """The spec's field, GF(2^(n/2)) for a grid family and GF(2^n) for the
    rest: one shared Field per (n, modulus)."""
    pairs = FAMILIES[spec.family].pairs
    return gf2n.make_field(spec.n // 2 if pairs else spec.n, spec.mod)


def _F(spec: ConstructionSpec, tau: int | None = None) -> ReducedPoly:
    """The spec's F in tau variables, by default one per shift."""
    return multipoly.parse_poly(spec.F, len(spec.u) if tau is None else tau)


def _with_shifts(name: str, n: int, us, rng: random.Random,
                 **fields) -> ConstructionSpec:
    """A spec with shifts us and a random F in one variable per shift."""
    F = multipoly.format_poly(random_poly(len(us), rng))
    return ConstructionSpec(name, n, u=tuple(us), F=F, **fields)


def _build_kasami_idempotent(spec: ConstructionSpec) -> ConstructedPair:
    field = _field(spec)
    if len(spec.u) != 1:
        raise BadSpec("KasamiIdempotent takes one u, the normal element")
    return kasami_idempotent(field, spec.u[0], _F(spec, field.m))


def _build_quad_family(spec: ConstructionSpec) -> ConstructedPair:
    """One shift and F in m variables: the idempotent from a normal orbit."""
    field = _field(spec)
    try:
        F = _F(spec)
    except ArityMismatch:
        if len(spec.u) != 1:
            raise
        return quad_idempotent_family(field, spec.c, spec.eps or 0,
                                      spec.u[0], _F(spec, field.m))
    return quad_family(field, spec.c, spec.eps or 0, spec.u, F)


def _build_gold_like(spec: ConstructionSpec) -> ConstructedPair:
    field, k = _field(spec), spec.n // 4
    if spec.k not in (None, k):
        raise BadSpec(f"GoldLike needs k = n/4 = {k}, got k={spec.k}")
    lam = field.solve_semilinear(3 * k, 1) if spec.lam is None else spec.lam
    return gold_like(field, lam, spec.u, _F(spec))


# The samplers draw from rng in the order the seeded sweeps always have.

def _sample_kasami(name: str, n: int, rng: random.Random,
                   subfield_only: bool = False) -> ConstructionSpec:
    field = gf2n.make_field(n)
    lam = rng.choice(field.subfield()[1:])
    us = kasami_valid_us(field, lam, rng.randint(1, field.m), rng,
                         subfield_only)
    return _with_shifts(name, n, us, rng, lam=lam)


def _sample_quad_family(n: int, rng: random.Random) -> ConstructionSpec:
    field = gf2n.make_field(n)
    while True:
        c = tuple(rng.randint(0, 1) for _ in range(field.m + 1))
        if is_quad_bent_gcd(c):
            break
    us = rng.sample(field.subfield()[1:], rng.randint(1, field.m))
    return _with_shifts("QuadFamily", n, us, rng, c=c, eps=rng.randint(0, 1))


def _sample_gold_like(n: int, rng: random.Random) -> ConstructionSpec:
    field, k = gf2n.make_field(n), n // 4
    lam = field.solve_semilinear(3 * k, 1)
    us = gold_valid_us(field, lam, rng.randint(1, 2 * k), rng)
    return _with_shifts("GoldLike", n, us, rng, lam=lam, k=k)


def _sample_niho(n: int, rng: random.Random) -> ConstructionSpec:
    field, m = gf2n.make_field(n), n // 2
    k = rng.choice([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
    us = rng.sample(field.subfield()[1:], rng.randint(1, m))
    return _with_shifts("Niho", n, us, rng, k=k)


def _sample_mm_linear(n: int, rng: random.Random) -> ConstructionSpec:
    K = gf2n.make_field(n // 2)
    rows, b, pairs = mm_linear_params(K, rng.randint(1, min(K.n, 3)), rng)
    return _with_shifts("MMLinear", n, pairs, rng, pi=rows, b=b)


def _sample_mm_monomial(n: int, rng: random.Random) -> ConstructionSpec:
    K, m = gf2n.make_field(n // 2), n // 2
    s = rng.choice([s for s in range(1, m + 1)
                    if m % s == 0 and (m // s) % 2 == 1])
    pairs = mm_monomial_pairs(K, s, 1 if s == 1 else rng.randint(1, 2), rng)
    return _with_shifts("MMMonomial", n, pairs, rng, s=s)


def _idempotent_claims(spec: ConstructionSpec, built: ConstructedPair) -> dict:
    """A bent idempotent of degree deg F, or 2 (the quadratic base) for an
    affine F."""
    return {"bent": True, "idempotent": True,
            "degree": max(2, built.poly.degree())}


# One family.  build and sample call the constructors by their module
# names at call time, so a tracer that rebinds them (perfbench/shim.py)
# sees every instance.
#   fields    spec keys it needs besides family and n
#   build     spec -> ConstructedPair, or TruthTable (QuadIdem)
#   sample    (n, rng) -> a random valid ConstructionSpec
#   claims    (spec, built) -> the Expectation's keywords; default bent
#   scale     n = scale * size; the size is m, or k (n = 4k); default 2
#   pairs     u holds [x, y] pairs on the GF(2^m)^2 grid; default False
#   optional  spec keys it may take besides mod; default none
Family = namedtuple(
    "Family", "fields build sample claims scale pairs optional",
    defaults=(lambda spec, built: {"bent": True}, 2, False, ()))


FAMILIES = {
    "KasamiGeneral": Family(
        ("lambda", "u", "F"),
        lambda s: kasami_general(_field(s), s.lam, s.u, _F(s)),
        lambda n, rng: _sample_kasami("KasamiGeneral", n, rng)),
    "KasamiSubfield": Family(
        ("lambda", "u", "F"),
        lambda s: kasami_subfield(_field(s), s.lam, s.u, _F(s)),
        lambda n, rng: _sample_kasami("KasamiSubfield", n, rng, True),
        # degree deg F, or 2 (the quadratic base) for an affine F
        lambda s, b: {"bent": True, "degree": max(2, b.poly.degree())}),
    "KasamiIdempotent": Family(
        ("u", "F"), _build_kasami_idempotent,
        lambda n, rng: ConstructionSpec("KasamiIdempotent", n, u=(
            gf2n.make_field(n).find_normal(rng.randrange((1 << n // 2) - 1)),),
            F=multipoly.format_poly(random_rotsym_poly(n // 2, rng))),
        _idempotent_claims),
    "KasamiAntiSelfDual": Family(
        ("F",),
        # the size is checked before F is read in m - 1 variables
        lambda s: kasami_antiselfdual(
            _field(s), _F(s, _require_half(_field(s)) - 1)),
        lambda n, rng: ConstructionSpec("KasamiAntiSelfDual", n, F=(
            multipoly.format_poly(random_poly(
                _require_half(gf2n.make_field(n)) - 1, rng)))),
        lambda s, b: {"bent": True, "duality": DualityClass.ANTI_SELF_DUAL}),
    "QuadIdem": Family(
        ("c",),
        lambda s: quad_idempotent_g(_field(s), s.c, s.eps or 0),
        lambda n, rng: ConstructionSpec("QuadIdem", n, c=tuple(
            rng.randint(0, 1) for _ in range(n // 2 + 1)), eps=rng.randint(0, 1)),
        lambda s, b: {"bent": is_quad_bent_gcd(s.c), "idempotent": True},
        optional=("eps",)),
    "QuadFamily": Family(
        ("c", "u", "F"), _build_quad_family, _sample_quad_family,
        # one shift expanded into its normal orbit: the idempotent branch
        lambda s, b: (_idempotent_claims(s, b) if len(b.shifts) != len(s.u)
                      else {"bent": True}),
        optional=("eps",)),
    "GoldLike": Family(("u", "F"), _build_gold_like, _sample_gold_like,
                       scale=4, optional=("lambda", "k")),
    "Niho": Family(
        ("k", "u", "F"),
        lambda s: niho_family(_field(s), s.k, s.u, _F(s)),
        _sample_niho),
    "MMLinear": Family(
        ("pi", "u", "F"),
        lambda s: mm_linear(_field(s), s.pi, s.b or 0, s.u, _F(s)),
        _sample_mm_linear, pairs=True, optional=("b",)),
    "MMMonomial": Family(
        ("s", "u", "F"),
        lambda s: mm_monomial(_field(s), s.s, s.u, _F(s)),
        _sample_mm_monomial, pairs=True),
}


def lookup_family(name) -> Family:
    """The family record of name; an unknown name is BadSpec."""
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise BadSpec(f"unknown family {name!r}; "
                      f"known: {', '.join(FAMILIES)}")
    return family


def build(spec: ConstructionSpec):
    """Materialize a ConstructionSpec.

    Returns a ConstructedPair, except for the bare QuadIdem base which
    returns its TruthTable.
    """
    family = lookup_family(spec.family)
    if spec.n < 1:
        raise BadSpec(f"{spec.family} needs n >= 1, got n={spec.n}")
    if spec.n % family.scale:
        raise BadSpec(f"{spec.family} needs n divisible by {family.scale}, "
                      f"got n={spec.n}")
    # lambda and u lie in GF(2^n); grid coordinates and b in GF(2^m)
    width = spec.n // 2 if family.pairs else spec.n
    elements = [v for v in (spec.lam, spec.b) if v is not None]
    for u in spec.u or ():
        elements += u if family.pairs else [u]
    if any(v.bit_length() > width for v in elements):
        raise BadSpec(f"{spec.family} field elements must be below "
                      f"2^{width}")
    return family.build(spec)
