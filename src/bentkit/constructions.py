"""One constructor per bent-function family, with predicted duals.

Every family is a bent base g plus F(Tr(u_1 x), ..., Tr(u_tau x)), and one
theorem covers them all: if D_ui D_uj g~ = 0 for all i < j, with
D_u h(x) = h(x) + h(x + u), then f is bent with dual

    f~ = g~ + F(D_u1 g~, ..., D_utau g~).

So each family states only three things: its base table g, its base dual
g~ (None for QuadFamily and MMMonomial, whose duals verification computes
from the spectrum), and a closed-form n-bit mask row(u) with D_u D_v g~ = 0
iff parity(row(u) & v) = 0, as that condition is F_2-linear in v.  _shifted
checks it on every pair of shifts and computes the D_ui g~, once; its
pair(F, notes) builds f and the predicted dual for any F.  The same rows
let bentkit.specs draw shifts that meet the condition in one pass.  Each
pair also carries the base, the shifts u_i and F, so the identity

    W_f(beta) = 2^(n/2 - tau) * sum_w chat[w] * (-1)^(gdual(beta + w.u))

can be re-checked against any instance.

Families on GF(2^(2m)) use univariate tables; the Maiorana-McFarland
families live on the GF(2^m) x GF(2^m) grid (BivariateDomain), where the
shift (u1, u2) is the index (u1 << m) | u2.

No constructor loops over the 2^n indices, nor over exponents: the Niho
base's 2^(k-1) - 1 power terms fold into one product of k - 1 factors
(_niho_sum).  Tables are built from bit-sliced field values
(gf2n.linear_planes and Field.mul_planes): the coordinate tables are the
identity x -> x, a field product is n^2 ANDs of planes, a trace form
Tr(u x) is the XOR of the coordinate tables that walsh_index(u) selects,
a translation x -> x + u is one masked delta-swap per set bit of u
(gf2n.translate), and multipoly.compose turns argument tables into
F(...).  tests/pointwise.py keeps the per-point formulas as the oracle.

Specs, their JSON codec, the seeded samplers and the family registry are
in bentkit.specs, which only construct and sweep load.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import combinations

from . import multipoly
from .boolfun import TruthTable
from .errors import (
    ArityMismatch,
    BadDimension,
    BadDivisor,
    BadLambda,
    BaseNotBent,
    GcdViolated,
    LambdaConstraintViolated,
    NoModularInverse,
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
    apply_linear,
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


# Each base builder keeps its 16 latest tables, of 2^n bits each (2 MiB at
# n = 24): on the benchmark's sweeps that loses 2 of 549 unbounded hits.
_base_cache = lru_cache(maxsize=16)


def _full(dom) -> int:
    """The all-ones table on a domain."""
    return (1 << dom.size) - 1


def _shifted(dom, base: int, gdual: int | None, shifts, row=None):
    """pair(F, notes): the pair f = g + F(Tr(u_1 x), ..., Tr(u_tau x)).

    D_u D_v g~ = 0 is parity(row(u) & v) = 0 and must hold on every pair
    of shifts; it is checked, and the D_ui g~ are computed, once.  A shift
    beyond the n index bits is a ValueError before any pair is judged.
    pair predicts the dual g~ + F(D_u1 g~, ...) when g~ is known.
    """
    shifts = tuple(shifts)
    for u in shifts:
        if u >> dom.n:  # also every u < 0
            raise ValueError(f"shift {u:#x} leaves {dom.n} index bits")
    rows = [row(u) for u in shifts[:-1]] if row else []  # no pair reads u_tau
    for i, j in combinations(range(len(rows) + 1), 2):
        if (rows[i] & shifts[j]).bit_count() & 1:
            raise PreconditionViolated(
                f"shift condition fails for pair ({i + 1},{j + 1})")
    diffs = (None if gdual is None  # D_u g~
             else [gdual ^ translate(gdual, dom.n, u) for u in shifts])

    def pair(F: ReducedPoly, notes: str) -> ConstructedPair:
        f = base ^ multipoly.compose_traces(dom, F, shifts)
        return ConstructedPair(
            f=TruthTable(dom, f),
            predicted_dual=(None if diffs is None else TruthTable(
                dom, gdual ^ multipoly.compose(F, diffs, _full(dom)))),
            notes=notes, base=TruthTable(dom, base), shifts=shifts, poly=F)
    return pair


def _quadratic(field: Field, lin, mask: int) -> int:
    """The sliced form parity(x L(x) & mask), L the map with columns lin."""
    xs = coordinate_tables(field.n)
    return trace_planes(field.mul_planes(xs, linear_planes(xs, lin)), mask)


# ---------------------------------------------------------------------------
# Kasami family (norm-form base Tr_sub(lambda * x^(2^m+1)))
# ---------------------------------------------------------------------------

@_base_cache
def _kasami_bits(field: Field, lam: int) -> int:
    """Tr_sub(lam * x^(2^m+1)) = Tr(theta lam * x x^(2^m)), sliced."""
    return _quadratic(field, field.frob_map(field.m), field.subtrace_mask(lam))


def _kasami_row(field: Field, mu: int):
    """row(u) of g~ = Tr_sub(mu x^(2^m+1)) + 1: its polar form is
    Tr(mu u v^(2^m)) = Tr((mu u)^(2^m) v), as theta + theta^(2^m) = 1."""
    return lambda u: field.trace_mask(field.frob(field.mul(mu, u), field.m))


def _kasami_shifted(field: Field, lam: int, us):
    """pair(F, notes) on the Kasami base, its dual by the theorem;
    subfield shifts meet the pair condition trivially.  The base's dual is
    Tr_sub(mu x^(2^m+1)) + 1 with mu = lambda^-1, which the un-inverted
    statement form matches only at 1."""
    mu = field.inv(lam)
    return _shifted(field, _kasami_bits(field, lam),
                    _kasami_bits(field, mu) ^ _full(field), us,
                    _kasami_row(field, mu))


def kasami_general(field: Field, lam: int, us,
                   F: ReducedPoly) -> ConstructedPair:
    """Kasami base plus F of trace forms, for shifts anywhere in the field
    that pairwise meet D_u D_v g~ = 0 on the base's dual g~."""
    m = _require_half(field)
    _check_lambda(field, lam)
    us = list(us)
    _check_tau(F, len(us), m)
    return _kasami_shifted(field, lam, us)(
        F, f"KasamiGeneral n={field.n} lam={lam:#x} tau={F.tau}")


def kasami_subfield(field: Field, lam: int, us, F: ReducedPoly) -> ConstructedPair:
    """Kasami family with independent subfield shifts."""
    m = _require_half(field)
    _check_lambda(field, lam)
    us = list(us)
    _check_subfield_units(field, us)
    if rank(us) != len(us):
        raise NotIndependent("shift elements are dependent over F_2")
    _check_tau(F, len(us), m)
    return _kasami_shifted(field, lam, us)(
        F, f"KasamiSubfield n={field.n} lam={lam:#x} tau={F.tau}")


def _normal_orbit(field: Field, u: int) -> list[int]:
    """Shifts u, u^2, ..., u^(2^(m-1)) of a normal subfield element u."""
    _require_half(field)
    if not field.is_normal(u):
        raise NotNormal(f"{u:#x} is not a normal element of the subfield")
    return field.orbit(u)


def _check_rotsym(F: ReducedPoly, m: int) -> None:
    if not multipoly.is_rotation_symmetric(F):
        raise NotRotationSymmetric("F must be invariant under cyclic shift")
    _check_tau(F, m, m)


def kasami_idempotent(field: Field, u: int, F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent from a normal subfield orbit and rotation-symmetric F."""
    us = _normal_orbit(field, u)
    _check_rotsym(F, field.m)
    return _kasami_shifted(field, 1, us)(
        F, f"KasamiIdempotent n={field.n} u={u:#x} d={F.degree()}")


def kasami_ladder(field: Field, u: int):
    """(d, kasami_idempotent(field, u, e_d)) for d = 2..m from one checked
    base; each e_d is rotation symmetric in m variables."""
    pair = _kasami_shifted(field, 1, _normal_orbit(field, u))
    for d in range(2, field.m + 1):
        yield d, pair(multipoly.elementary_symmetric(field.m, d),
                      f"KasamiIdempotent n={field.n} u={u:#x} d={d}")


def kasami_antiselfdual(field: Field, F: ReducedPoly) -> ConstructedPair:
    """Anti-self-dual family over the trace-zero hyperplane basis."""
    return kasami_antiselfdual_pairs(field)(F)


def kasami_antiselfdual_pairs(field: Field):
    """F -> its anti-self-dual pair, all from one checked base."""
    m = _require_half(field)
    pair = _kasami_shifted(field, 1, field.trace_zero_basis())

    def antiselfdual(F: ReducedPoly) -> ConstructedPair:
        _check_tau(F, m - 1, m)
        return pair(F, f"KasamiAntiSelfDual n={field.n} d={F.degree()}")
    return antiselfdual


# ---------------------------------------------------------------------------
# Quadratic idempotent family
# ---------------------------------------------------------------------------

@_base_cache
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
    return _shifted(field, quad_idempotent_g(field, c, eps).bits, None, us)(
        F, f"QuadFamily n={field.n} c={''.join(map(str, c))} tau={F.tau}")


def quad_idempotent_family(field: Field, c, eps: int, u: int,
                           F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent of prescribed degree from any quadratic base."""
    us = _normal_orbit(field, u)
    _check_rotsym(F, field.m)
    pair = quad_family(field, c, eps, us, F)
    return pair._replace(
        notes=f"QuadIdemFamily n={field.n} u={u:#x} d={F.degree()}")


# ---------------------------------------------------------------------------
# Gold-like family on GF(2^(4k))
# ---------------------------------------------------------------------------

@_base_cache
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
    return _shifted(field, base, base, us, _gold_row(field, lam))(  # self-dual
        F, f"GoldLike n={field.n} k={k} lam={lam:#x} tau={F.tau}")


def _gold_row(field: Field, lam: int):
    """row(u): the polar form Tr(lam (u v^(2^k) + u^(2^k) v)), k = n/4."""
    k = field.n // 4
    return lambda u: field.trace_mask(
        field.frob(field.mul(lam, u), -k) ^ field.mul(lam, field.frob(u, k)))


# ---------------------------------------------------------------------------
# Niho-exponent family
# ---------------------------------------------------------------------------

def _niho_sum(field: Field, k: int) -> int:
    """sum_{i=1}^{N} Tr(x^(e_i)), sliced, where e_i = (2^m-1) i/2^k + 1
    (/2^k is the inverse mod 2^n-1) and N = 2^(k-1) - 1.

    With z = x^((2^m-1)/2^k), x^(e_i) = x z^i, and over F_2
    1 + z + ... + z^N = (1 + z)(1 + z^2)...(1 + z^(2^(k-2))) =: P, so the
    sum is Tr(x P) + Tr(x): one sliced power, whatever k is.  At k = 1 the
    product is empty, P = 1 and the sum vanishes.
    """
    xs = coordinate_tables(field.n)
    full = _full(field)
    z = field.pow_planes(xs, ((1 << field.m) - 1)
                         * pow(2, -k, field.size - 1))
    xp = xs
    for _ in range(k - 1):
        xp = field.mul_planes(xp, add_const(z, 1, full))
        z = linear_planes(z, field.squaring_map())
    tmask = field.trace_mask(1)
    return trace_planes(xp, tmask) ^ trace_planes(xs, tmask)


@_base_cache
def _niho_tables(field: Field, k: int) -> tuple[int, int]:
    """Base bits Tr_sub(x^(2^m+1)) + _niho_sum and dual bits.

    _niho_sum is a function of its own so that its planes are freed
    before the dual's are built, which keeps the peak at that of the dual.
    """
    m = field.m
    xs = coordinate_tables(field.n)
    full = _full(field)
    g_bits = _kasami_bits(field, 1) ^ _niho_sum(field, k)
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
    return _shifted(field, *_niho_tables(field, k), us)(
        F, f"Niho n={field.n} k={k} tau={F.tau}")


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


def _mm_linear_row(K: Field, inv):
    """row(x1, y1): the dual's polar form Tr(y1 pi^-1(x2) + y2 pi^-1(x1)),
    the first term through the transpose of pi^-1; b drops out."""
    inv_t = transpose(inv)
    return lambda u: ((apply_linear(inv_t, K.trace_mask(u % K.size))
                       << K.n) | K.trace_mask(apply_linear(inv, u >> K.n)))


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
    return _shifted(BivariateDomain(K), base, _mm_linear_dual(K, inv, b),
                    shifts, _mm_linear_row(K, inv))(
        F, f"MMLinear m={m} b={b:#x} tau={F.tau}")


def monomial_inverse_exponent(m: int, s: int) -> int:
    """d in 1..2^m-1 with d * (2^s + 1) = 1 mod 2^m - 1 (exists when m/s is
    odd); at m = 1 that is d = 1, so y -> y^d stays a permutation."""
    try:
        return pow((1 << s) + 1, -1, (1 << m) - 1) or 1
    except ValueError:
        raise NoModularInverse(
            f"2^{s}+1 is not invertible mod 2^{m}-1") from None


def _mm_monomial_row(K: Field):
    """row(u1, u2): D_u D_v g~ = 0 for GF(2^s)^2 grid shifts u, v is
    Tr(u1^2 v2 + u2 v1^2) = Tr(u1^2 v2) + Tr(u2^(2^(m-1)) v1) = 0."""
    return lambda u: ((K.trace_mask(K.frob(u % K.size, K.n - 1)) << K.n)
                      | K.trace_mask(K.sqr(u >> K.n)))


def mm_monomial(K: Field, s: int, us, F: ReducedPoly) -> ConstructedPair:
    """Tr(x y^d) + F of pair trace forms on K = GF(2^m), d inverting 2^s + 1.

    Shift pairs come from GF(2^s) x GF(2^s) and must pairwise meet
    D_u D_v g~ = 0, the trace test of _mm_monomial_row.
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
    return _shifted(dom, base, None, shifts, _mm_monomial_row(K))(
        F, f"MMMonomial m={m} s={s} d={d} tau={F.tau}")
