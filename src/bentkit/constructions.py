"""One constructor per bent-function family, with predicted duals.

Every constructor validates its preconditions, materializes the function
as a truth table, and attaches the closed-form dual table whenever the
family comes with one.  The returned pair also carries the underlying
base bent function, the shift vectors u_i and the combining polynomial F,
so the spectrum identity

    W_f(beta) = 2^(n/2 - tau) * sum_w chat[w] * (-1)^(gdual(beta + w.u))

can be re-checked against any instance.

Families on GF(2^(2m)) use univariate tables; the Maiorana-McFarland
families live on the GF(2^m) x GF(2^m) grid (BivariateDomain).

No constructor loops over the 2^n indices.  Tables are built from
bit-sliced field values (gf2n.linear_planes and Field.mul_planes): the
coordinate tables are the identity x -> x, a field product is n^2 ANDs of
planes, a trace form Tr(u x) is the XOR of the coordinate tables that
trace_mask(u) selects, and multipoly.compose turns the trace-form tables
into F(...).  tests/pointwise.py keeps the per-point formulas as the
oracle.
"""

from __future__ import annotations

import json
import math
import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache

from . import boolfun, multipoly
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
    linear_planes,
    make_field,
    poly_gcd,
    pullback_mask,
    rank,
    solve_f2,
    trace_planes,
)
from .multipoly import ReducedPoly

@dataclass(frozen=True)
class ConstructedPair:
    f: TruthTable
    predicted_dual: TruthTable | None
    notes: str
    base: TruthTable
    shifts: tuple[int, ...]
    poly: ReducedPoly


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


def _parity(x: int) -> int:
    return x.bit_count() & 1


def _full(dom) -> int:
    """The all-ones table on a domain."""
    return (1 << dom.size) - 1


def _trace_form(xs, columns, const: int, mask: int, full: int) -> int:
    """Packed table of parity((L(x) + const) & mask), L(e_j) = columns[j]."""
    bits = trace_planes(xs, pullback_mask(columns, mask))
    return bits ^ full if _parity(const & mask) else bits


# ---------------------------------------------------------------------------
# Kasami family (norm-form base Tr_sub(lambda * x^(2^m+1)))
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _kasami_bits(field: Field, lam: int) -> int:
    """Tr_sub(lam * x^(2^m+1)) = Tr(theta lam * x x^(2^m)), sliced."""
    xs = coordinate_tables(field.n)
    norm = field.mul_planes(xs, linear_planes(xs, field.frob_map(field.m)))
    return trace_planes(norm, field.subtrace_mask(lam))


def kasami_base(field: Field, lam: int) -> TruthTable:
    """The quadratic bent function Tr_sub(lambda * x^(2^m+1))."""
    _require_half(field)
    _check_lambda(field, lam)
    return TruthTable(field, _kasami_bits(field, lam))


def kasami_general(field: Field, lam: int, us, F: ReducedPoly,
                   strict: bool = False) -> ConstructedPair:
    """Kasami base plus F of trace forms, for shifts anywhere in the field.

    Shifts must pairwise satisfy Tr_sub(lambda^-1 * (ui^(2^m) uj + ui uj^(2^m)))
    = 0.  With strict=True the equivalent absolute-trace form
    Tr(lambda^-1 * ui^(2^m) uj) = 0 is checked as well.

    The predicted dual follows the derivation (base coefficient lambda^-1):
    the statement-form with an un-inverted lambda only agrees when lambda=1.
    """
    m = _require_half(field)
    _check_lambda(field, lam)
    us = list(us)
    _check_tau(F, len(us), m)
    lam_inv = field.inv(lam)
    ums = [field.frob(u, m) for u in us]
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            sym = field.mul(ums[i], us[j]) ^ field.mul(us[i], ums[j])
            if field.trace_sub(field.mul(lam_inv, sym)) != 0:
                raise PreconditionViolated(
                    f"trace condition fails for shift pair ({i + 1},{j + 1})")
            if strict and field.trace_abs(
                    field.mul(lam_inv, field.mul(ums[i], us[j]))) != 0:
                raise PreconditionViolated(
                    f"absolute-trace condition fails for pair ({i + 1},{j + 1})")
    base = kasami_base(field, lam)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))

    # dual: Tr_sub(lam^-1 (x^(2^m) u + x u^(2^m) + u^(2^m+1))) per shift
    xs = coordinate_tables(field.n)
    full = _full(field)
    smask = field.subtrace_mask(lam_inv)
    frob_m = field.frob_map(m)
    args = [_trace_form(xs, [field.mul(xm, u) ^ field.mul(1 << j, um)
                             for j, xm in enumerate(frob_m)],
                        field.mul(u, um), smask, full)
            for u, um in zip(us, ums)]
    bits = (_kasami_bits(field, lam_inv) ^ multipoly.compose(F, args, full)
            ^ full)
    return ConstructedPair(
        f=f, predicted_dual=TruthTable(field, bits),
        notes=f"KasamiGeneral n={field.n} lam={lam:#x} tau={F.tau}",
        base=base, shifts=tuple(us), poly=F)


def kasami_subfield(field: Field, lam: int, us, F: ReducedPoly) -> ConstructedPair:
    """Kasami family with independent subfield shifts; simplified dual."""
    m = _require_half(field)
    _check_lambda(field, lam)
    us = list(us)
    _check_subfield_units(field, us)
    if not field.lin_indep(us):
        raise NotIndependent("shift elements are dependent over F_2")
    _check_tau(F, len(us), m)
    base = kasami_base(field, lam)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))

    lam_inv = field.inv(lam)
    # dual: Tr(lam^-1 u x) + Tr_sub(lam^-1 u^2) per shift
    xs = coordinate_tables(field.n)
    full = _full(field)
    args = []
    for u in us:
        arg = trace_planes(xs, field.trace_mask(field.mul(lam_inv, u)))
        if field.trace_sub(field.mul(lam_inv, field.mul(u, u))):
            arg ^= full
        args.append(arg)
    bits = (_kasami_bits(field, lam_inv) ^ multipoly.compose(F, args, full)
            ^ full)
    return ConstructedPair(
        f=f, predicted_dual=TruthTable(field, bits),
        notes=f"KasamiSubfield n={field.n} lam={lam:#x} tau={F.tau}",
        base=base, shifts=tuple(us), poly=F)


def _normal_orbit(field: Field, u: int, F: ReducedPoly) -> list[int]:
    """Shifts u, u^2, ... of a normal subfield u, for rotation-symmetric F."""
    m = _require_half(field)
    if not field.is_normal(u, in_subfield=True):
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
    us = _normal_orbit(field, u, F)
    base = kasami_base(field, 1)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))

    # dual: same shape with every trace argument complemented, then +1
    xs = coordinate_tables(field.n)
    full = _full(field)
    args = [trace_planes(xs, field.trace_mask(v)) ^ full for v in us]
    bits = base.bits ^ multipoly.compose(F, args, full) ^ full
    return ConstructedPair(
        f=f, predicted_dual=TruthTable(field, bits),
        notes=f"KasamiIdempotent n={field.n} u={u:#x} d={F.degree()}",
        base=base, shifts=tuple(us), poly=F)


def kasami_antiselfdual(field: Field, F: ReducedPoly) -> ConstructedPair:
    """Anti-self-dual family over the trace-zero hyperplane basis."""
    m = _require_half(field)
    us = field.trace_zero_basis()
    _check_tau(F, m - 1, m)
    base = kasami_base(field, 1)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))
    return ConstructedPair(
        f=f, predicted_dual=boolfun.add_const(f, 1),
        notes=f"KasamiAntiSelfDual n={field.n} d={F.degree()}",
        base=base, shifts=tuple(us), poly=F)


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
        xs = coordinate_tables(field.n)
        bits ^= trace_planes(field.mul_planes(xs, linear_planes(xs, lin)),
                             field.trace_mask(1))
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
    base = quad_idempotent_g(field, c, eps)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))
    return ConstructedPair(
        f=f, predicted_dual=None,
        notes=f"QuadFamily n={field.n} c={''.join(map(str, c))} tau={F.tau}",
        base=base, shifts=tuple(us), poly=F)


def quad_idempotent_family(field: Field, c, eps: int, u: int,
                           F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent of prescribed degree from any quadratic base."""
    pair = quad_family(field, c, eps, _normal_orbit(field, u, F), F)
    return replace(
        pair, notes=f"QuadIdemFamily n={field.n} u={u:#x} d={F.degree()}")


# ---------------------------------------------------------------------------
# Gold-like family on GF(2^(4k))
# ---------------------------------------------------------------------------

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
    uks = [field.frob(u, k) for u in us]
    for i in range(len(us)):
        for j in range(i + 1, len(us)):
            sym = field.mul(uks[i], us[j]) ^ field.mul(us[i], uks[j])
            if field.trace_abs(field.mul(lam, sym)) != 0:
                raise PreconditionViolated(
                    f"trace condition fails for shift pair ({i + 1},{j + 1})")
    xs = coordinate_tables(field.n)
    full = _full(field)
    lmask = field.trace_mask(lam)
    frob_k = field.frob_map(k)
    base_bits = trace_planes(
        field.mul_planes(xs, linear_planes(xs, frob_k)), lmask)
    base = TruthTable(field, base_bits)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))

    # dual: Tr(lam (x^(2^k) u + x u^(2^k) + u^(2^k+1))) per shift
    args = [_trace_form(xs, [field.mul(xk, u) ^ field.mul(1 << j, uk)
                             for j, xk in enumerate(frob_k)],
                        field.mul(u, uk), lmask, full)
            for u, uk in zip(us, uks)]
    bits = base_bits ^ multipoly.compose(F, args, full)
    return ConstructedPair(
        f=f, predicted_dual=TruthTable(field, bits),
        notes=f"GoldLike n={field.n} k={k} lam={lam:#x} tau={F.tau}",
        base=base, shifts=tuple(us), poly=F)


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
def _niho_tables(field: Field, k: int) -> tuple[int, int, tuple[int, ...]]:
    """Base bits, dual bits, and the planes of A^(1/(2^k-1))."""
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
    return g_bits, d_bits, apow


def _check_niho(field: Field, k: int) -> int:
    m = _require_half(field)
    if k < 1 or math.gcd(k, m) != 1:
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
    g_bits, d_bits, apow = _niho_tables(field, k)
    base = TruthTable(field, g_bits)
    f = boolfun.add(base, multipoly.compose_traces(field, F, us))

    args = [trace_planes(apow, field.subtrace_mask(u)) for u in us]
    bits = d_bits ^ multipoly.compose(F, args, _full(field))
    return ConstructedPair(
        f=f, predicted_dual=TruthTable(field, bits),
        notes=f"Niho n={field.n} k={k} tau={F.tau}",
        base=base, shifts=tuple(us), poly=F)


# ---------------------------------------------------------------------------
# Maiorana-McFarland families on the bivariate grid
# ---------------------------------------------------------------------------

def mat_apply(rows, y: int) -> int:
    """Apply an F_2 matrix given as row bitmasks."""
    r = 0
    for i, row in enumerate(rows):
        r |= ((row & y).bit_count() & 1) << i
    return r


def _transpose(vectors) -> list[int]:
    """Row bitmasks of an F_2 matrix from its column bitmasks, or back."""
    return [sum(((v >> i) & 1) << j for j, v in enumerate(vectors))
            for i in range(len(vectors))]


def mat_invert(rows) -> tuple[int, ...]:
    """Inverse of an F_2 matrix in row-bitmask form."""
    cols = _transpose(rows)
    inv_cols = []
    for i in range(len(rows)):
        sol, kernel = solve_f2(cols, 1 << i)
        if kernel:
            raise SingularPermutation("matrix is not invertible over F_2")
        inv_cols.append(sol)  # x with M x = e_i
    return tuple(_transpose(inv_cols))


def _grid_planes(base: Field) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Planes of x and y on the grid: the high and low coordinate tables."""
    cs = coordinate_tables(2 * base.n)
    return cs[base.n:], cs[:base.n]


def _pair_traces(K: Field, xs, ys, pairs) -> list[int]:
    """Tables of Tr(u1 x + u2 y), one per shift pair."""
    return [trace_planes(xs, K.trace_mask(u1))
            ^ trace_planes(ys, K.trace_mask(u2)) for u1, u2 in pairs]


def _check_pairs(base: Field, us) -> list[tuple[int, int]]:
    pairs = [(int(a), int(b)) for a, b in us]
    vecs = [(a << base.n) | b for a, b in pairs]
    if rank(vecs) != len(vecs):
        raise NotIndependent("shift pairs are dependent as 2m-bit vectors")
    return pairs


def mm_linear(m: int, pi, b: int, us, F: ReducedPoly,
              modulus: int | None = None) -> ConstructedPair:
    """Tr(x pi(y)) + Tr(b y) + F of pair trace forms, pi a linear bijection.

    pi is an m x m matrix over F_2 in row-bitmask form.
    """
    K = Field(m, modulus)
    dom = BivariateDomain(K)
    rows = tuple(pi)
    if len(rows) != m:
        raise SingularPermutation(f"pi must be {m}x{m}")
    inv_rows = mat_invert(rows)
    pairs = _check_pairs(K, us)
    _check_tau(F, len(pairs), m)
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            t = (K.mul(pairs[i][1], mat_apply(inv_rows, pairs[j][0]))
                 ^ K.mul(pairs[j][1], mat_apply(inv_rows, pairs[i][0])))
            if K.trace_abs(t) != 0:
                raise PreconditionViolated(
                    f"trace condition fails for shift pair ({i + 1},{j + 1})")
    xs, ys = _grid_planes(K)
    full = _full(dom)
    tmask = K.trace_mask(1)
    bmask = K.trace_mask(b)
    base_bits = (trace_planes(K.mul_planes(
        xs, linear_planes(ys, _transpose(rows))), tmask)
        ^ trace_planes(ys, bmask))
    base = TruthTable(dom, base_bits)
    f = TruthTable(dom, base_bits ^ multipoly.compose(
        F, _pair_traces(K, xs, ys, pairs), full))

    # dual: Tr(y pi^-1(x) + b pi^-1(x)) + F(Tr((y + b) pi^-1(u1)
    # + u2 pi^-1(x) + u2 pi^-1(u1)), ...)
    pix = linear_planes(xs, _transpose(inv_rows))
    args = []
    for u1, u2 in pairs:
        w = mat_apply(inv_rows, u1)
        arg = (trace_planes(ys, K.trace_mask(w))
               ^ trace_planes(pix, K.trace_mask(u2)))
        if K.trace_abs(K.mul(b, w) ^ K.mul(u2, w)):
            arg ^= full
        args.append(arg)
    d_bits = (trace_planes(K.mul_planes(ys, pix), tmask)
              ^ trace_planes(pix, bmask) ^ multipoly.compose(F, args, full))
    shifts = tuple((u1 << m) | u2 for u1, u2 in pairs)
    return ConstructedPair(
        f=f, predicted_dual=TruthTable(dom, d_bits),
        notes=f"MMLinear m={m} b={b:#x} tau={F.tau}",
        base=base, shifts=shifts, poly=F)


def monomial_inverse_exponent(m: int, s: int) -> int:
    """d in 1..2^m-1 with d * (2^s + 1) = 1 mod 2^m - 1 (exists when m/s is
    odd); at m = 1 that is d = 1, so y -> y^d stays a permutation."""
    try:
        return pow((1 << s) + 1, -1, (1 << m) - 1) or 1
    except ValueError:
        raise NoModularInverse(
            f"2^{s}+1 is not invertible mod 2^{m}-1") from None


def mm_monomial(m: int, s: int, us, F: ReducedPoly,
                modulus: int | None = None) -> ConstructedPair:
    """Tr(x y^d) + F of pair trace forms, with d inverting 2^s + 1.

    Shift pairs come from GF(2^s) x GF(2^s) and must pairwise satisfy
    u1_i u2_j + u1_j u2_i = 0 and Tr(u1_i^2 u2_j + u2_i u1_j^2) = 0.
    """
    if s < 1 or m % s != 0 or (m // s) % 2 == 0:
        raise BadDivisor(f"need s | m with m/s odd, got m={m}, s={s}")
    d = monomial_inverse_exponent(m, s)
    K = Field(m, modulus)
    dom = BivariateDomain(K)
    pairs = _check_pairs(K, us)
    _check_tau(F, len(pairs), m)
    for u1, u2 in pairs:
        if K.frob(u1, s) != u1 or K.frob(u2, s) != u2:
            raise PreconditionViolated(
                f"pair ({u1:#x},{u2:#x}) is not in GF(2^{s}) x GF(2^{s})")
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a1, a2 = pairs[i]
            b1, b2 = pairs[j]
            if K.mul(a1, b2) ^ K.mul(b1, a2):
                raise PreconditionViolated(
                    f"cross product fails for shift pair ({i + 1},{j + 1})")
            t = K.mul(K.sqr(a1), b2) ^ K.mul(a2, K.sqr(b1))
            if K.trace_abs(t) != 0:
                raise PreconditionViolated(
                    f"trace condition fails for shift pair ({i + 1},{j + 1})")
    xs, ys = _grid_planes(K)
    full = _full(dom)
    base_bits = trace_planes(K.mul_planes(xs, K.pow_planes(ys, d)),
                             K.trace_mask(1))
    f_bits = base_bits ^ multipoly.compose(
        F, _pair_traces(K, xs, ys, pairs), full)
    shifts = tuple((u1 << m) | u2 for u1, u2 in pairs)
    return ConstructedPair(
        f=TruthTable(dom, f_bits), predicted_dual=None,
        notes=f"MMMonomial m={m} s={s} d={d} tau={F.tau}",
        base=TruthTable(dom, base_bits), shifts=shifts, poly=F)


# ---------------------------------------------------------------------------
# seeded parameter search
# ---------------------------------------------------------------------------

def random_poly(tau: int, rng: random.Random) -> ReducedPoly:
    """Random reduced polynomial with one to four monomials."""
    space = 1 << tau
    count = rng.randint(1, min(4, space))
    return ReducedPoly(tau, frozenset(rng.sample(range(space), count)))


def random_rotsym_poly(m: int, rng: random.Random) -> ReducedPoly:
    """Random rotation-symmetric polynomial from one or two shift orbits."""
    while True:
        F = multipoly.rotation_closure(rng.randrange(1, 1 << m), m)
        if rng.random() < 0.5:
            F = F + multipoly.rotation_closure(rng.randrange(1, 1 << m), m)
        if F.monomials:
            return F


def _scan(candidates, tau: int, rng: random.Random, accept,
          attempts: int = 32) -> list:
    """Pick tau values by wrapped scans from random start positions.

    Greedy choices can dead-end (an early pick may admit no partner), so
    a failed pass restarts from fresh positions before giving up.
    """
    count = len(candidates)
    for _ in range(attempts):
        chosen = []
        for _slot in range(tau):
            start = rng.randrange(count)
            for off in range(count):
                cand = candidates[(start + off) % count]
                if accept(chosen, cand):
                    chosen.append(cand)
                    break
            else:
                break
        if len(chosen) == tau:
            return chosen
    raise NoSolution("no candidate satisfies the shift conditions")


def _conjugate_shifts(field: Field, e: int, mask: int, tau: int,
                      rng: random.Random, cands, indep: bool = False):
    """tau shifts from cands with parity((u^(2^e) v + u v^(2^e)) & mask) = 0
    for every pair, and independent over F_2 if indep."""

    def accept(chosen, cand):
        if cand in chosen or indep and not field.lin_indep(chosen + [cand]):
            return False
        ce = field.frob(cand, e)
        return not any(_parity((field.mul(field.frob(u, e), cand)
                                ^ field.mul(u, ce)) & mask) for u in chosen)

    return _scan(cands, tau, rng, accept)


def kasami_valid_us(field: Field, lam: int, tau: int, rng: random.Random,
                    subfield_only: bool = False) -> list[int]:
    """Shift list satisfying the pairwise Kasami trace condition."""
    cands = ([u for u in field.subfield().members if u] if subfield_only
             else range(1, field.size))
    return _conjugate_shifts(field, field.m,
                             field.subtrace_mask(field.inv(lam)), tau, rng,
                             cands, subfield_only)


def gold_valid_us(field: Field, lam: int, tau: int,
                  rng: random.Random) -> list[int]:
    """Shift list satisfying the pairwise Gold-like trace condition."""
    return _conjugate_shifts(field, field.n // 4, field.trace_mask(lam), tau,
                             rng, range(1, field.size))


def random_invertible(m: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.getrandbits(m) for _ in range(m))
        if rank(rows) == m:
            return rows


def _grid_pairs(K: Field, cands, tau: int, rng: random.Random,
                ok) -> list[tuple[int, int]]:
    """tau independent pairs from cands (2m-bit vectors), pairwise ok."""
    split = BivariateDomain(K).split

    def accept(chosen, cand):
        vecs = chosen + [cand]
        return rank(vecs) == len(vecs) and all(
            ok(split(cand), split(prev)) for prev in chosen)

    return [split(v) for v in _scan(cands, tau, rng, accept)]


def mm_linear_params(m: int, tau: int, rng: random.Random,
                     modulus: int | None = None):
    """Random (pi, b, pairs) satisfying the linear-permutation conditions."""
    K = Field(m, modulus)
    rows = random_invertible(m, rng)
    inv_rows = mat_invert(rows)
    b = rng.randrange(K.size)

    def ok(p, q):
        return not K.trace_abs(K.mul(q[1], mat_apply(inv_rows, p[0]))
                               ^ K.mul(p[1], mat_apply(inv_rows, q[0])))

    return rows, b, _grid_pairs(K, range(1, K.size * K.size), tau, rng, ok)


def mm_monomial_pairs(m: int, s: int, tau: int, rng: random.Random,
                      modulus: int | None = None) -> list[tuple[int, int]]:
    """Random shift pairs in GF(2^s)^2 meeting the monomial-family conditions."""
    K = Field(m, modulus)
    sub = [y for y in range(K.size) if K.frob(y, s) == y]
    cands = [(a << m) | b for a in sub for b in sub if a or b]

    def ok(p, q):
        return not (K.mul(p[0], q[1]) ^ K.mul(q[0], p[1])) and not K.trace_abs(
            K.mul(K.sqr(p[0]), q[1]) ^ K.mul(p[1], K.sqr(q[0])))

    return _grid_pairs(K, cands, tau, rng, ok)


# ---------------------------------------------------------------------------
# ConstructionSpec and its JSON codec (bit-exact round trip)
# ---------------------------------------------------------------------------

@dataclass
class ConstructionSpec:
    family: str
    n: int
    mod: int | None = None
    lam: int | None = None
    c: tuple[int, ...] | None = None
    eps: int | None = None
    k: int | None = None
    s: int | None = None
    pi: tuple[int, ...] | None = None
    b: int | None = None
    u: tuple | None = None
    F: str | None = None


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
    ("eps", "eps", int, lambda v: _want(v, int)),
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
    """Parse a spec; malformed JSON or a missing or bad field is BadSpec."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise BadSpec(f"spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "family" not in doc:
        raise BadSpec("spec must be a JSON object with a family")
    name = doc["family"]
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise BadSpec(f"unknown family {name!r}")
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

def _F(spec: ConstructionSpec, tau: int | None = None) -> ReducedPoly:
    """The spec's F in tau variables, by default one per shift."""
    return multipoly.parse_poly(spec.F, len(spec.u) if tau is None else tau)


def _with_shifts(name: str, n: int, us, rng: random.Random,
                 **fields) -> ConstructionSpec:
    """A spec with shifts us and a random F in one variable per shift."""
    F = multipoly.format_poly(random_poly(len(us), rng))
    return ConstructionSpec(name, n, u=tuple(us), F=F, **fields)


def _build_kasami_idempotent(spec: ConstructionSpec) -> ConstructedPair:
    field = Field(spec.n, spec.mod)
    if len(spec.u) != 1:
        raise BadSpec("KasamiIdempotent takes one u, the normal element")
    return kasami_idempotent(field, spec.u[0], _F(spec, field.m))


def _build_quad_family(spec: ConstructionSpec) -> ConstructedPair:
    """One shift and F in m variables: the idempotent from a normal orbit."""
    field = Field(spec.n, spec.mod)
    try:
        F = _F(spec)
    except ArityMismatch:
        if len(spec.u) != 1:
            raise
        return quad_idempotent_family(field, spec.c, spec.eps or 0,
                                      spec.u[0], _F(spec, field.m))
    return quad_family(field, spec.c, spec.eps or 0, spec.u, F)


def _build_gold_like(spec: ConstructionSpec) -> ConstructedPair:
    field, k = Field(spec.n, spec.mod), spec.n // 4
    if spec.k not in (None, k):
        raise BadSpec(f"GoldLike needs k = n/4 = {k}, got k={spec.k}")
    lam = field.solve_semilinear(3 * k, 1) if spec.lam is None else spec.lam
    return gold_like(field, lam, spec.u, _F(spec))


# The samplers draw from rng in the order the seeded sweeps always have.

def _sample_kasami(name: str, n: int, rng: random.Random,
                   subfield_only: bool = False) -> ConstructionSpec:
    field = make_field(n)
    lam = rng.choice([y for y in field.subfield().members if y])
    us = kasami_valid_us(field, lam, rng.randint(1, field.m), rng,
                         subfield_only)
    return _with_shifts(name, n, us, rng, lam=lam)


def _sample_quad_family(n: int, rng: random.Random) -> ConstructionSpec:
    field = make_field(n)
    while True:
        c = tuple(rng.randint(0, 1) for _ in range(field.m + 1))
        if is_quad_bent_gcd(c):
            break
    us = rng.sample([y for y in field.subfield().members if y],
                    rng.randint(1, field.m))
    return _with_shifts("QuadFamily", n, us, rng, c=c, eps=rng.randint(0, 1))


def _sample_gold_like(n: int, rng: random.Random) -> ConstructionSpec:
    field, k = make_field(n), n // 4
    lam = field.solve_semilinear(3 * k, 1)
    us = gold_valid_us(field, lam, rng.randint(1, 2 * k), rng)
    return _with_shifts("GoldLike", n, us, rng, lam=lam, k=k)


def _sample_niho(n: int, rng: random.Random) -> ConstructionSpec:
    field, m = make_field(n), n // 2
    k = rng.choice([k for k in range(1, m + 1) if math.gcd(k, m) == 1])
    us = rng.sample([y for y in field.subfield().members if y],
                    rng.randint(1, m))
    return _with_shifts("Niho", n, us, rng, k=k)


def _sample_mm_linear(n: int, rng: random.Random) -> ConstructionSpec:
    m = n // 2
    rows, b, pairs = mm_linear_params(m, rng.randint(1, min(m, 3)), rng)
    return _with_shifts("MMLinear", n, pairs, rng, pi=rows, b=b)


def _sample_mm_monomial(n: int, rng: random.Random) -> ConstructionSpec:
    m = n // 2
    s = rng.choice([s for s in range(1, m + 1)
                    if m % s == 0 and (m // s) % 2 == 1])
    pairs = mm_monomial_pairs(m, s, 1 if s == 1 else rng.randint(1, 2), rng)
    return _with_shifts("MMMonomial", n, pairs, rng, s=s)


@dataclass(frozen=True)
class Family:
    """One family.  build and sample call the constructors by their module
    names at call time, so a tracer that rebinds them (perfbench/shim.py)
    sees every instance."""
    fields: tuple[str, ...]  # spec keys it needs besides family and n
    build: Callable          # spec -> ConstructedPair, or TruthTable (QuadIdem)
    sample: Callable         # (n, rng) -> a random valid ConstructionSpec
    claims: Callable = lambda spec, built: {"bent": True}  # -> Expectation
    scale: int = 2           # n = scale * size; the size is m, or k (n = 4k)
    pairs: bool = False      # u holds [x, y] pairs on the GF(2^m)^2 grid


FAMILIES = {
    "KasamiGeneral": Family(
        ("lambda", "u", "F"),
        lambda s: kasami_general(Field(s.n, s.mod), s.lam, s.u, _F(s)),
        lambda n, rng: _sample_kasami("KasamiGeneral", n, rng)),
    "KasamiSubfield": Family(
        ("lambda", "u", "F"),
        lambda s: kasami_subfield(Field(s.n, s.mod), s.lam, s.u, _F(s)),
        lambda n, rng: _sample_kasami("KasamiSubfield", n, rng, True),
        # degree deg F, or 2 (the quadratic base) for an affine F
        lambda s, b: {"bent": True, "degree": max(2, b.poly.degree())}),
    "KasamiIdempotent": Family(
        ("u", "F"), _build_kasami_idempotent,
        lambda n, rng: ConstructionSpec("KasamiIdempotent", n, u=(
            make_field(n).find_normal(rng.randrange((1 << n // 2) - 1),
                                      in_subfield=True),),
            F=multipoly.format_poly(random_rotsym_poly(n // 2, rng))),
        lambda s, b: {"bent": True, "idempotent": True,
                      "degree": max(2, b.poly.degree())}),
    "KasamiAntiSelfDual": Family(
        ("F",),
        lambda s: kasami_antiselfdual(Field(s.n, s.mod), _F(s, s.n // 2 - 1)),
        lambda n, rng: ConstructionSpec("KasamiAntiSelfDual", n, F=(
            multipoly.format_poly(random_poly(n // 2 - 1, rng)))),
        lambda s, b: {"bent": True, "duality": DualityClass.ANTI_SELF_DUAL}),
    "QuadIdem": Family(
        ("c",),
        lambda s: quad_idempotent_g(Field(s.n, s.mod), s.c, s.eps or 0),
        lambda n, rng: ConstructionSpec("QuadIdem", n, c=tuple(
            rng.randint(0, 1) for _ in range(n // 2 + 1)), eps=rng.randint(0, 1)),
        lambda s, b: {"bent": is_quad_bent_gcd(s.c), "idempotent": True}),
    "QuadFamily": Family(("c", "u", "F"), _build_quad_family,
                         _sample_quad_family),
    "GoldLike": Family(("u", "F"), _build_gold_like, _sample_gold_like,
                       scale=4),
    "Niho": Family(
        ("k", "u", "F"),
        lambda s: niho_family(Field(s.n, s.mod), s.k, s.u, _F(s)),
        _sample_niho),
    "MMLinear": Family(
        ("pi", "u", "F"),
        lambda s: mm_linear(s.n // 2, s.pi, s.b or 0, s.u, _F(s),
                            modulus=s.mod),
        _sample_mm_linear, pairs=True),
    "MMMonomial": Family(
        ("s", "u", "F"),
        lambda s: mm_monomial(s.n // 2, s.s, s.u, _F(s), modulus=s.mod),
        _sample_mm_monomial, pairs=True),
}


def build(spec: ConstructionSpec):
    """Materialize a ConstructionSpec.

    Returns a ConstructedPair, except for the bare QuadIdem base which
    returns its TruthTable.
    """
    family = FAMILIES[spec.family]
    if spec.n % family.scale:
        raise BadSpec(f"{spec.family} needs n divisible by {family.scale}, "
                      f"got n={spec.n}")
    return family.build(spec)
