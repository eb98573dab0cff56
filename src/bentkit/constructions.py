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
from dataclasses import dataclass
from functools import lru_cache

from . import boolfun, multipoly
from .boolfun import TruthTable
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
    poly_gcd,
    pullback_mask,
    rank,
    solve_f2,
    trace_planes,
)
from .multipoly import ReducedPoly

# The JSON fields a spec of each family must carry besides family and n.
SPEC_FIELDS = {
    "KasamiGeneral": ("lambda", "u", "F"),
    "KasamiSubfield": ("lambda", "u", "F"),
    "KasamiIdempotent": ("u", "F"),
    "KasamiAntiSelfDual": ("F",),
    "QuadIdem": ("c",),
    "QuadFamily": ("c", "u", "F"),
    "GoldLike": ("u", "F"),
    "Niho": ("k", "u", "F"),
    "MMLinear": ("pi", "u", "F"),
    "MMMonomial": ("s", "u", "F"),
}
FAMILIES = tuple(SPEC_FIELDS)


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


def _normal_orbit(field: Field, u: int) -> list[int]:
    if not field.is_normal(u, in_subfield=True):
        raise NotNormal(f"{u:#x} is not a normal element of the subfield")
    orbit = []
    t = u
    for _ in range(field.m):
        orbit.append(t)
        t = field.sqr(t)
    return orbit


def kasami_idempotent(field: Field, u: int, F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent from a normal subfield orbit and rotation-symmetric F."""
    m = _require_half(field)
    us = _normal_orbit(field, u)
    if not multipoly.is_rotation_symmetric(F):
        raise NotRotationSymmetric("F must be invariant under cyclic shift")
    _check_tau(F, m, m)
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
    m = _require_half(field)
    us = _normal_orbit(field, u)
    if not multipoly.is_rotation_symmetric(F):
        raise NotRotationSymmetric("F must be invariant under cyclic shift")
    _check_tau(F, m, m)
    pair = quad_family(field, c, eps, us, F)
    return ConstructedPair(
        f=pair.f, predicted_dual=None,
        notes=f"QuadIdemFamily n={field.n} u={u:#x} d={F.degree()}",
        base=pair.base, shifts=pair.shifts, poly=F)


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

def bivariate_index(base: Field, x: int, y: int) -> int:
    """Grid index of the pair (x, y): high half x, low half y."""
    return (x << base.n) | y


def bivariate_split(base: Field, idx: int) -> tuple[int, int]:
    return idx >> base.n, idx & (base.size - 1)


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

    pi is an m x m matrix over F_2 in row-bitmask form (or rows of bits).
    """
    base_field = Field(m, modulus)
    dom = BivariateDomain(base_field)
    rows = tuple(r if isinstance(r, int) else
                 sum(bit << j for j, bit in enumerate(r)) for r in pi)
    if len(rows) != m:
        raise SingularPermutation(f"pi must be {m}x{m}")
    inv_rows = mat_invert(rows)
    pairs = _check_pairs(base_field, us)
    _check_tau(F, len(pairs), m)
    K = base_field
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
    """d with d * (2^s + 1) = 1 mod 2^m - 1 (exists when m/s is odd)."""
    try:
        return pow((1 << s) + 1, -1, (1 << m) - 1)
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
    # m = 1 gives d = 0, and y^0 = 1 everywhere
    ypow = K.pow_planes(ys, d) if d else add_const([0], 1, full)
    base_bits = trace_planes(K.mul_planes(xs, ypow), K.trace_mask(1))
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

def random_poly(tau: int, rng: random.Random, min_degree: int = 0) -> ReducedPoly:
    """Random reduced polynomial, rejection-sampled to reach min_degree."""
    space = 1 << tau
    while True:
        count = rng.randint(1, min(4, space))
        F = ReducedPoly(tau, frozenset(rng.sample(range(space), count)))
        if F.degree() >= min_degree:
            return F


def random_rotsym_poly(m: int, rng: random.Random,
                       min_degree: int = 0) -> ReducedPoly:
    """Random rotation-symmetric polynomial from one or two shift orbits."""
    while True:
        F = multipoly.rotation_closure(rng.randrange(1, 1 << m), m)
        if rng.random() < 0.5:
            F = F + multipoly.rotation_closure(rng.randrange(1, 1 << m), m)
        if F.monomials and F.degree() >= min_degree:
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


def kasami_valid_us(field: Field, lam: int, tau: int, rng: random.Random,
                    subfield_only: bool = False) -> list[int]:
    """Shift list satisfying the pairwise Kasami trace condition."""
    m = field.m
    lam_inv = field.inv(lam)
    smask = field.subtrace_mask(lam_inv)
    if subfield_only:
        cands = [u for u in field.subfield().members if u]
    else:
        cands = list(range(1, field.size))

    def accept(chosen, cand):
        if cand in chosen:
            return False
        if subfield_only and not field.lin_indep(chosen + [cand]):
            return False
        cm = field.frob(cand, m)
        for u in chosen:
            sym = field.mul(field.frob(u, m), cand) ^ field.mul(u, cm)
            if _parity(sym & smask):
                return False
        return True

    return _scan(cands, tau, rng, accept)


def gold_valid_us(field: Field, lam: int, tau: int,
                  rng: random.Random) -> list[int]:
    """Shift list satisfying the pairwise Gold-like trace condition."""
    k = field.n // 4
    tmask = field.trace_mask(1)

    def accept(chosen, cand):
        if cand == 0 or cand in chosen:
            return False
        ck = field.frob(cand, k)
        for u in chosen:
            sym = field.mul(field.frob(u, k), cand) ^ field.mul(u, ck)
            if _parity(field.mul(lam, sym) & tmask):
                return False
        return True

    return _scan(list(range(1, field.size)), tau, rng, accept)


def random_invertible(m: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.getrandbits(m) for _ in range(m))
        if rank(rows) == m:
            return rows


def mm_linear_params(m: int, tau: int, rng: random.Random,
                     modulus: int | None = None):
    """Random (pi, b, pairs) satisfying the linear-permutation conditions."""
    K = Field(m, modulus)
    rows = random_invertible(m, rng)
    inv_rows = mat_invert(rows)
    b = rng.randrange(K.size)

    def accept(chosen, cand):
        p1, p2 = cand >> m, cand & (K.size - 1)
        vecs = list(chosen) + [cand]
        if rank(vecs) != len(vecs):
            return False
        for prev in chosen:
            q1, q2 = prev >> m, prev & (K.size - 1)
            t = (K.mul(q2, mat_apply(inv_rows, p1))
                 ^ K.mul(p2, mat_apply(inv_rows, q1)))
            if K.trace_abs(t):
                return False
        return True

    vecs = _scan(list(range(1, K.size * K.size)), tau, rng, accept)
    pairs = [(v >> m, v & (K.size - 1)) for v in vecs]
    return rows, b, pairs


def mm_monomial_pairs(m: int, s: int, tau: int, rng: random.Random,
                      modulus: int | None = None) -> list[tuple[int, int]]:
    """Random shift pairs in GF(2^s)^2 meeting the monomial-family conditions."""
    K = Field(m, modulus)
    sub = [y for y in range(K.size) if K.frob(y, s) == y]
    cands = [(a << m) | b for a in sub for b in sub if a or b]

    def accept(chosen, cand):
        p1, p2 = cand >> m, cand & (K.size - 1)
        vecs = list(chosen) + [cand]
        if rank(vecs) != len(vecs):
            return False
        for prev in chosen:
            q1, q2 = prev >> m, prev & (K.size - 1)
            if K.mul(p1, q2) ^ K.mul(q1, p2):
                return False
            if K.trace_abs(K.mul(K.sqr(p1), q2) ^ K.mul(p2, K.sqr(q1))):
                return False
        return True

    vecs = _scan(cands, tau, rng, accept)
    return [(v >> m, v & (K.size - 1)) for v in vecs]


# ---------------------------------------------------------------------------
# ConstructionSpec serialization (JSON-shaped, bit-exact round trip)
# ---------------------------------------------------------------------------

@dataclass
class ConstructionSpec:
    family: str
    n: int
    mod: int | None = None
    lam: int | None = None
    c: tuple[int, ...] | None = None
    eps: int = 0
    k: int | None = None
    s: int | None = None
    pi: tuple[int, ...] | None = None
    b: int | None = None
    u: tuple | None = None
    F: str | None = None


def spec_to_json(spec: ConstructionSpec) -> str:
    doc: dict = {"family": spec.family, "n": spec.n}
    if spec.mod is not None:
        doc["mod"] = f"0x{spec.mod:x}"
    if spec.lam is not None:
        doc["lambda"] = f"0x{spec.lam:x}"
    if spec.c is not None:
        doc["c"] = list(spec.c)
        doc["eps"] = spec.eps
    if spec.k is not None:
        doc["k"] = spec.k
    if spec.s is not None:
        doc["s"] = spec.s
    if spec.pi is not None:
        m = len(spec.pi)
        doc["pi"] = [[(row >> j) & 1 for j in range(m)] for row in spec.pi]
    if spec.b is not None:
        doc["b"] = f"0x{spec.b:x}"
    if spec.u is not None:
        if spec.u and isinstance(spec.u[0], tuple):
            doc["u"] = [[f"0x{a:x}", f"0x{b:x}"] for a, b in spec.u]
        else:
            doc["u"] = [f"0x{v:x}" for v in spec.u]
    if spec.F is not None:
        doc["F"] = spec.F
    return json.dumps(doc, indent=2) + "\n"


def spec_from_json(text: str) -> ConstructionSpec:
    """Parse a spec; malformed JSON or a missing or bad field is BadSpec."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise BadSpec(f"spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or "family" not in doc:
        raise BadSpec("spec must be a JSON object with a family")
    family = doc["family"]
    if family not in SPEC_FIELDS:
        raise PreconditionViolated(f"unknown family {family!r}")
    missing = [key for key in ("n",) + SPEC_FIELDS[family] if key not in doc]
    if missing:
        raise BadSpec(f"{family} spec lacks {', '.join(missing)}")
    if "F" in doc and not isinstance(doc["F"], str):
        raise BadSpec("F must be a polynomial string such as 'X1*X2+X3'")
    try:
        u = None
        if "u" in doc:
            if family in ("MMLinear", "MMMonomial"):
                if not all(isinstance(p, list) for p in doc["u"]):
                    raise BadSpec(f"{family} shifts must be [x, y] pairs")
                u = tuple((int(a, 16), int(b, 16)) for a, b in doc["u"])
            else:
                u = tuple(int(v, 16) for v in doc["u"])
        pi = None
        if "pi" in doc:
            pi = tuple(sum(int(bit) << j for j, bit in enumerate(row))
                       for row in doc["pi"])
        return ConstructionSpec(
            family=family,
            n=int(doc["n"]),
            mod=int(doc["mod"], 16) if "mod" in doc else None,
            lam=int(doc["lambda"], 16) if "lambda" in doc else None,
            c=tuple(int(b) for b in doc["c"]) if "c" in doc else None,
            eps=int(doc.get("eps", 0)),
            k=int(doc["k"]) if "k" in doc else None,
            s=int(doc["s"]) if "s" in doc else None,
            pi=pi,
            b=int(doc["b"], 16) if "b" in doc else None,
            u=u,
            F=doc.get("F"),
        )
    except (TypeError, ValueError) as exc:
        raise BadSpec(f"malformed {family} spec: {exc}") from None


def build(spec: ConstructionSpec):
    """Materialize a ConstructionSpec.

    Returns a ConstructedPair, except for the bare QuadIdem base which
    returns its TruthTable.
    """
    family = spec.family
    if family in ("MMLinear", "MMMonomial"):
        m = spec.n // 2
        if family == "MMLinear":
            F = multipoly.parse_poly(spec.F, len(spec.u))
            return mm_linear(m, spec.pi, spec.b or 0, spec.u, F,
                             modulus=spec.mod)
        F = multipoly.parse_poly(spec.F, len(spec.u))
        return mm_monomial(m, spec.s, spec.u, F, modulus=spec.mod)

    field = Field(spec.n, spec.mod)
    m = field.m
    if family == "KasamiGeneral":
        return kasami_general(field, spec.lam, spec.u,
                              multipoly.parse_poly(spec.F, len(spec.u)))
    if family == "KasamiSubfield":
        return kasami_subfield(field, spec.lam, spec.u,
                               multipoly.parse_poly(spec.F, len(spec.u)))
    if family == "KasamiIdempotent":
        if len(spec.u) != 1:
            raise BadSpec("KasamiIdempotent takes one u, the normal element")
        return kasami_idempotent(field, spec.u[0],
                                 multipoly.parse_poly(spec.F, m))
    if family == "KasamiAntiSelfDual":
        return kasami_antiselfdual(field,
                                   multipoly.parse_poly(spec.F, m - 1))
    if family == "QuadIdem":
        return quad_idempotent_g(field, spec.c, spec.eps)
    if family == "QuadFamily":
        if len(spec.u) == 1 and m > 1:
            try:
                F = multipoly.parse_poly(spec.F, 1)
            except ArityMismatch:
                F = multipoly.parse_poly(spec.F, m)
                return quad_idempotent_family(field, spec.c, spec.eps,
                                              spec.u[0], F)
            return quad_family(field, spec.c, spec.eps, spec.u, F)
        return quad_family(field, spec.c, spec.eps, spec.u,
                           multipoly.parse_poly(spec.F, len(spec.u)))
    if family == "GoldLike":
        lam = spec.lam
        if lam is None:
            lam = field.solve_semilinear(3 * (field.n // 4), 1)
        return gold_like(field, lam, spec.u,
                         multipoly.parse_poly(spec.F, len(spec.u)))
    if family == "Niho":
        return niho_family(field, spec.k, spec.u,
                           multipoly.parse_poly(spec.F, len(spec.u)))
    raise PreconditionViolated(f"unknown family {family!r}")
