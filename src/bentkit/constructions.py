"""One constructor per bent-function family, with predicted duals.

Every family is a bent base g plus F(Tr(u_1 x), ..., Tr(u_tau x)), and one
theorem covers them all: if D_ui D_uj g~ = 0 for all i < j, with
D_u h(x) = h(x) + h(x + u), then f is bent with dual

    f~ = g~ + F(D_u1 g~, ..., D_utau g~).

So each family states one Base(dom, g, gdual, row): its base table g, its
base dual g~ (None for QuadFamily and MMMonomial, whose duals verification
computes from the spectrum), and an n-bit mask row(u) with
D_u D_v g~ = 0 iff parity(row(u) & v) = 0, as that is F_2-linear in v.
_shifted(base, shifts, F, notes), every family's gate, checks F's arity
and builds f and the predicted dual; _differences(base, shifts) checks the
row on every pair of shifts and computes the D_ui g~, keeping the last
base and shift tuple, so a degree ladder's rungs check and translate once.
Each pair also carries the base, the shifts u_i and F, so the identity

    W_f(beta) = 2^(n/2 - tau) * sum_w chat[w] * (-1)^(gdual(beta + w.u))

can be re-checked against any instance.  A pair carries its claims too:
the Expectation its constructor's theorem guarantees, set where the
hypotheses are checked (_shifted claims bent, and a family adds the rest).

The Kasami, Gold and MMLinear bases are quadratic, and one rule gives
their g~ and row from g's polar matrix B and the Walsh index map T:
g~(beta) = g(B^-1 T beta) + [W_g(0) < 0] and row(u) = T B^-1 T u
(_quadratic).  B needs no table, so bentkit.specs draws shifts under the
same rows.  Niho and MMMonomial, not quadratic, state their own.

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
from functools import lru_cache, partial
from itertools import combinations

from . import multipoly
from .boolfun import DualityClass, Expectation, TruthTable
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
    translate,
    transpose,
)
from .multipoly import ReducedPoly

# f = base + poly(Tr(shifts[0] x), ...), its dual (None where the family
# has no dual formula), a one-line label and the Expectation f must meet;
# a bare base (QuadIdem) has f = base, no shifts, poly None and no dual
ConstructedPair = namedtuple(
    "ConstructedPair", "f predicted_dual notes base shifts poly claims")


# a bent base on dom: tables g, g~ (None: no dual formula) and the pair test
# row(u) (None: any pair passes); it equals only itself, so it hashes in O(1)
# (__ne__ is set too: tuple's would still compare the tables)
class Base(namedtuple("Base", "dom g gdual row")):
    __slots__ = ()
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


# ---------------------------------------------------------------------------
# shared validation helpers
# ---------------------------------------------------------------------------

def _require_half(field: Field, least: int = 2) -> int:
    if field.m is None or field.m < least:
        raise PreconditionViolated(
            f"need n = 2m with m >= {least}, got n={field.n}")
    return field.m


def _check_lambda(field: Field, lam: int) -> None:
    _require_half(field)
    if lam == 0:
        raise BadLambda("lambda must be nonzero")
    if field.frob(lam, field.m) != lam:
        raise BadLambda(f"lambda {lam:#x} is not in the subfield")


def _check_subfield_units(field: Field, us) -> None:
    m = field.m
    for u in us:
        if u == 0:
            raise ZeroCoefficient("shift elements must be nonzero")
        if field.frob(u, m) != u:
            raise NotInSubfield(f"shift {u:#x} is not in GF(2^{m})")


# Each base builder keeps its 16 latest bases, tables of 2^n bits (2 MiB at
# n = 24), and each form builder its 16 latest forms, which hold no table.
_base_cache = lru_cache(maxsize=16)


def _full(dom) -> int:
    """The all-ones table on a domain."""
    return (1 << dom.size) - 1


def _shifted(base: Base, shifts: tuple[int, ...], F: ReducedPoly,
             notes: str, **claims) -> ConstructedPair:
    """The pair f = g + F(Tr(u_1 x), ..., Tr(u_tau x)), with the dual
    g~ + F(D_u1 g~, ...) when g~ is known, claimed bent and whatever else
    claims adds.  F needs one variable per shift, and 1 <= tau <= n/2:
    checked before any pair is judged."""
    dom, g, gdual, _ = base
    if F.tau != len(shifts):
        raise ArityMismatch(
            f"F has {F.tau} variables but {len(shifts)} shifts")
    if not 1 <= F.tau <= dom.n // 2:
        raise ArityMismatch(f"tau={F.tau} outside 1..{dom.n // 2}")
    diffs = _differences(base, shifts)
    return ConstructedPair(
        f=TruthTable(dom, g ^ multipoly.compose_traces(dom, F, shifts)),
        predicted_dual=(None if diffs is None else TruthTable(
            dom, gdual ^ multipoly.compose(F, diffs, _full(dom)))),
        notes=notes, base=TruthTable(dom, g), shifts=shifts, poly=F,
        claims=Expectation(bent=True, **claims))


# The demos build many F on one base and one shift list (a degree ladder,
# Mesnager's triple and its sum), so the last checked list is kept.
@lru_cache(maxsize=1)
def _differences(base: Base, shifts: tuple[int, ...]):
    """The D_ui g~ (None without g~) of shifts that pass the pair test,
    D_u D_v g~ = 0, that is parity(row(u) & v) = 0, on every pair; a shift
    beyond the n index bits is a ValueError before any pair is judged."""
    dom, _, gdual, row = base
    for u in shifts:
        if u >> dom.n:  # also every u < 0
            raise ValueError(f"shift {u:#x} leaves {dom.n} index bits")
    rows = [row(u) for u in shifts[:-1]] if row else []  # no pair reads u_tau
    for i, j in combinations(range(len(rows) + 1), 2):
        if (rows[i] & shifts[j]).bit_count() & 1:
            raise PreconditionViolated(
                f"shift condition fails for pair ({i + 1},{j + 1})")
    return (None if gdual is None  # D_u g~
            else [gdual ^ translate(gdual, dom.n, u) for u in shifts])


# g(v) = Tr_K(A(v) C(v)) on dom, A and C the columns of linear maps from
# the n index bits into a field K, with the maps that _quadratic derives
Quadratic = namedtuple("Quadratic", "dom K A C M row")


def _product(K: Field, A, C) -> int:
    """The sliced table v -> Tr_K(A(v) C(v))."""
    xs = coordinate_tables(len(A))
    return apply_linear(K.mul_planes(linear_planes(xs, A)[:K.n],
                                     linear_planes(xs, C)[:K.n]),
                        K.trace_mask(1))


def _quadratic(dom, K: Field, A, C) -> Quadratic:
    """g's maps M = B^-1 T and row(u) = T M u, from no table: B = X + X^T is
    g's polar matrix, with X_ij = Tr_K(A e_i C e_j), so column j of X is
    A^T Trmask(C e_j), and T is the Walsh index map; as g~(beta) = g(M beta)
    + const (_quadratic_base), the polar matrix of g~ is M^T B M = T B^-1 T."""
    At = transpose(A)
    X = [apply_linear(At, K.trace_mask(c)) for c in C]
    inv = invert([x ^ y for x, y in zip(X, transpose(X))])
    M = [apply_linear(inv, dom.walsh_index(1 << j)) for j in range(dom.n)]
    return Quadratic(dom, K, A, C, M,
                     partial(apply_linear, [dom.walsh_index(v) for v in M]))


def _quadratic_base(q: Quadratic, lin: int = 0) -> Base:
    """The base g + parity(lin & v), its dual and its row.

    For B a = T beta, g(x + a) = g(x) + Tr(beta x) + g(a), as g(0) = 0, so
    W_g(beta) = (-1)^g(a) W_g(0): g~(beta) = g(M beta) + [W_g(0) < 0], the
    sliced product on A M and C M, and W_g(0) < 0 iff wt(g) > 2^(n-1).
    """
    dom, K, A, C, M, row = q
    xs = coordinate_tables(dom.n)
    g = _product(K, A, C) ^ apply_linear(xs, lin)
    gdual = (_product(K, [apply_linear(A, v) for v in M],
                      [apply_linear(C, v) for v in M])
             ^ apply_linear(xs, apply_linear(transpose(M), lin)))
    if 2 * g.bit_count() > dom.size:
        gdual ^= _full(dom)
    return Base(dom, g, gdual, row)


# ---------------------------------------------------------------------------
# Kasami family (norm-form base Tr_sub(lambda * x^(2^m+1)))
# ---------------------------------------------------------------------------

@_base_cache
def _kasami_form(field: Field, lam: int) -> Quadratic:
    """Tr_sub(lam x^(2^m+1)) = Tr(x theta lam x^(2^m)), where
    theta + theta^(2^m) = 1."""
    c = field.mul(field.solve_semilinear(field.m, 1), lam)
    return _quadratic(field, field, field.frob_map(0),
                      [field.mul(c, v) for v in field.frob_map(field.m)])


@_base_cache
def _kasami_base(field: Field, lam: int) -> Base:
    return _quadratic_base(_kasami_form(field, lam))


def kasami_general(field: Field, lam: int, us,
                   F: ReducedPoly) -> ConstructedPair:
    """Kasami base plus F of trace forms, for shifts anywhere in the field
    that pairwise meet D_u D_v g~ = 0 on the base's dual g~."""
    _check_lambda(field, lam)
    return _shifted(_kasami_base(field, lam), tuple(us), F,
                    f"KasamiGeneral n={field.n} lam={lam:#x} tau={F.tau}")


def kasami_subfield(field: Field, lam: int, us, F: ReducedPoly) -> ConstructedPair:
    """Kasami family with independent subfield shifts."""
    _check_lambda(field, lam)
    us = tuple(us)
    _check_subfield_units(field, us)
    if rank(us) != len(us):
        raise NotIndependent("shift elements are dependent over F_2")
    # degree deg F, or 2 (the quadratic base) for an affine F
    return _shifted(_kasami_base(field, lam), us, F,
                    f"KasamiSubfield n={field.n} lam={lam:#x} tau={F.tau}",
                    degree=max(2, F.degree()))


def _idempotent_orbit(field: Field, u: int, F: ReducedPoly) -> tuple:
    """The shifts u, u^2, ..., u^(2^(m-1)) of a normal subfield element u,
    for a rotation-symmetric F, and the claims they add to bent: f is
    idempotent, of degree deg F, or 2 (the quadratic base) for an affine F.
    """
    _require_half(field)
    if not field.is_normal(u):
        raise NotNormal(f"{u:#x} is not a normal element of the subfield")
    if not multipoly.is_rotation_symmetric(F):
        raise NotRotationSymmetric("F must be invariant under cyclic shift")
    return (tuple(field.orbit(u)),
            {"idempotent": True, "degree": max(2, F.degree())})


def kasami_idempotent(field: Field, u: int, F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent from a normal subfield orbit and rotation-symmetric F."""
    us, claims = _idempotent_orbit(field, u, F)
    return _shifted(_kasami_base(field, 1), us, F,
                    f"KasamiIdempotent n={field.n} u={u:#x} d={F.degree()}",
                    **claims)


def kasami_antiselfdual(field: Field, F: ReducedPoly) -> ConstructedPair:
    """Anti-self-dual family over the trace-zero hyperplane basis."""
    _require_half(field)
    return _shifted(_kasami_base(field, 1), tuple(field.trace_zero_basis()), F,
                    f"KasamiAntiSelfDual n={field.n} d={F.degree()}",
                    duality=DualityClass.ANTI_SELF_DUAL)


# ---------------------------------------------------------------------------
# Quadratic idempotent family
# ---------------------------------------------------------------------------

@_base_cache
def _quad_base(field: Field, c: tuple[int, ...], eps: int) -> Base:
    """The quadratic idempotent from one sliced product; no dual or row.

    sum_{i<m} c_i Tr(x^(2^i+1)) + c_m Tr_sub(x^(2^m+1)) = Tr(x L(x)) for
    L(x) = sum_{i<m} c_i x^(2^i) + c_m theta x^(2^m), as in _kasami_form.
    """
    m = field.m
    maps = [field.frob_map(i) for i in range(m) if c[i]]
    if c[m]:
        maps.append(_kasami_form(field, 1).C)
    lin = [0] * field.n
    for cols in maps:
        lin = [a ^ b for a, b in zip(lin, cols)]
    g = _product(field, field.frob_map(0), lin)
    return Base(field, g ^ _full(field) if eps else g, None, None)


def _quad_coeffs(field: Field, c) -> tuple[int, ...]:
    """c as the m + 1 coefficient bits of a quadratic idempotent."""
    m = _require_half(field, 1)
    c = tuple(int(b) & 1 for b in c)
    if len(c) != m + 1:
        raise ArityMismatch(f"need m+1={m + 1} coefficient bits, got {len(c)}")
    return c


def quad_idempotent_g(field: Field, c, eps: int = 0) -> TruthTable:
    """Quadratic idempotent sum_i c_i Tr(x^(2^i+1)) + c_m Tr_sub(x^(2^m+1)) + eps."""
    c = _quad_coeffs(field, c)
    return TruthTable(field, _quad_base(field, c, eps & 1).g)


def quad_idempotent_pair(field: Field, c, eps: int = 0) -> ConstructedPair:
    """quad_idempotent_g as a pair with no shifts and no dual, claimed
    idempotent, and bent iff c passes is_quad_bent_gcd."""
    f = quad_idempotent_g(field, c, eps)  # its own base, with no F
    return ConstructedPair(f, None, f"QuadIdem m={field.m}", f, (), None,
                           Expectation(is_quad_bent_gcd(c), idempotent=True))


def is_quad_bent_gcd(c) -> bool:
    """Bentness test for the quadratic idempotent via an F_2[X] gcd.

    The coefficient polynomial sum_{i=1}^{m-1} c_i (X^i + X^(n-i)) + c_m X^m
    must be coprime to X^n + 1; the affine bits c_0 and eps never matter.
    """
    c = tuple(int(b) & 1 for b in c)
    if len(c) < 2:
        raise ArityMismatch(f"need m+1 >= 2 coefficient bits, got {len(c)}")
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
    c = _quad_coeffs(field, c)
    if not is_quad_bent_gcd(c):
        raise BaseNotBent("coefficient vector fails the gcd bentness test")
    us = tuple(us)
    _check_subfield_units(field, us)
    return _shifted(_quad_base(field, c, eps & 1), us, F, "QuadFamily "
                    f"n={field.n} c={''.join(map(str, c))} tau={F.tau}")


def quad_idempotent_family(field: Field, c, eps: int, u: int,
                           F: ReducedPoly) -> ConstructedPair:
    """Bent idempotent of prescribed degree from any quadratic base."""
    us, claims = _idempotent_orbit(field, u, F)
    pair = quad_family(field, c, eps, us, F)
    return pair._replace(
        notes=f"QuadIdemFamily n={field.n} u={u:#x} d={F.degree()}",
        claims=pair.claims._replace(**claims))


# ---------------------------------------------------------------------------
# Gold-like family on GF(2^(4k))
# ---------------------------------------------------------------------------

@_base_cache
def _gold_form(field: Field, lam: int) -> Quadratic:
    """Tr(x lam x^(2^k)) with k = n/4."""
    frob = field.frob_map(field.n // 4)
    return _quadratic(field, field, field.frob_map(0),
                      [field.mul(lam, v) for v in frob])


@_base_cache
def _gold_base(field: Field, lam: int) -> Base:
    return _quadratic_base(_gold_form(field, lam))


def gold_like(field: Field, lam: int, us, F: ReducedPoly) -> ConstructedPair:
    """Self-dual Gold-like base Tr(lambda x^(2^k+1)) plus F of trace forms."""
    if field.n % 4 != 0:
        raise BadDimension(f"n={field.n} is not 4k")
    k = field.n // 4
    if lam ^ field.frob(lam, 3 * k) != 1:
        raise LambdaConstraintViolated(
            f"lambda {lam:#x} fails lambda + lambda^(2^(3k)) = 1")
    return _shifted(_gold_base(field, lam), tuple(us), F,
                    f"GoldLike n={field.n} k={k} lam={lam:#x} tau={F.tau}")


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
    return apply_linear(xp, tmask) ^ apply_linear(xs, tmask)


@_base_cache
def _niho_base(field: Field, k: int) -> Base:
    """Base Tr_sub(x^(2^m+1)) + _niho_sum, the norm term from
    _kasami_form, and its dual; subfield shifts need no row.

    _niho_sum is a function of its own so that its planes are freed
    before the dual's are built, which keeps the peak at that of the dual.
    """
    m = field.m
    xs = coordinate_tables(field.n)
    full = _full(field)
    q = _kasami_form(field, 1)
    g_bits = _product(field, q.A, q.C) ^ _niho_sum(field, k)
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
    d_bits = apply_linear(field.mul_planes(B, apow), field.subtrace_mask(1))
    return Base(field, g_bits, d_bits, None)


def _check_niho(field: Field, k: int) -> None:
    m = _require_half(field)
    if not 1 <= k <= m:
        raise PreconditionViolated(f"need 1 <= k <= m = {m}, got k={k}")
    if math.gcd(k, m) != 1:
        raise GcdViolated(f"need gcd(k, m) = 1, got k={k}, m={m}")


def niho_g(field: Field, k: int) -> TruthTable:
    """Niho-exponent bent base; k=1 degenerates to the norm-form base."""
    _check_niho(field, k)
    return TruthTable(field, _niho_base(field, k).g)


def niho_dual_g(field: Field, k: int) -> TruthTable:
    """Closed-form dual of the Niho base."""
    _check_niho(field, k)
    return TruthTable(field, _niho_base(field, k).gdual)


def niho_family(field: Field, k: int, us, F: ReducedPoly) -> ConstructedPair:
    """Niho base plus F of trace forms with subfield shifts."""
    _check_niho(field, k)
    us = tuple(us)
    _check_subfield_units(field, us)
    return _shifted(_niho_base(field, k), us, F,
                    f"Niho n={field.n} k={k} tau={F.tau}")


# ---------------------------------------------------------------------------
# Maiorana-McFarland families on the bivariate grid
# ---------------------------------------------------------------------------

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


@_base_cache
def _mm_linear_form(K: Field, pi: tuple[int, ...]) -> Quadratic:
    """Tr(x pi(y)) on the grid: A reads x, the high half of an index, and C
    is pi of y, the low half."""
    m = K.n
    return _quadratic(BivariateDomain(K), K, [0] * m + K.frob_map(0),
                      transpose(pi) + [0] * m)


def mm_linear(K: Field, pi, b: int, us, F: ReducedPoly) -> ConstructedPair:
    """Tr(x pi(y)) + Tr(b y) + F of pair trace forms on K = GF(2^m).

    pi is a linear bijection, an m x m matrix over F_2 in row-bitmask form.
    """
    m = K.n
    if len(pi) != m or any(row >> m for row in pi):  # also every row < 0
        raise SingularPermutation(f"pi must be {m}x{m}")
    q = _mm_linear_form(K, tuple(pi))
    shifts = _check_pairs(K, us)
    return _shifted(_quadratic_base(q, K.trace_mask(b)), shifts, F,
                    f"MMLinear m={m} b={b:#x} tau={F.tau}")


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
                      | K.trace_mask(K.frob(u >> K.n, 1)))


@_base_cache
def _mm_monomial_base(dom: BivariateDomain, d: int) -> Base:
    """Tr(x y^d) on the grid; no dual formula."""
    K, cs = dom.base, coordinate_tables(dom.n)  # x is the high half, y low
    g = apply_linear(K.mul_planes(cs[K.n:], K.pow_planes(cs[:K.n], d)),
                     K.trace_mask(1))
    return Base(dom, g, None, _mm_monomial_row(K))


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
    for u1, u2 in map(dom.split, shifts):
        if K.frob(u1, s) != u1 or K.frob(u2, s) != u2:
            raise PreconditionViolated(
                f"pair ({u1:#x},{u2:#x}) is not in GF(2^{s}) x GF(2^{s})")
    return _shifted(_mm_monomial_base(dom, d), shifts, F,
                    f"MMMonomial m={m} s={s} d={d} tau={F.tau}")
