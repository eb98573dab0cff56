"""Seeded parameter search, ConstructionSpec with its JSON codec, and the
family registry FAMILIES, whose build materializes a spec as the
ConstructedPair of a constructor of bentkit.constructions, for every
family; the pair carries its claims, so the registry states none.  The
samplers _draw shifts uniformly from the kernel of the picked shifts'
rows, the rows the constructors check: for a quadratic base the matrix
T B^-1 T of its _kasami_form, _gold_form or _mm_linear_form, which builds
no table and is cached per parameters, so a draw and its build share it.
Only construct and sweep load this module; the demos call the
constructors directly.
"""

from __future__ import annotations

import json
import math
import random
from collections import namedtuple

from . import constructions, gf2n, multipoly
from .constructions import (
    ConstructedPair,
    _gold_form,
    _kasami_form,
    _mm_linear_form,
    _mm_monomial_row,
    _require_half,
    is_quad_bent_gcd,
)
from .errors import ArityMismatch, BadSpec, NoSolution
from .gf2n import BivariateDomain, Field, apply_linear, rank
from .multipoly import ReducedPoly

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


def _draw(basis, tau: int, rng: random.Random, row,
          indep: bool = False) -> list:
    """Pick tau distinct nonzero v in the span of basis with
    parity(row(u) & v) = 0 for each earlier pick u, independent if indep.
    basis stays a basis of these fits, the kernel of the picked rows: a pick
    is uniform on its span, redrawn while 0, picked or (indep) spanned by
    the picks, then cuts basis by its row in one elimination step.  A pick
    is in its own kernel, so only a space with no fit left dead-ends.
    """
    chosen = []
    while len(chosen) < tau:
        taken = 1 << len(chosen) if indep else len(chosen) + 1
        if 1 << len(basis) <= taken:
            raise NoSolution("no shift satisfies the shift conditions")
        cand = apply_linear(basis, rng.getrandbits(len(basis)))
        if cand and (rank(chosen + [cand]) > len(chosen) if indep
                     else cand not in chosen):
            chosen.append(cand)
            r = row(cand)
            odd = [v for v in basis if (r & v).bit_count() & 1]
            basis = ([v for v in basis if v not in odd]
                     + [v ^ odd[0] for v in odd[1:]])
    return chosen


def kasami_valid_us(field: Field, lam: int, tau: int, rng: random.Random,
                    subfield_only: bool = False) -> list[int]:
    """Shift list whose pairs meet the Kasami pair condition."""
    basis = (field.subfield_basis(_require_half(field, 1)) if subfield_only
             else [1 << j for j in range(field.n)])
    return _draw(basis, tau, rng, _kasami_form(field, lam).row, subfield_only)


def gold_valid_us(field: Field, lam: int, tau: int,
                  rng: random.Random) -> list[int]:
    """Shift list whose pairs meet the Gold-like pair condition."""
    return _draw([1 << j for j in range(field.n)], tau, rng,
                 _gold_form(field, lam).row)


def random_invertible(m: int, rng: random.Random) -> tuple[int, ...]:
    while True:
        rows = tuple(rng.getrandbits(m) for _ in range(m))
        if rank(rows) == m:
            return rows


def mm_linear_params(K: Field, tau: int, rng: random.Random):
    """Random (pi, b, pairs) satisfying the linear-permutation conditions."""
    rows = random_invertible(K.n, rng)
    b = rng.randrange(K.size)
    shifts = _draw([1 << j for j in range(2 * K.n)], tau, rng,
                   _mm_linear_form(K, rows).row, indep=True)
    return rows, b, [BivariateDomain(K).split(u) for u in shifts]


def mm_monomial_pairs(K: Field, s: int, tau: int,
                      rng: random.Random) -> list[tuple[int, int]]:
    """Random shift pairs in GF(2^s)^2 meeting the monomial-family conditions."""
    sub = K.subfield_basis(s)
    shifts = _draw([y << K.n for y in sub] + sub, tau, rng,
                   _mm_monomial_row(K), indep=True)
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
# the family registry: spec fields, size rule, build and sampler
# ---------------------------------------------------------------------------

def _F(spec: ConstructionSpec, tau: int | None = None) -> ReducedPoly:
    """The spec's F in tau variables, by default one per shift."""
    return multipoly.parse_poly(spec.F, len(spec.u) if tau is None else tau)


def _with_shifts(name: str, n: int, us, rng: random.Random,
                 **fields) -> ConstructionSpec:
    """A spec with shifts us and a random F in one variable per shift."""
    F = multipoly.format_poly(random_poly(len(us), rng))
    return ConstructionSpec(name, n, u=tuple(us), F=F, **fields)


def _build_kasami_idempotent(spec: ConstructionSpec,
                              field: Field) -> ConstructedPair:
    if len(spec.u) != 1:
        raise BadSpec("KasamiIdempotent takes one u, the normal element")
    return constructions.kasami_idempotent(field, spec.u[0], _F(spec, field.m))


def _build_quad_family(spec: ConstructionSpec,
                       field: Field) -> ConstructedPair:
    """One shift and F in m variables: the idempotent from a normal orbit."""
    try:
        F = _F(spec)
    except ArityMismatch:
        if len(spec.u) != 1:
            raise
        return constructions.quad_idempotent_family(
            field, spec.c, spec.eps or 0, spec.u[0], _F(spec, field.m))
    return constructions.quad_family(field, spec.c, spec.eps or 0, spec.u, F)


def _build_gold_like(spec: ConstructionSpec,
                     field: Field) -> ConstructedPair:
    k = spec.n // 4
    if spec.k not in (None, k):
        raise BadSpec(f"GoldLike needs k = n/4 = {k}, got k={spec.k}")
    lam = field.solve_semilinear(3 * k, 1) if spec.lam is None else spec.lam
    return constructions.gold_like(field, lam, spec.u, _F(spec))


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


# One family.  build and sample call the constructors as
# constructions.<name> at call time, so a tracer that rebinds them
# (perfbench/shim.py) sees every instance.
#   fields    spec keys it needs besides family and n
#   build     (spec, field) -> ConstructedPair, with its claims
#   sample    (n, rng) -> a random valid ConstructionSpec
#   scale     n = scale * size; the size is m, or k (n = 4k); default 2
#   least     the least size the family is defined at; default 2
#   pairs     u holds [x, y] pairs on the GF(2^m)^2 grid; default False
#   optional  spec keys it may take besides mod; default none
Family = namedtuple(
    "Family", "fields build sample scale least pairs optional",
    defaults=(2, 2, False, ()))


FAMILIES = {
    "KasamiGeneral": Family(
        ("lambda", "u", "F"),
        lambda s, K: constructions.kasami_general(K, s.lam, s.u, _F(s)),
        lambda n, rng: _sample_kasami("KasamiGeneral", n, rng)),
    "KasamiSubfield": Family(
        ("lambda", "u", "F"),
        lambda s, K: constructions.kasami_subfield(K, s.lam, s.u, _F(s)),
        lambda n, rng: _sample_kasami("KasamiSubfield", n, rng, True)),
    "KasamiIdempotent": Family(
        ("u", "F"), _build_kasami_idempotent,
        lambda n, rng: ConstructionSpec("KasamiIdempotent", n, u=(
            gf2n.make_field(n).find_normal(rng.randrange((1 << n // 2) - 1)),),
            F=multipoly.format_poly(random_rotsym_poly(n // 2, rng)))),
    "KasamiAntiSelfDual": Family(
        ("F",),
        # the size is checked before F is read in m - 1 variables
        lambda s, K: constructions.kasami_antiselfdual(
            K, _F(s, _require_half(K) - 1)),
        lambda n, rng: ConstructionSpec("KasamiAntiSelfDual", n, F=(
            multipoly.format_poly(random_poly(
                _require_half(gf2n.make_field(n)) - 1, rng))))),
    "QuadIdem": Family(
        ("c",),
        lambda s, K: constructions.quad_idempotent_pair(K, s.c, s.eps or 0),
        lambda n, rng: ConstructionSpec("QuadIdem", n, c=tuple(
            rng.randint(0, 1) for _ in range(n // 2 + 1)), eps=rng.randint(0, 1)),
        least=1, optional=("eps",)),
    "QuadFamily": Family(
        ("c", "u", "F"), _build_quad_family, _sample_quad_family,
        least=1, optional=("eps",)),
    "GoldLike": Family(("u", "F"), _build_gold_like, _sample_gold_like,
                       scale=4, least=1, optional=("lambda", "k")),
    "Niho": Family(
        ("k", "u", "F"),
        lambda s, K: constructions.niho_family(K, s.k, s.u, _F(s)),
        _sample_niho),
    "MMLinear": Family(
        ("pi", "u", "F"),
        lambda s, K: constructions.mm_linear(K, s.pi, s.b or 0, s.u, _F(s)),
        _sample_mm_linear, least=1, pairs=True, optional=("b",)),
    "MMMonomial": Family(
        ("s", "u", "F"),
        lambda s, K: constructions.mm_monomial(K, s.s, s.u, _F(s)),
        _sample_mm_monomial, least=1, pairs=True),
}


def lookup_family(name) -> Family:
    """The family record of name; an unknown name is BadSpec."""
    family = FAMILIES.get(name) if isinstance(name, str) else None
    if family is None:
        raise BadSpec(f"unknown family {name!r}; "
                      f"known: {', '.join(FAMILIES)}")
    return family


def build(spec: ConstructionSpec) -> ConstructedPair:
    """Materialize a ConstructionSpec as its family's ConstructedPair."""
    family = lookup_family(spec.family)
    if spec.n < 1:
        raise BadSpec(f"{spec.family} needs n >= 1, got n={spec.n}")
    if spec.n % family.scale:
        raise BadSpec(f"{spec.family} needs n divisible by {family.scale}, "
                      f"got n={spec.n}")
    # every element lies in the spec's field: GF(2^m) on the grid, else GF(2^n)
    width = spec.n // 2 if family.pairs else spec.n
    elements = [v for v in (spec.lam, spec.b) if v is not None]
    for u in spec.u or ():
        elements += u if family.pairs else [u]
    if any(v.bit_length() > width for v in elements):
        raise BadSpec(f"{spec.family} field elements must be below "
                      f"2^{width}")
    return family.build(spec, gf2n.make_field(width, spec.mod))
