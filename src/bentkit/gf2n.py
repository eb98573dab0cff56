"""Exact arithmetic in GF(2^n) with a polynomial-basis representation.

Field elements are plain ints: bit i of an element is the coefficient of
the degree-i basis monomial, so elements double as truth-table indices
(the element/index map is the identity).  0 and 1 are the additive and
multiplicative identities, addition is ``^``.  All operations are pure;
a Field never mutates after construction apart from internal caches.

Polynomials over F_2 (used for the modulus and the quadratic-family gcd
test) are also ints: bit i is the coefficient of X^i.  Without an explicit
modulus, Field(n) takes the smallest irreducible polynomial of degree n
with constant term 1, found by an upward scan (X + 1 at n = 1, 0x11b at
n = 8).

For even n = 2m the subfield GF(2^m) is the one the constructions use:
subfield() lists its members, trace_sub() is its trace, and a normal
element (is_normal, find_normal) is always one of GF(2^m).
"""

from __future__ import annotations

import functools

from .errors import (
    DimensionTooSmall,
    NoSolution,
    NotInSubfield,
    ReducibleModulus,
    SingularPermutation,
    UnsupportedDegree,
    ZeroElement,
)

MAX_DEGREE = 28
# Largest n with tables on 2^n indices: at n = 24 the carlet degree ladder
# takes 74 CPU s and 406 MB peak RSS in a child process (2-core Xeon,
# CPython 3.11), and each step of 2 in n costs 6-9x that.
MAX_TABLE_DEGREE = 24

# ---------------------------------------------------------------------------
# F_2[X] helpers on int bitmasks
# ---------------------------------------------------------------------------

def poly_mul(a: int, b: int) -> int:
    """Carry-less product of two F_2[X] polynomials."""
    if (a | b) < 0:
        raise ValueError(f"negative polynomial operand in {a} * {b}")
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def poly_mod(a: int, m: int) -> int:
    """Remainder of a modulo m over F_2[X]."""
    dm = m.bit_length() - 1
    while a and a.bit_length() - 1 >= dm:
        a ^= m << (a.bit_length() - 1 - dm)
    return a


def poly_mulmod(a: int, b: int, m: int) -> int:
    return poly_mod(poly_mul(a, b), m)


def poly_gcd(a: int, b: int) -> int:
    """Greatest common divisor over F_2[X] (monic by construction)."""
    while b:
        a, b = b, poly_mod(a, b)
    return a


def _prime_factors(n: int) -> set[int]:
    fs = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs.add(d)
            n //= d
        d += 1
    if n > 1:
        fs.add(n)
    return fs


def is_irreducible(p: int) -> bool:
    """Rabin's irreducibility test for a polynomial over F_2."""
    n = p.bit_length() - 1
    if n <= 0:
        return False
    if n == 1:
        return True
    x = 0b10
    t = x
    for _ in range(n):
        t = poly_mulmod(t, t, p)
    if t != x:
        return False
    for q in _prime_factors(n):
        t = x
        for _ in range(n // q):
            t = poly_mulmod(t, t, p)
        if poly_gcd(t ^ x, p) != 1:
            return False
    return True


def default_modulus(n: int) -> int:
    """Smallest degree-n irreducible with constant term 1: X + 1 at n = 1."""
    return next(p for p in range((1 << n) | 1, 2 << n, 2)
                if is_irreducible(p))


# ---------------------------------------------------------------------------
# F_2-linear algebra on int coordinate vectors
# ---------------------------------------------------------------------------

def _pivots(vectors):
    """Leading-bit elimination: pivots maps a leading bit to (v, c), a sum v
    of inputs and the mask c of the inputs it sums; kernel holds c for each
    input that reduced to 0, a basis of {x : sum_j x_j vectors[j] = 0}."""
    pivots = {}
    kernel = []
    for j, v in enumerate(vectors):
        c = 1 << j
        while v:
            lead = v.bit_length() - 1
            if lead in pivots:
                pv, pc = pivots[lead]
                v ^= pv
                c ^= pc
            else:
                pivots[lead] = (v, c)
                break
        if v == 0:
            kernel.append(c)
    return pivots, kernel


def _combination(pivots, t: int):
    """Mask of the inputs summing to t, or None if t is outside their span."""
    combo = 0
    while t:
        lead = t.bit_length() - 1
        if lead not in pivots:
            return None
        pv, pc = pivots[lead]
        t ^= pv
        combo ^= pc
    return combo


def rank(vectors) -> int:
    """Rank over F_2 of a list of int coordinate vectors."""
    return len(_pivots(vectors)[0])


def solve_f2(images: list[int], target: int):
    """Solve sum_j x_j * images[j] = target over F_2.

    Returns (solution_mask, kernel_basis); solution_mask is None when the
    target is outside the span.  kernel_basis spans {x : L(x) = 0}.
    """
    pivots, kernel = _pivots(images)
    return _combination(pivots, target), kernel


def apply_linear(columns, x: int) -> int:
    """L(x) for the F_2-linear map with L(e_j) = columns[j].

    x must have no bit beyond the columns, so an element from outside the
    space cannot be silently truncated.  On the bit planes of a sliced
    table and a mask, it returns the packed table of parity(v & mask).
    """
    if x >> len(columns):
        raise ValueError(f"{x:#x} has bits beyond {len(columns)} columns")
    r = j = 0
    while x:
        if x & 1:
            r ^= columns[j]
        x >>= 1
        j += 1
    return r


def transpose(vectors) -> list[int]:
    """Rows of a square F_2 matrix from its columns, or columns from rows."""
    return [sum(((v >> i) & 1) << j for j, v in enumerate(vectors))
            for i in range(len(vectors))]


def invert(columns) -> list[int]:
    """Columns of the inverse of a square F_2 matrix given by its columns.

    As (M^-1)^T = (M^T)^-1, the same call maps rows to the inverse's rows.
    """
    pivots, kernel = _pivots(columns)
    if kernel:
        raise SingularPermutation("matrix is not invertible over F_2")
    # column i is the x with M x = e_i
    return [_combination(pivots, 1 << i) for i in range(len(columns))]


def coset_min(x: int, kernel) -> int:
    """Smallest integer in the coset x + span(kernel)."""
    pivots = _pivots(kernel)[0]
    for lead in sorted(pivots, reverse=True):
        if (x >> lead) & 1:
            x ^= pivots[lead][0]
    return x


# ---------------------------------------------------------------------------
# Packed tables: bit i of an int holds a table's value at index i
# ---------------------------------------------------------------------------

def require_table_degree(n: int) -> None:
    """Refuse a table on 2^n indices for n > MAX_TABLE_DEGREE."""
    if n > MAX_TABLE_DEGREE:
        raise UnsupportedDegree(
            f"tables need n <= {MAX_TABLE_DEGREE}, got n={n}")


@functools.cache
def coordinate_tables(n: int) -> tuple[int, ...]:
    """X_0..X_(n-1) on 2^n indices: bit i of X_j is bit j of i.

    Every table path starts here, so n > MAX_TABLE_DEGREE is refused here.
    """
    require_table_degree(n)
    size = 1 << n
    tables = []
    for j in range(n):
        h = 1 << j
        pattern, width = ((1 << h) - 1) << h, 2 * h
        while width < size:
            pattern |= pattern << width
            width *= 2
        tables.append(pattern)
    return tuple(tables)


# ---------------------------------------------------------------------------
# Bit-sliced field elements: plane i holds bit i of the value at every index
# ---------------------------------------------------------------------------
#
# A field-valued table v: index -> GF(2^n) is the tuple of its n packed bit
# planes.  The coordinate tables are the identity table x -> x, F_2-linear
# maps are XOR combinations of planes, and a product is n^2 ANDs of planes
# (Field.mul_planes), so building a table costs O(n^2) big-int operations
# whatever the number of indices.

def linear_planes(planes, columns) -> tuple[int, ...]:
    """Planes of L(v), for the F_2-linear map with L(e_j) = columns[j]; a
    plane goes into an empty output as it is, not copied by 0 ^ plane."""
    out = [0] * len(columns)
    for plane, col in zip(planes, columns):
        i = 0
        while col:
            if col & 1:
                out[i] = out[i] ^ plane if out[i] else plane
            col >>= 1
            i += 1
    return tuple(out)


def add_const(planes, c: int, full: int) -> tuple[int, ...]:
    """Planes of v + c; full is the all-ones table."""
    return tuple(p ^ (full if (c >> i) & 1 else 0)
                 for i, p in enumerate(planes))


def _delta_swap(bits: int, mask: int, delta: int) -> int:
    """Swap bit i with bit i + delta for every i in mask."""
    t = (bits ^ (bits >> delta)) & mask
    return bits ^ t ^ (t << delta)


def translate(bits: int, n: int, s: int) -> int:
    """The packed table i -> T(i ^ s) of a packed table T on 2^n indices.

    Each set bit j of s swaps index i with i + 2^j for every i with bit j
    clear: one masked delta-swap, whatever the number of indices.
    """
    if s < 0 or s >> n:
        raise ValueError(f"shift {s:#x} has bits beyond {n} index bits")
    for j, x in enumerate(coordinate_tables(n)):
        if (s >> j) & 1:  # x >> 2^j: the indices with bit j clear
            bits = _delta_swap(bits, x >> (1 << j), 1 << j)
    return bits


# A plan is at most a few hundred small ints, so 16 of them, the bound of
# the base tables in constructions, cost nothing.  The masks are rebuilt
# per call: caching them would hold about 100 2^n-bit tables per map.
@functools.lru_cache(maxsize=16)
def _pull_plan(columns: tuple[int, ...]) -> tuple[tuple[int, int, int], ...]:
    """The delta-swaps (c, r, delta) of X_c & ~X_r that pull a table
    through M, in order; a singular M raises on every call."""
    n = len(columns)
    rows = transpose(columns)
    plan = []
    # I = E_k...E_1 M, so T(My) = T(E_1...E_k y): pull E_1 first
    for c in range(n):
        p = next((r for r in range(c, n) if (rows[r] >> c) & 1), None)
        if p is None:
            raise ValueError("index map is not invertible")
        if p != c:
            rows[p], rows[c] = rows[c], rows[p]
            plan.append((c, p, (1 << p) - (1 << c)))
        for r in range(n):
            if r != c and (rows[r] >> c) & 1:
                rows[r] ^= rows[c]
                plan.append((c, r, 1 << r))
    return tuple(plan)


def pull_linear(bits: int, columns: list[int]) -> int:
    """The packed table y -> T(M y) of a packed table T.

    M is an invertible F_2-linear map on n-bit indices, given by its
    column images M e_j = columns[j].  Gauss-Jordan row reduction, done
    once per map (_pull_plan), writes M as a product of coordinate swaps
    and transvections y_r += y_c; each pulls the table through one masked
    delta-swap, so the whole map costs O(n^2) big-int operations instead
    of a loop over the 2^n indices.
    """
    xs = coordinate_tables(len(columns))
    for c, r, delta in _pull_plan(tuple(columns)):
        bits = _delta_swap(bits, xs[c] & ~xs[r], delta)
    return bits


# ---------------------------------------------------------------------------
# The field
# ---------------------------------------------------------------------------

class Field:
    """GF(2^n) under an explicit irreducible modulus.

    Elements are ints below 2^n.  For even n the subfield GF(2^m) with
    n = 2m is available through subfield()/trace_sub().
    """

    def __init__(self, n: int, modulus: int | None = None):
        if not 1 <= n <= MAX_DEGREE:
            raise UnsupportedDegree(f"n={n} outside 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = default_modulus(n)
        elif modulus < 0 or modulus.bit_length() - 1 != n:
            raise ReducibleModulus(
                f"modulus {modulus:#x} is not a polynomial of degree {n}")
        elif not is_irreducible(modulus):
            raise ReducibleModulus(f"modulus 0x{modulus:x} is reducible")
        self.n = n
        self.modulus = modulus
        self.m = n // 2 if n % 2 == 0 else None
        self.size = 1 << n
        # x^d mod modulus for d = n .. 2n-2, for product reduction
        red = [modulus ^ (1 << n)]
        for _ in range(n - 2):
            r = red[-1] << 1
            if (r >> n) & 1:
                r ^= modulus
            red.append(r)
        self._red = red
        self._frob_basis = {0: [1 << j for j in range(n)],
                            1: [poly_mod(1 << (2 * j), modulus)
                                for j in range(n)]}
        self._trace_form = None
        self._walsh_map = None
        self._subfield = None
        self._theta = None

    # -- identity / serialization ------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Field) and self.n == other.n
                and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.n, self.modulus))

    def __repr__(self):
        return f"Field({self.describe()})"

    def describe(self) -> str:
        return f"n={self.n},mod=0x{self.modulus:x}"

    # -- ring operations ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        """Product of two field elements."""
        return poly_mulmod(a, b, self.modulus)

    def frob(self, a: int, k: int) -> int:
        """a^(2^k), through frob_map(k)."""
        return apply_linear(self.frob_map(k), a)

    def frob_map(self, k: int) -> list[int]:
        """Column images of x -> x^(2^k), k taken modulo n: past the seeds
        k = 0 and 1, the map for k - 1 squared through frob_map(1)."""
        k %= self.n
        basis = self._frob_basis.get(k)
        if basis is None:
            sqr = self.frob_map(1)
            basis = [apply_linear(sqr, v) for v in self.frob_map(k - 1)]
            self._frob_basis[k] = basis
        return basis

    def scale_map(self, c: int) -> list[int]:
        """Column images of the F_2-linear map x -> c*x."""
        return [self.mul(c, 1 << j) for j in range(self.n)]

    def mul_planes(self, a, b) -> tuple[int, ...]:
        """Planes of the pointwise product a*b of two sliced tables.

        n^2 ANDs give the planes of the carry-less product, then each plane
        of degree d >= n is folded in along x^d mod the modulus.
        """
        n = self.n
        conv = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] ^= ai & bj
        out = conv[:n]
        for plane, red in zip(conv[n:], self._red):
            i = 0
            while red and plane:
                if red & 1:
                    out[i] ^= plane
                red >>= 1
                i += 1
        return tuple(out)

    def pow_planes(self, a, e: int) -> tuple[int, ...]:
        """Planes of a^e pointwise for e != 0, by square-and-multiply.

        e acts modulo 2^n - 1 and 0^e = 0.  A multiple of 2^n - 1 is
        taken as 2^n - 1 itself, which gives 1 on nonzero values and 0 on 0.
        """
        if e == 0:
            raise ValueError("the sliced power needs a nonzero exponent")
        e %= self.size - 1
        if e == 0:
            e = self.size - 1
        r, sqr = None, self.frob_map(1)
        while True:
            if e & 1:
                r = a if r is None else self.mul_planes(r, a)
            e >>= 1
            if not e:
                return r
            a = linear_planes(a, sqr)

    # -- traces ----------------------------------------------------------------

    def trace_form(self) -> list[int]:
        """Rows of the trace form: bit j of row i is Tr(e_i e_j).

        The form is a Hankel matrix in t_k = Tr(x^k), k < 2n-1: t_k for
        k < n is bit 0 of Tr(e_k) = sum_i e_k^(2^i), column k summed over
        the n Frobenius maps, and t_k for k >= n is the trace of x^k mod
        the modulus, already at hand in _red.
        """
        if self._trace_form is None:
            n = self.n
            t = 0
            for i in range(n):
                for k, v in enumerate(self.frob_map(i)):
                    t ^= (v & 1) << k
            for k, red in enumerate(self._red, n):
                t |= ((red & t).bit_count() & 1) << k
            self._trace_form = [(t >> i) & (self.size - 1) for i in range(n)]
        return self._trace_form

    def trace_mask(self, u: int = 1) -> int:
        """Mask M with Tr(u*x) = parity(x & M) for the absolute trace."""
        return apply_linear(self.trace_form(), u)

    def trace_sub(self, y: int) -> int:
        """Absolute trace of a subfield element, viewed inside GF(2^m)."""
        m = self._require_m()
        if self.frob(y, m) != y:
            raise NotInSubfield(f"element {y:#x} is not in GF(2^{m})")
        return (y & self.subtrace_mask()).bit_count() & 1

    def subtrace_mask(self, lam: int = 1) -> int:
        """Mask M with Tr_sub(lam*y) = parity(y & M) for subfield y.

        Uses a fixed theta with theta + theta^(2^m) = 1, so the subfield
        trace extends to an absolute-trace functional on the whole field.
        """
        m = self._require_m()
        if self._theta is None:
            self._theta = self.solve_semilinear(m, 1)
        return self.trace_mask(self.mul(self._theta, lam))

    def _require_m(self) -> int:
        if self.m is None:
            raise NotInSubfield(f"n={self.n} is odd; no index-2 subfield")
        return self.m

    # -- subfield and bases ------------------------------------------------------

    def subfield_basis(self, s: int) -> list[int]:
        """Basis of {x : x^(2^s) = x}, the kernel of x -> x + x^(2^s)."""
        return solve_f2([(1 << j) ^ v
                         for j, v in enumerate(self.frob_map(s))], 0)[1]

    def subfield(self) -> tuple[int, ...]:
        """The 2^m elements of GF(2^m) inside GF(2^(2m)), in index order."""
        if self._subfield is None:
            members = [0]
            for b in self.subfield_basis(self._require_m()):
                members += [y ^ b for y in members]
            self._subfield = tuple(sorted(members))
        return self._subfield

    def is_normal(self, u: int) -> bool:
        """True iff u is in GF(2^m) and its Frobenius orbit spans GF(2^m)."""
        if u == 0:
            raise ZeroElement("0 is never a normal element")
        m = self._require_m()
        if self.frob(u, m) != u:
            return False
        return rank(self.orbit(u)) == m

    def orbit(self, u: int) -> list[int]:
        """u, u^2, ..., u^(2^(m-1)): the orbit of a subfield element under
        squaring."""
        return [self.frob(u, i) for i in range(self._require_m())]

    def find_normal(self, seed: int = 0) -> int:
        """First normal element of GF(2^m) met by a wrapped scan of its
        members from the seed position."""
        cands = self.subfield()
        count = len(cands)
        for i in range(count):
            u = cands[(seed + i) % count]
            if u != 0 and self.is_normal(u):
                return u
        raise NoSolution("no normal element found")  # unreachable

    def trace_zero_basis(self) -> list[int]:
        """Basis of the subfield hyperplane {y in GF(2^m) : Tr_sub(y) = 0}."""
        m = self._require_m()
        if m < 2:
            raise DimensionTooSmall("m >= 2 required for a trace-zero basis")
        basis = []
        for y in self.subfield():
            if y == 0 or self.trace_sub(y) != 0:
                continue
            if rank(basis + [y]) > len(basis):
                basis.append(y)
                if len(basis) == m - 1:
                    break
        return basis

    def solve_semilinear(self, e: int, target: int) -> int:
        """Smallest solution of z + z^(2^e) = target, by linear algebra."""
        images = [(1 << j) ^ v for j, v in enumerate(self.frob_map(e))]
        sol, kernel = solve_f2(images, target)
        if sol is None:
            raise NoSolution(
                f"target {target:#x} outside the image of z + z^(2^{e})")
        return coset_min(sol, kernel)

    # -- truth-table domain interface ---------------------------------------------

    def walsh_index(self, beta: int) -> int:
        """Map beta so Tr(beta*x) = parity(walsh_index(beta) & x)."""
        return self.trace_mask(beta)

    def walsh_map(self) -> list[int]:
        """Column images of M: z -> sum_i z_i delta_i, the trace-dual basis.

        Tr(delta_i * e_j) = [i == j] for the basis elements e_j = 1 << j,
        so Tr(beta * M z) = parity(beta & z) and
        W_f(beta) = sum_z (-1)^(f(M z) + parity(beta & z)): the Walsh
        spectrum in beta order is the plain cube transform of f pulled
        through M.
        """
        if self._walsh_map is None:
            self._walsh_map = invert(self.trace_form())
        return self._walsh_map

    def squaring_map(self) -> list[int]:
        """Column images of the F_2-linear map x -> x^2."""
        return self.frob_map(1)

    def header(self) -> str:
        return f"n={self.n} mod=0x{self.modulus:x}"


class BivariateDomain:
    """Index space GF(2^m) x GF(2^m) for bivariate constructions.

    The combined index is idx(x)*2^m + idx(y); the Walsh pairing is
    Tr_sub(b1*x) + Tr_sub(b2*y), applied half by half.
    """

    def __init__(self, base: Field):
        self.base = base
        self.n = 2 * base.n
        self.m = base.n
        self.size = 1 << self.n

    def __eq__(self, other):
        return isinstance(other, BivariateDomain) and self.base == other.base

    def __hash__(self):
        return hash(("xy", self.base))

    def __repr__(self):
        return f"BivariateDomain({self.base.describe()})"

    def split(self, idx: int) -> tuple[int, int]:
        return idx >> self.m, idx & (self.base.size - 1)

    def walsh_index(self, beta: int) -> int:
        b1, b2 = self.split(beta)
        return (self.base.walsh_index(b1) << self.m) | self.base.walsh_index(b2)

    def _block_diagonal(self, columns: list[int]) -> list[int]:
        """Columns of a base-field map applied to x and y alike."""
        return columns + [c << self.m for c in columns]

    def walsh_map(self) -> list[int]:
        return self._block_diagonal(self.base.walsh_map())

    def squaring_map(self) -> list[int]:
        return self._block_diagonal(self.base.squaring_map())

    def header(self) -> str:
        return f"n={self.n} mod=0x{self.base.modulus:x} grid=xy"

    def describe(self) -> str:
        return f"n={self.n},mod=0x{self.base.modulus:x}"


@functools.cache
def make_field(n: int, modulus: int | None = None) -> Field:
    """Field of degree n; the built-in default modulus when none is given.

    One shared Field per (n, modulus), whether the default modulus is named
    or left out: a Field only fills its own caches.
    """
    if modulus is None and 1 <= n <= MAX_DEGREE:  # Field refuses other n
        return make_field(n, default_modulus(n))
    return Field(n, modulus)
