"""Per-point and list references, the oracles for the packed kernels.

Each family function evaluates a family's table, its base and its
closed-form dual index by index with Field arithmetic, exactly as the
formulas read, and returns the packed ints (f, base, dual); dual is None
where the family has no closed form.  The Niho base sums one trace per
exponent of niho_exponents, as the family is stated, reading each power
from discrete-log tables.  bentkit.constructions builds the same tables
on bit-sliced planes, and tests/test_kernels.py compares the two bit for
bit.  The trace masks here follow the definition of the trace, squaring
with Field.mul, so they also serve as the oracle for Field.trace_mask.
The list helpers (to_bitlist, from_bits, fwht, mobius, walsh_naive,
spectrum_from_values), pullback_mask and squaring_perm are the
references for the packed transforms and index maps; monomials and
evaluate, which read a ReducedPoly monomial by monomial, for the packed
polynomial layer; master_identity_holds, beta by beta, for the packed
spectrum identity in bentkit.verify; table_condition, D_u D_v g~ = 0 read
on the table, for each family's row(u) and for the shifts the samplers
draw from the kernel of those rows.  kasami_row, gold_row and
mm_linear_row are the closed-form rows of the literature, the oracles for
the rows that bentkit.constructions reads off the polar matrix of a
quadratic base.  trace_abs reads the absolute
trace at one point, and power is the per-point a^e that Field.pow_planes
slices.
kasami_base and parseval_holds are the tests' own references for the
Kasami base table and for Parseval's identity, which the library does not
need.
"""

from functools import lru_cache
from itertools import combinations

from bentkit import boolfun as bf
from bentkit import multipoly as mp
from bentkit.boolfun import TruthTable, WalshSpectrum
from bentkit.constructions import monomial_inverse_exponent
from bentkit.gf2n import BivariateDomain, Field, invert, translate


def parity(x: int) -> int:
    return x.bit_count() & 1


def to_bitlist(f: TruthTable) -> list[int]:
    """The table's values, index by index."""
    return [(f.bits >> i) & 1 for i in range(f.domain.size)]


def from_bits(domain, values) -> TruthTable:
    bits = 0
    for i, v in enumerate(values):
        if v:
            bits |= 1 << i
    return TruthTable(domain, bits)


def monomials(F) -> frozenset[int]:
    """The monomial masks of a ReducedPoly, read bit by bit from coeffs."""
    return frozenset(i for i in range(1 << F.tau) if (F.coeffs >> i) & 1)


def evaluate(F, x: int) -> int:
    """Value of F at the assignment packed into the tau-bit mask x."""
    acc = 0
    for mono in monomials(F):
        if x & mono == mono:
            acc ^= 1
    return acc


def rotate(mask: int, tau: int) -> int:
    """The monomial with X_i replaced by X_(i+1), cyclically, bit by bit."""
    return sum(((mask >> i) & 1) << ((i + 1) % tau) for i in range(tau))


def rotation_orbit(mask: int, tau: int) -> frozenset[int]:
    """The tau cyclic shifts of one monomial, repeats merged."""
    orbit = [mask]
    for _ in range(tau - 1):
        orbit.append(rotate(orbit[-1], tau))
    return frozenset(orbit)


def elementary_monomials(tau: int, d: int) -> frozenset[int]:
    """The masks of the C(tau, d) monomials of degree d."""
    return frozenset(sum(1 << i for i in combo)
                     for combo in combinations(range(tau), d))


def format_monomials(monos, tau: int) -> str:
    """The text format, one term per mask in increasing order."""
    terms = []
    for mask in sorted(monos):
        names = [f"X{i + 1}" for i in range(tau) if (mask >> i) & 1]
        terms.append("*".join(names) if names else "1")
    return "+".join(terms) if terms else "0"


def fwht(values: list[int]) -> list[int]:
    """In-place fast transform over the n-cube; returns its argument."""
    size = len(values)
    h = 1
    while h < size:
        for i in range(0, size, h << 1):
            for j in range(i, i + h):
                x = values[j]
                y = values[j + h]
                values[j] = x + y
                values[j + h] = x - y
        h <<= 1
    return values


def mobius(values: list[int]) -> list[int]:
    """In-place Moebius transform on the n-cube (its own inverse)."""
    size = len(values)
    h = 1
    while h < size:
        for i in range(0, size, h << 1):
            for j in range(i, i + h):
                values[j + h] ^= values[j]
        h <<= 1
    return values


def spectrum_from_values(domain, values) -> WalshSpectrum:
    """Pack per-beta integers into the n+2 planes."""
    values = list(values)
    planes = tuple(
        int("".join("1" if (v >> k) & 1 else "0"
                    for v in reversed(values)), 2)
        for k in range(domain.n + 2))
    return WalshSpectrum(domain, planes)


def parseval_holds(spec: WalshSpectrum) -> bool:
    """sum W(beta)^2 = 4^n over the per-beta values."""
    return sum(v * v for v in spec.values) == 1 << (2 * spec.domain.n)


def walsh_naive(f: TruthTable) -> WalshSpectrum:
    """O(4^n) reference evaluation of the Walsh definition."""
    dom = f.domain
    signs = [1 - 2 * b for b in to_bitlist(f)]
    values = []
    for beta in range(dom.size):
        mask = dom.walsh_index(beta)
        values.append(sum(s if (mask & x).bit_count() % 2 == 0 else -s
                          for x, s in enumerate(signs)))
    return spectrum_from_values(dom, values)


def master_identity_holds(pair) -> bool:
    """For every beta: W_f(beta) = 2^(n/2 - tau) * sum_w chat[w] *
    (-1)^(gdual(beta + sum_{i in w} u_i)), with gdual computed from the
    base function's spectrum."""
    dom = pair.f.domain
    tau = pair.poly.tau
    chat = mp.fourier(pair.poly)
    gdual = bf.dual(bf.walsh(pair.base))
    shift_xor = [0] * (1 << tau)
    for w in range(1 << tau):
        for i in range(tau):
            if (w >> i) & 1:
                shift_xor[w] ^= pair.shifts[i]
    values = bf.walsh(pair.f).values
    scale = 1 << (dom.n // 2 - tau)
    for beta in range(dom.size):
        total = 0
        for w in range(1 << tau):
            sign = (gdual.bits >> (beta ^ shift_xor[w])) & 1
            total += chat[w] * (1 - 2 * sign)
        if values[beta] != scale * total:
            return False
    return True


def pullback_mask(columns, mask: int) -> int:
    """Mask M with parity(L(x) & mask) = parity(x & M), L(e_j) = columns[j]."""
    return sum(((col & mask).bit_count() & 1) << j
               for j, col in enumerate(columns))


@lru_cache(maxsize=None)
def squaring_perm(domain) -> list[int]:
    """Index permutation x -> x^2 of a Field, squaring with Field.mul; on
    a BivariateDomain, (x, y) -> (x^2, y^2)."""
    if isinstance(domain, BivariateDomain):
        sq = squaring_perm(domain.base)
        return [(sq[x] << domain.m) | sq[y]
                for x in range(domain.base.size)
                for y in range(domain.base.size)]
    return [domain.mul(x, x) for x in range(domain.size)]


def frob_sum(field: Field, v: int, count: int) -> int:
    """v + v^2 + ... + v^(2^(count-1)), squaring with Field.mul."""
    r = 0
    for _ in range(count):
        r ^= v
        v = field.mul(v, v)
    return r


def power(field: Field, a: int, e: int) -> int:
    """a^e by square-and-multiply with Field.mul; exponents act modulo
    2^n - 1 on nonzero bases, and 0^0 = 1."""
    if a == 0:
        return 1 if e == 0 else 0
    e %= field.size - 1
    r = 1
    while e:
        if e & 1:
            r = field.mul(r, a)
        a = field.mul(a, a)
        e >>= 1
    return r


def trace_mask(field: Field, u: int) -> int:
    """Mask M with Tr(u x) = parity(x & M), one trace per basis element."""
    return sum((frob_sum(field, field.mul(u, 1 << j), field.n) & 1) << j
               for j in range(field.n))


def trace_abs(field: Field, x: int) -> int:
    """Absolute trace Tr(x) = parity(x & Field.trace_mask()), 0 or 1."""
    return parity(x & field.trace_mask())


def trace_sub(field: Field, y: int) -> int:
    """Tr_sub(y) = y + y^2 + ... + y^(2^(m-1)) for y in the subfield."""
    return frob_sum(field, y, field.m)


def packed(size: int, value) -> int:
    """Packed table of the 0/1 function value over range(size)."""
    bits = 0
    for x in range(size):
        if value(x):
            bits |= 1 << x
    return bits


def compose_traces(field: Field, F, us) -> int:
    masks = [trace_mask(field, u) for u in us]

    def value(x):
        args = 0
        for i, mask in enumerate(masks):
            args |= parity(x & mask) << i
        return evaluate(F, args)
    return packed(field.size, value)


def kasami_bits(field: Field, lam: int) -> int:
    mask = field.subtrace_mask(lam)
    return packed(field.size, lambda x: parity(
        field.mul(x, field.frob(x, field.m)) & mask))


def kasami_base(field: Field, lam: int) -> TruthTable:
    """The quadratic bent base Tr_sub(lam * x^(2^m+1)) as a table."""
    return TruthTable(field, kasami_bits(field, lam))


def kasami_general(field: Field, lam: int, us, F):
    m = field.m
    base = kasami_bits(field, lam)
    f = base ^ compose_traces(field, F, us)
    lam_inv = power(field, lam, -1)
    ums = [field.frob(u, m) for u in us]
    smask = field.subtrace_mask(lam_inv)
    dual_base = kasami_bits(field, lam_inv)
    norms = [field.mul(u, um) for u, um in zip(us, ums)]

    def dual(x):
        xm = field.frob(x, m)
        args = 0
        for i, u in enumerate(us):
            sym = field.mul(xm, u) ^ field.mul(x, ums[i]) ^ norms[i]
            args |= parity(sym & smask) << i
        return ((dual_base >> x) & 1) ^ evaluate(F, args) ^ 1
    return f, base, packed(field.size, dual)


def kasami_subfield(field: Field, lam: int, us, F):
    base = kasami_bits(field, lam)
    f = base ^ compose_traces(field, F, us)
    lam_inv = power(field, lam, -1)
    masks = [trace_mask(field, field.mul(lam_inv, u)) for u in us]
    consts = [trace_sub(field, field.mul(lam_inv, field.mul(u, u)))
              for u in us]
    dual_base = kasami_bits(field, lam_inv)

    def dual(x):
        args = 0
        for i, mask in enumerate(masks):
            args |= (parity(x & mask) ^ consts[i]) << i
        return ((dual_base >> x) & 1) ^ evaluate(F, args) ^ 1
    return f, base, packed(field.size, dual)


def normal_orbit(field: Field, u: int) -> list[int]:
    orbit = [u]
    for _ in range(field.m - 1):
        orbit.append(field.frob(orbit[-1], 1))
    return orbit


def kasami_idempotent(field: Field, u: int, F):
    us = normal_orbit(field, u)
    base = kasami_bits(field, 1)
    f = base ^ compose_traces(field, F, us)
    masks = [trace_mask(field, v) for v in us]
    full = (1 << field.m) - 1

    def dual(x):
        args = 0
        for i, mask in enumerate(masks):
            args |= parity(x & mask) << i
        return ((base >> x) & 1) ^ evaluate(F, args ^ full) ^ 1
    return f, base, packed(field.size, dual)


def kasami_antiselfdual(field: Field, F):
    base = kasami_bits(field, 1)
    f = base ^ compose_traces(field, F, field.trace_zero_basis())
    return f, base, f ^ ((1 << field.size) - 1)


def quad_bits(field: Field, c, eps: int) -> int:
    m = field.m
    smask = field.subtrace_mask(1)
    tmask = trace_mask(field, 1)

    def value(x):
        v = eps
        for i in range(m):
            if c[i]:
                v ^= parity(field.mul(field.frob(x, i), x) & tmask)
        if c[m]:
            v ^= parity(field.mul(field.frob(x, m), x) & smask)
        return v
    return packed(field.size, value)


def quad_family(field: Field, c, eps: int, us, F):
    base = quad_bits(field, c, eps)
    return base ^ compose_traces(field, F, us), base, None


def gold_like(field: Field, lam: int, us, F):
    k = field.n // 4
    tmask = trace_mask(field, 1)
    base = packed(field.size, lambda x: parity(
        field.mul(lam, field.mul(field.frob(x, k), x)) & tmask))
    f = base ^ compose_traces(field, F, us)
    uks = [field.frob(u, k) for u in us]
    norms = [field.mul(u, uk) for u, uk in zip(us, uks)]

    def dual(x):
        xk = field.frob(x, k)
        args = 0
        for i, u in enumerate(us):
            sym = field.mul(xk, u) ^ field.mul(x, uks[i]) ^ norms[i]
            args |= parity(field.mul(lam, sym) & tmask) << i
        return ((base >> x) & 1) ^ evaluate(F, args)
    return f, base, packed(field.size, dual)


def niho_exponents(m: int, k: int) -> list[int]:
    """Exponents (2^m-1) * i/2^k + 1 with /2^k the inverse mod 2^(2m)-1."""
    order = (1 << (2 * m)) - 1
    inv2k = pow(2, -k, order)
    return [(((1 << m) - 1) * i * inv2k + 1) % order
            for i in range(1, 1 << (k - 1))]


@lru_cache(maxsize=None)
def discrete_logs(field: Field) -> tuple[dict[int, int], list[int]]:
    """(log, exp) with exp[i] = g^i and log[g^i] = i, for the first
    primitive element g, by repeated Field.mul."""
    for g in range(1, field.size):
        exp = [1]
        x = g
        while x != 1:
            exp.append(x)
            x = field.mul(x, g)
        if len(exp) == field.size - 1:
            return {v: i for i, v in enumerate(exp)}, exp
    raise AssertionError(f"{field} has no primitive element")


def niho_base(field: Field, k: int) -> int:
    """Tr_sub(x^(2^m+1)) + Tr(x^e) summed over niho_exponents, point by
    point, with x^e read from the discrete-log tables."""
    log, exp = discrete_logs(field)
    order = field.size - 1
    tmask = trace_mask(field, 1)
    exponents = niho_exponents(field.m, k)

    def value(x):
        return x and sum(parity(exp[log[x] * e % order] & tmask)
                         for e in exponents) & 1
    return kasami_bits(field, 1) ^ packed(field.size, value)


def niho_tables(field: Field, k: int):
    """Base bits, dual bits and the per-point A^(1/(2^k-1)) list."""
    m = field.m
    g_bits = niho_base(field, k)
    e_root = pow((1 << k) - 1, -1, (1 << m) - 1)
    alpha = field.solve_semilinear(m, 1)
    alpha_c = field.frob(alpha, (2 * m - k) % (2 * m))
    smask = field.subtrace_mask(1)
    apow = []
    d_bits = 0
    for x in range(field.size):
        xm = field.frob(x, m)
        A = 1 ^ x ^ xm
        Ap = power(field, A, e_root) if A else 0
        apow.append(Ap)
        arg = field.mul(field.mul(alpha, A) ^ xm ^ alpha_c, Ap)
        if parity(arg & smask):
            d_bits |= 1 << x
    return g_bits, d_bits, apow


def niho_family(field: Field, k: int, us, F):
    g_bits, d_bits, apow = niho_tables(field, k)
    f = g_bits ^ compose_traces(field, F, us)
    masks = [field.subtrace_mask(u) for u in us]

    def dual(x):
        args = 0
        for i, mask in enumerate(masks):
            args |= parity(apow[x] & mask) << i
        return ((d_bits >> x) & 1) ^ evaluate(F, args)
    return f, g_bits, packed(field.size, dual)


def _grid_forms(K: Field, pairs, F, dom: BivariateDomain, base_value):
    """Packed base and base + F(Tr(u1 x + u2 y), ...) on the grid."""
    tmask = trace_mask(K, 1)
    base = f = 0
    for idx in range(dom.size):
        x, y = dom.split(idx)
        gval = base_value(x, y)
        args = 0
        for i, (u1, u2) in enumerate(pairs):
            args |= parity((K.mul(u1, x) ^ K.mul(u2, y)) & tmask) << i
        base |= gval << idx
        f |= (gval ^ evaluate(F, args)) << idx
    return f, base


def mm_linear(m: int, rows, b: int, pairs, F, modulus=None):
    K = Field(m, modulus)
    dom = BivariateDomain(K)
    inv_rows = invert(rows)
    tmask = trace_mask(K, 1)
    f, base = _grid_forms(K, pairs, F, dom, lambda x, y: parity(
        (K.mul(x, pullback_mask(rows, y)) ^ K.mul(b, y)) & tmask))
    self_terms = [K.mul(u2, pullback_mask(inv_rows, u1))
                  for u1, u2 in pairs]

    def dual(idx):
        x, y = dom.split(idx)
        pix = pullback_mask(inv_rows, x)
        gval = parity((K.mul(y, pix) ^ K.mul(b, pix)) & tmask)
        args = 0
        for i, (u1, u2) in enumerate(pairs):
            t = (K.mul(y ^ b, pullback_mask(inv_rows, u1))
                 ^ K.mul(u2, pix) ^ self_terms[i])
            args |= parity(t & tmask) << i
        return gval ^ evaluate(F, args)
    return f, base, packed(dom.size, dual)


def mm_monomial(m: int, s: int, pairs, F, modulus=None):
    d = monomial_inverse_exponent(m, s)
    K = Field(m, modulus)
    dom = BivariateDomain(K)
    tmask = trace_mask(K, 1)
    ypow = [power(K, y, d) for y in range(K.size)]
    f, base = _grid_forms(K, pairs, F, dom, lambda x, y: parity(
        K.mul(x, ypow[y]) & tmask))
    return f, base, None


def table_condition(gdual: int, n: int, u: int, v: int) -> bool:
    """D_u D_v g~ = 0, read on the packed table g~."""
    d = gdual ^ translate(gdual, n, u)
    return d == translate(d, n, v)


def kasami_row(field: Field, lam: int):
    """row(u) of g~ = Tr_sub(mu x^(2^m+1)) + 1, mu = lambda^-1: its polar
    form is Tr(mu u v^(2^m)) = Tr((mu u)^(2^m) v), as
    theta + theta^(2^m) = 1."""
    mu = power(field, lam, -1)
    return lambda u: trace_mask(field, field.frob(field.mul(mu, u), field.m))


def gold_row(field: Field, lam: int):
    """row(u) of Gold's self-dual Tr(lam x^(2^k+1)), k = n/4: its polar
    form Tr(lam (u v^(2^k) + u^(2^k) v))."""
    k = field.n // 4
    return lambda u: trace_mask(field, field.frob(field.mul(lam, u), -k)
                                ^ field.mul(lam, field.frob(u, k)))


def mm_linear_row(K: Field, rows):
    """row(x1, y1) of the MMLinear dual Tr(y pi^-1(x) + b pi^-1(x)): its
    polar form Tr(y1 pi^-1(x2) + y2 pi^-1(x1)); b drops out."""
    inv_rows = invert(rows)

    def row(u):
        x1, y1 = u >> K.n, u & (K.size - 1)
        t, xmask = trace_mask(K, y1), 0  # Tr(y1 pi^-1(x2)) as a mask on x2
        for j, r in enumerate(inv_rows):
            if (t >> j) & 1:
                xmask ^= r
        return (xmask << K.n) | trace_mask(K, pullback_mask(inv_rows, x1))
    return row
