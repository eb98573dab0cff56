import itertools
import random

import pytest

import pointwise as pw
from bentkit.errors import (
    DimensionTooSmall,
    NoSolution,
    NotInSubfield,
    ReducibleModulus,
    SingularPermutation,
    UnsupportedDegree,
    ZeroElement,
)
from bentkit.gf2n import (
    MAX_TABLE_DEGREE,
    Field,
    coordinate_tables,
    coset_min,
    invert,
    is_irreducible,
    make_field,
    rank,
    solve_f2,
)


def naive_trace(field, x):
    """Independent power-sum oracle for the absolute trace."""
    t, acc = x, 0
    for _ in range(field.n):
        acc ^= t
        t = field.mul(t, t)
    return acc


def test_default_moduli_are_smallest_irreducible():
    for n in range(2, 29):
        cand = 1 << n
        while not is_irreducible(cand):
            cand += 1
        assert make_field(n).modulus == cand
    # X + 1 at n = 1, not X; and the moduli behind the benchmark's records
    pinned = {1: 0x3, 8: 0x11b, 14: 0x4021, 16: 0x1002b}
    for n, modulus in pinned.items():
        assert make_field(n).modulus == modulus


def test_make_field_degree_two_unique_choice():
    assert make_field(2).modulus == 0b111


def test_make_field_accepts_explicit_irreducible():
    field = make_field(4, 0x13)
    assert field.describe() == "n=4,mod=0x13"
    assert field == Field(4) and hash(field) == hash(Field(4))


def test_make_field_rejects_reducible():
    # (x+1) divides x^3 + x^2 + x + 1: evaluation at 1 gives 0
    with pytest.raises(ReducibleModulus):
        make_field(3, 0xF)
    with pytest.raises(ReducibleModulus):
        make_field(4, 0x11)  # x^4 + 1 = (x+1)^4
    with pytest.raises(ReducibleModulus):
        make_field(4, 0x7)  # degree mismatch is rejected too


def test_make_field_degree_bounds():
    with pytest.raises(UnsupportedDegree):
        make_field(0)
    with pytest.raises(UnsupportedDegree):
        make_field(29)


def test_tables_above_the_size_limit_are_refused():
    """Fields go to n = 28 for scalar arithmetic; tables stop at 24."""
    assert MAX_TABLE_DEGREE == 24
    assert make_field(28).n == 28
    assert len(coordinate_tables(4)) == 4
    with pytest.raises(UnsupportedDegree, match="n <= 24, got n=25"):
        coordinate_tables(25)


def test_mul_identities():
    field = make_field(5)
    rng = random.Random(0)
    for _ in range(50):
        a = rng.randrange(field.size)
        assert field.mul(a, 1) == a
        assert field.mul(a, 0) == 0


def test_mul_alpha_squared_reduces():
    # alpha^2 = alpha + 1 under x^2 + x + 1
    assert make_field(2).mul(2, 2) == 3


def test_frobenius_is_multiplicative():
    field = make_field(8)
    rng = random.Random(1)
    for _ in range(10_000):
        a = rng.randrange(field.size)
        b = rng.randrange(field.size)
        assert field.frob(field.mul(a, b), 1) == field.mul(
            field.frob(a, 1), field.frob(b, 1))


@pytest.mark.parametrize("n", [2, 3, 6, 12])
def test_fermat_and_sqrt_exhaustive(n):
    field = make_field(n)
    for a in range(1, field.size):
        assert pw.power(field, a, field.size - 1) == 1
        assert field.mul(a, pw.power(field, a, -1)) == 1


@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_frob_map_is_the_one_source_of_every_power_of_two(n):
    """frob and squaring_map read frob_map, and trace_form sums its maps;
    at n = 1 squaring is the identity."""
    field = make_field(n)
    assert field.squaring_map() is field.frob_map(1)
    for x in range(min(field.size, 64)):
        assert pw.trace_abs(field, x) == naive_trace(field, x)
    for k in range(-1, 2 * n + 2):
        assert field.frob_map(k) is field.frob_map(k % n)
        for x in range(min(field.size, 64)):
            want = x
            for _ in range(k % n):
                want = field.mul(want, want)
            assert field.frob(x, k) == want
    # as for every k, k = 0 mod n refuses a value beyond the field
    for k in (0, 1, n):
        with pytest.raises(ValueError, match="bits beyond"):
            field.frob(field.size, k)


def test_pow_conventions():
    field = make_field(4)
    assert pw.power(field, 0, 0) == 1
    assert pw.power(field, 0, 7) == 0
    a = 9
    assert pw.power(field, a, field.size - 1 + 3) == pw.power(field, a, 3)
    assert field.mul(pw.power(field, a, -1), a) == 1
    with pytest.raises(ValueError,
                       match="the sliced power needs a nonzero exponent"):
        field.pow_planes(coordinate_tables(4), 0)


@pytest.mark.parametrize("n", [2, 4, 6, 12])
def test_trace_frobenius_invariance_exhaustive(n):
    field = make_field(n)
    for x in range(field.size):
        assert pw.trace_abs(field, x) == pw.trace_abs(field,
                                                      field.frob(x, 1))


def test_trace_additivity():
    field = make_field(6)
    for x in range(field.size):
        assert pw.trace_abs(field, x) == naive_trace(field, x)
        for y in (1, 7, 33):
            assert (pw.trace_abs(field, x ^ y)
                    == pw.trace_abs(field, x) ^ pw.trace_abs(field, y))


def test_trace_examples():
    assert pw.trace_abs(make_field(4), 0) == 0
    assert pw.trace_abs(make_field(4), 1) == 0  # Tr(1) = n mod 2
    assert pw.trace_abs(make_field(3), 1) == 1
    assert pw.trace_abs(make_field(2), 2) == 1  # alpha + alpha^2 = 1


def test_trace_sub_matches_subfield_bruteforce():
    field = make_field(4)
    for x in range(16):
        y = field.mul(x, field.frob(x, 2))  # norm lands in the subfield
        assert field.trace_sub(y) == y ^ field.frob(y, 1)


def test_trace_sub_examples_and_errors():
    field = make_field(6)
    assert field.trace_sub(0) == 0
    assert field.trace_sub(1) == 1  # m = 3 odd
    outside = next(x for x in range(field.size)
                   if field.frob(x, 3) != x)
    with pytest.raises(NotInSubfield):
        field.trace_sub(outside)
    with pytest.raises(NotInSubfield):
        make_field(5).trace_sub(1)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_subfield_membership_and_closure(n):
    field = make_field(n)
    sub = field.subfield()
    assert len(sub) == 1 << field.m and list(sub) == sorted(sub)
    members = set(sub)
    for a in sub:
        assert field.frob(a, field.m) == a
        for b in sub:
            assert (a ^ b) in members
            assert field.mul(a, b) in members


def test_subfield_basis_spans_the_fixed_field():
    """The span of subfield_basis(s) is {x : x^(2^s) = x} for every s at
    n <= 12, and subfield() lists GF(2^m) in index order up to n = 16."""
    for n in range(1, 17):
        field = make_field(n)
        for s in range(1, n + 1) if n <= 12 else ():
            span = [0]
            for b in field.subfield_basis(s):
                span += [y ^ b for y in span]
            assert sorted(span) == [x for x in range(field.size)
                                    if field.frob(x, s) == x], (n, s)
        if n % 2 == 0:
            assert field.subfield() == tuple(
                y for y in range(field.size) if field.frob(y, n // 2) == y)


def test_is_normal_examples():
    assert make_field(2).is_normal(1)  # GF(2) = {0, 1} is its own basis
    assert not make_field(4).is_normal(1)  # 1 spans only GF(2) in GF(4)
    with pytest.raises(ZeroElement):
        make_field(4).is_normal(0)
    with pytest.raises(NotInSubfield):
        make_field(5).is_normal(1)


def test_is_normal_matches_rank_oracle():
    field = make_field(8)
    for u in field.subfield()[1:]:
        orbit = [u, field.frob(u, 1), field.frob(u, 2), field.frob(u, 3)]
        assert field.is_normal(u) == (rank(orbit) == 4)


@pytest.mark.parametrize("n", [4, 6])
def test_is_normal_is_false_outside_the_subfield(n):
    field = make_field(n)
    outside = set(range(field.size)) - set(field.subfield())
    assert outside and not any(field.is_normal(u) for u in outside)


def test_find_normal_deterministic():
    field = make_field(2)
    assert field.find_normal(0) == 1  # the only candidate in GF(2)
    big = make_field(8)
    u1 = big.find_normal(17)
    u2 = big.find_normal(17)
    assert u1 == u2 and u1 in big.subfield()
    assert big.is_normal(u1)


def test_trace_zero_basis_spans_hyperplane():
    field = make_field(6)
    basis = field.trace_zero_basis()
    assert len(basis) == 2
    assert rank(basis) == 2
    assert all(field.trace_sub(v) == 0 for v in basis)
    t0 = {y for y in field.subfield() if field.trace_sub(y) == 0}
    assert len(t0) == 4
    span = {0, basis[0], basis[1], basis[0] ^ basis[1]}
    assert span == t0


def test_trace_zero_basis_needs_m_at_least_two():
    with pytest.raises(DimensionTooSmall):
        make_field(2).trace_zero_basis()


def test_solve_semilinear():
    field = make_field(4)
    assert field.solve_semilinear(3, 0) == 0
    lam = field.solve_semilinear(3, 1)
    assert lam ^ field.frob(lam, 3) == 1
    for n in (4, 6, 8):
        big = make_field(n)
        alpha = big.solve_semilinear(big.m, 1)
        assert alpha ^ big.frob(alpha, big.m) == 1


def test_solve_semilinear_returns_smallest_solution():
    field = make_field(6)
    lam = field.solve_semilinear(3, 1)
    others = [z for z in range(field.size)
              if z ^ field.frob(z, 3) == 1]
    assert lam == min(others)


def test_solve_semilinear_no_solution():
    field = make_field(4)
    # image of z + z^4 is the trace-zero set of Tr_2^4
    bad = next(t for t in range(field.size)
               if all(z ^ field.frob(z, 2) != t for z in range(field.size)))
    with pytest.raises(NoSolution):
        field.solve_semilinear(2, bad)


# ---------------------------------------------------------------------------
# The pivot table behind rank, solve_f2, coset_min and invert, against
# brute force over every combination of the inputs
# ---------------------------------------------------------------------------

def combine(vectors, x: int) -> int:
    """sum_j x_j vectors[j], input by input."""
    acc = 0
    for j, v in enumerate(vectors):
        if (x >> j) & 1:
            acc ^= v
    return acc


def systems():
    """(width, vectors): every list of up to 4 vectors of width up to 3,
    then 300 random lists of up to 6 vectors of width up to 6."""
    for w in range(1, 4):
        for k in range(5):
            for vs in itertools.product(range(1 << w), repeat=k):
                yield w, list(vs)
    rng = random.Random(20)
    for _ in range(300):
        w = rng.randint(1, 6)
        yield w, [rng.getrandbits(w) for _ in range(rng.randint(0, 6))]


def test_solve_f2_against_brute_force():
    for w, vs in systems():
        k = len(vs)
        sums = {combine(vs, x) for x in range(1 << k)}
        for t in range(1 << w):
            sol, kernel = solve_f2(vs, t)
            if t in sums:
                assert sol is not None and sol >> k == 0
                assert combine(vs, sol) == t
            else:
                assert sol is None
        # the kernel list is a basis of the null space
        nulls = sum(combine(vs, x) == 0 for x in range(1 << k))
        assert all(c >> k == 0 and combine(vs, c) == 0 for c in kernel)
        spanned = {combine(kernel, y) for y in range(1 << len(kernel))}
        assert len(spanned) == 1 << len(kernel) == nulls


def test_rank_is_the_log2_of_the_span():
    for _w, vs in systems():
        span = {combine(vs, x) for x in range(1 << len(vs))}
        assert 1 << rank(vs) == len(span)


def test_coset_min_against_brute_force():
    for w, vs in systems():
        for x in range(1 << w):
            assert coset_min(x, vs) == min(
                x ^ combine(vs, y) for y in range(1 << len(vs)))


def square_matrices():
    """Every square matrix of size up to 3, then 200 random ones up to 6."""
    for n in range(1, 4):
        for cols in itertools.product(range(1 << n), repeat=n):
            yield n, list(cols)
    rng = random.Random(21)
    for _ in range(200):
        n = rng.randint(1, 6)
        yield n, [rng.getrandbits(n) for _ in range(n)]


def test_invert_round_trips_and_refuses_a_singular_matrix():
    singular = 0
    for n, cols in square_matrices():
        if len({combine(cols, x) for x in range(1 << n)}) < 1 << n:
            singular += 1
            with pytest.raises(SingularPermutation):
                invert(cols)
            continue
        inv = invert(cols)
        for x in range(1 << n):
            assert combine(cols, combine(inv, x)) == x
            assert combine(inv, combine(cols, x)) == x
    assert singular  # both branches ran
