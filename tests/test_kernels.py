"""Property tests: the packed-int kernels against the list oracles.

Random tables on fields with random irreducible moduli (n = 1..10, odd n
included) and on bivariate grids.  The oracles are the list transforms
fwht, mobius and walsh_naive, re-indexed point by point through
walsh_index and squaring_perm.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from bentkit import boolfun as bf  # noqa: E402
from bentkit.errors import NotBent, OddDimension  # noqa: E402
from bentkit.gf2n import (  # noqa: E402
    BivariateDomain,
    Field,
    is_irreducible,
    pull_linear,
    rank,
)


@st.composite
def fields(draw, max_n=10):
    n = draw(st.integers(1, max_n))
    start = draw(st.integers(0, (1 << n) - 1))
    # the first irreducible modulus at or after a random start, wrapping
    for offset in range(1 << n):
        mod = (1 << n) | ((start + offset) % (1 << n))
        if is_irreducible(mod):
            return Field(n, mod)
    raise AssertionError(f"no irreducible polynomial of degree {n}")


@st.composite
def domains(draw, max_n=10):
    if draw(st.booleans()):
        return BivariateDomain(draw(fields(max_n // 2)))
    return draw(fields(max_n))


def inner_product_bent(n: int, a: int, c: int) -> int:
    """x.y + a.(x, y) + c on the index halves: bent whatever the pairing."""
    h = n // 2
    bits = 0
    for i in range(1 << n):
        v = ((i >> h) & i & ((1 << h) - 1)).bit_count()
        v += (i & a).bit_count() + c
        bits |= (v & 1) << i
    return bits


def squaring_closure(domain, bits: int) -> int:
    """OR of a table over the squaring orbits: an idempotent table."""
    perm = domain.squaring_perm()
    for _ in range(domain.n):
        bits |= sum(((bits >> j) & 1) << i for i, j in enumerate(perm))
    return bits


@st.composite
def tables(draw, max_n=10):
    dom = draw(domains(max_n))
    bits = draw(st.integers(0, (1 << dom.size) - 1))
    kind = draw(st.sampled_from(["random", "bent", "idempotent"]))
    if kind == "bent" and dom.n % 2 == 0:
        bits = inner_product_bent(dom.n, bits >> 1, bits & 1)
    elif kind == "idempotent":
        bits = squaring_closure(dom, bits)
    return bf.TruthTable(dom, bits)


def list_spectrum(f) -> tuple[int, ...]:
    """The list FWHT, re-indexed beta by beta through walsh_index."""
    dom = f.domain
    raw = bf.fwht([1 - 2 * b for b in f.to_bitlist()])
    return tuple(raw[dom.walsh_index(beta)] for beta in range(dom.size))


def packed(flags) -> int:
    return sum(1 << i for i, flag in enumerate(flags) if flag)


def apply_columns(columns, z: int) -> int:
    out = 0
    for j, col in enumerate(columns):
        if (z >> j) & 1:
            out ^= col
    return out


@given(tables())
def test_walsh_planes_match_the_list_transform(f):
    spec = bf.walsh(f)
    old = list_spectrum(f)
    assert len(spec.planes) == f.domain.n + 2
    for k, plane in enumerate(spec.planes):
        assert plane == packed((v >> k) & 1 for v in old)
    assert spec.values == old
    assert bf.WalshSpectrum.from_values(f.domain, old) == spec
    assert [spec.value(beta) for beta in range(f.domain.size)] == list(old)
    assert spec.parseval_holds()


@given(tables(max_n=6))
def test_walsh_matches_the_naive_definition(f):
    assert bf.walsh(f).values == bf.walsh_naive(f).values


@given(tables())
def test_extrema_bentness_and_dual_match_the_list_versions(f):
    n = f.domain.n
    spec = bf.walsh(f)
    old = list_spectrum(f)
    mags = [abs(v) for v in old]
    flat = 1 << (n // 2)
    assert spec.extrema() == (min(mags), max(mags))
    assert spec.off_flat_mask() == packed(m != flat for m in mags)
    if n % 2:
        with pytest.raises(OddDimension):
            bf.is_bent(spec)
        return
    bent = all(m == flat for m in mags)
    assert bf.is_bent(spec) == bent
    if bent:
        assert bf.dual(spec).bits == packed(v < 0 for v in old)
    else:
        with pytest.raises(NotBent):
            bf.dual(spec)


@given(tables())
def test_packed_anf_and_degree_match_moebius(f):
    coeffs = bf.mobius(f.to_bitlist())
    poly = bf.anf(f)
    assert poly.coeffs == packed(coeffs)
    assert poly.monomials == frozenset(i for i, c in enumerate(coeffs) if c)
    assert poly.degree() == max(
        (i.bit_count() for i, c in enumerate(coeffs) if c), default=0)
    assert bf.degree(f) == poly.degree()
    assert bf.from_anf(f.domain, poly).bits == f.bits


@given(tables())
def test_idempotence_matches_the_squaring_permutation(f):
    perm = f.domain.squaring_perm()
    assert bf.is_idempotent(f) == all(
        f.bit(i) == f.bit(j) for i, j in enumerate(perm))


@given(domains(), st.data())
def test_index_maps_match_squaring_perm_and_walsh_index(dom, data):
    bits = data.draw(st.integers(0, (1 << dom.size) - 1))
    perm = dom.squaring_perm()
    squared = pull_linear(bits, dom.squaring_map())
    assert squared == packed((bits >> perm[x]) & 1 for x in range(dom.size))
    assert [apply_columns(dom.squaring_map(), x)
            for x in range(dom.size)] == perm

    cols = dom.walsh_map()
    pulled = pull_linear(bits, cols)
    assert pulled == packed((bits >> apply_columns(cols, z)) & 1
                            for z in range(dom.size))
    # the pairing Tr(beta * M z) is the dot product beta . z
    for i in range(dom.n):
        for j in range(dom.n):
            pairing = (dom.walsh_index(1 << i) & cols[j]).bit_count() & 1
            assert pairing == (i == j)


@st.composite
def invertible_maps(draw):
    n = draw(st.integers(1, 8))
    cols = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n,
                         max_size=n).filter(lambda c: rank(c) == len(c)))
    return n, cols


@given(invertible_maps(), st.data())
def test_pull_linear_on_random_invertible_maps(nmap, data):
    n, cols = nmap
    bits = data.draw(st.integers(0, (1 << (1 << n)) - 1))
    assert pull_linear(bits, cols) == packed(
        (bits >> apply_columns(cols, y)) & 1 for y in range(1 << n))


def test_pull_linear_refuses_a_singular_map():
    with pytest.raises(ValueError):
        pull_linear(0b1011, [0b01, 0b01])
