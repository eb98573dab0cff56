import random

import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import multipoly as mp
from bentkit.errors import (
    ArityMismatch,
    DegreeOutOfRange,
    ZeroCoefficient,
    ZeroMask,
)
from bentkit.gf2n import make_field, rank


def eval_oracle(F, x):
    acc = 0
    for mono in pw.monomials(F):
        term = 1
        for i in range(F.tau):
            if (mono >> i) & 1:
                term &= (x >> i) & 1
        acc ^= term
    return acc


def test_evaluate_examples():
    F = mp.poly(2, 0b11)
    assert pw.evaluate(F, 0b11) == 1
    assert pw.evaluate(F, 0b01) == 0


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_evaluate_matches_monomial_oracle(tau):
    rng = random.Random(tau)
    for _ in range(10):
        F = mp.poly(tau, *rng.sample(
            range(1 << tau), rng.randint(0, 1 << tau)))
        for x in range(1 << tau):
            assert pw.evaluate(F, x) == eval_oracle(F, x)


def test_tau_zero_rejected():
    with pytest.raises(ArityMismatch):
        mp.poly(0)
    with pytest.raises(ArityMismatch):
        mp.poly(2, 0b100)


def test_fourier_examples():
    assert mp.fourier(mp.poly(3)) == (8, 0, 0, 0, 0, 0, 0, 0)
    assert mp.fourier(mp.poly(2, 0b01)) == (0, 4, 0, 0)
    # frozen from the 4-point brute force
    assert mp.fourier(mp.poly(2, 0b11)) == (2, 2, 2, -2)


@pytest.mark.parametrize("tau", [1, 2, 3, 6, 10])
def test_fourier_parseval_and_reconstruction(tau):
    rng = random.Random(tau + 9)
    F = mp.poly(tau, *rng.sample(
        range(1 << tau), rng.randint(1, 4)))
    fc = mp.fourier(F)
    assert sum(v * v for v in fc) == 4 ** tau
    # a second transform recovers 2^tau times the sign vector
    back = pw.fwht(list(fc))
    assert back == [(1 << tau) * (1 - 2 * pw.evaluate(F, x))
                    for x in range(1 << tau)]


@pytest.mark.parametrize("tau", [1, 2, 3, 4])
def test_fourier_injective_exhaustive(tau):
    seen = {}
    for bits in range(1 << (1 << tau)):
        F = mp.ReducedPoly(tau, bits)
        chat = mp.fourier(F)
        assert chat not in seen, (bits, seen[chat])
        seen[chat] = bits


def test_rotation_symmetry():
    assert mp.is_rotation_symmetric(mp.elementary_symmetric(5, 3))
    assert not mp.is_rotation_symmetric(mp.poly(3, 0b011))
    assert mp.is_rotation_symmetric(mp.poly(3, 0b011, 0b110, 0b101))


def test_elementary_symmetric():
    assert pw.monomials(mp.elementary_symmetric(3, 1)) == frozenset({1, 2, 4})
    assert pw.monomials(mp.elementary_symmetric(3, 3)) == frozenset({7})
    assert len(pw.monomials(mp.elementary_symmetric(4, 2))) == 6
    with pytest.raises(DegreeOutOfRange):
        mp.elementary_symmetric(3, 4)
    with pytest.raises(DegreeOutOfRange):
        mp.elementary_symmetric(3, 0)


def test_rotation_closure():
    assert pw.monomials(mp.rotation_closure(0b001, 3)) == frozenset({1, 2, 4})
    assert (pw.monomials(mp.rotation_closure(0b0011, 4))
            == frozenset({0b0011, 0b0110, 0b1100, 0b1001}))
    with pytest.raises(ZeroMask):
        mp.rotation_closure(0, 3)
    with pytest.raises(ArityMismatch):
        mp.rotation_closure(0b1000, 3)
    rng = random.Random(13)
    for _ in range(20):
        tau = rng.randint(1, 8)
        F = mp.rotation_closure(rng.randrange(1, 1 << tau), tau)
        assert mp.is_rotation_symmetric(F)
        # shift-by-one invariance implies invariance under all shifts
        shifted = F
        for _ in range(tau):
            shifted = mp.poly(tau, *(
                ((m << 1) & ((1 << tau) - 1)) | (m >> (tau - 1))
                for m in pw.monomials(shifted)))
            assert shifted == F


def test_compose_traces_examples():
    field = make_field(4)
    single = mp.compose_traces(field, mp.poly(1, 0b1), [1])
    assert single == pw.from_bits(
        field, [pw.trace_abs(field, x) for x in range(16)]).bits
    assert mp.compose_traces(field, mp.poly(2), [1, 2]) == 0
    with pytest.raises(ZeroCoefficient):
        mp.compose_traces(field, mp.poly(2, 0b11), [1, 0])
    with pytest.raises(ArityMismatch):
        mp.compose_traces(field, mp.poly(2, 0b11), [1])
    with pytest.raises(ArityMismatch, match="2 variables but 1 arguments"):
        mp.compose(mp.poly(2, 0b11), [0xaaaa], 0xffff)  # X_0 on 16 indices


@pytest.mark.parametrize("n", [4, 6])
def test_composed_degree_matches_polynomial_degree(n):
    # independent shifts preserve the algebraic degree of F
    field = make_field(n)
    rng = random.Random(n)
    for tau in range(1, 4):
        for _ in range(8):
            us = []
            while len(us) < tau:
                cand = rng.randrange(1, field.size)
                if rank(us + [cand]) == len(us) + 1:
                    us.append(cand)
            F = mp.poly(tau, *rng.sample(
                range(1 << tau), rng.randint(1, 1 << tau)))
            composed = bf.TruthTable(field, mp.compose_traces(field, F, us))
            assert bf.degree(composed) == F.degree()


def test_text_format():
    assert mp.format_poly(mp.poly(3)) == "0"
    assert mp.format_poly(mp.poly(3, 0)) == "1"
    F = mp.poly(4, 0b1101, 0b0001, 0)
    text = mp.format_poly(F)
    assert mp.parse_poly(text, 4) == F
    assert mp.parse_poly("X1*X3*X4+X1+1", 4) == F
    rng = random.Random(21)
    for _ in range(20):
        tau = rng.randint(1, 6)
        G = mp.poly(tau, *rng.sample(
            range(1 << tau), rng.randint(0, min(5, 1 << tau))))
        assert mp.parse_poly(mp.format_poly(G), tau) == G
    with pytest.raises(ArityMismatch):
        mp.parse_poly("X5", 3)
    with pytest.raises(ArityMismatch):
        mp.parse_poly("Y1", 2)


def test_poly_addition_cancels():
    F = mp.poly(3, 0b011, 0b101)
    G = mp.poly(3, 0b101, 0b110)
    assert pw.monomials(F + G) == frozenset({0b011, 0b110})
    with pytest.raises(ArityMismatch):
        F + mp.poly(2, 0b01)
