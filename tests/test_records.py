"""bentkit's records are named tuples.

They are immutable and iterable and compare equal to a plain tuple of
their values.  ReducedPoly and Expectation still check their values
however they are built, _replace included, and every report gets its
own failures list.
"""

import random

import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import multipoly as mp
from bentkit import specs as sp
from bentkit import verify as vf
from bentkit.errors import ArityMismatch, EmptyExpectation, UnsupportedDegree
from bentkit.gf2n import make_field


@pytest.fixture(scope="module")
def records():
    """One instance of each record that was a frozen dataclass."""
    field = make_field(4)
    table = pw.kasami_base(field, 1)
    spec = sp.FAMILIES["KasamiIdempotent"].sample(6, random.Random(0))
    return {"TruthTable": table, "WalshSpectrum": bf.walsh(table),
            "ReducedPoly": mp.poly(2, 0b11),
            "ConstructedPair": sp.build(spec),
            "Family": sp.FAMILIES["GoldLike"]}


@pytest.mark.parametrize("tau", [25, 40])
def test_reduced_poly_refuses_tau_above_24(tau):
    with pytest.raises(UnsupportedDegree, match=f"got tau={tau}"):
        mp.ReducedPoly(tau, 1)


@pytest.mark.parametrize("coeffs", [-1, 1 << 4, (1 << 4) | 1])
def test_reduced_poly_refuses_coefficients_outside_its_table(coeffs):
    with pytest.raises(ArityMismatch, match="exceeds the variable count"):
        mp.ReducedPoly(2, coeffs)
    with pytest.raises(ArityMismatch, match="exceeds the variable count"):
        mp.ReducedPoly(2, 0b1)._replace(coeffs=coeffs)
    with pytest.raises(UnsupportedDegree):
        mp.ReducedPoly(2, 0b1)._replace(tau=25)


def test_an_empty_expectation_is_refused_however_it_is_built():
    with pytest.raises(EmptyExpectation):
        vf.Expectation()
    with pytest.raises(EmptyExpectation):
        vf.Expectation(None, None, None, None)
    with pytest.raises(EmptyExpectation):
        vf.Expectation(bent=True)._replace(bent=None)
    assert vf.Expectation(degree=3) == (None, 3, None, None)


def test_two_reports_never_share_a_failures_list():
    table = pw.kasami_base(make_field(4), 1)
    a = vf.verify(table, vf.Expectation(bent=True))
    b = vf.verify(table, vf.Expectation(bent=True))
    assert a.failures == b.failures == [] and a.failures is not b.failures
    a.failures.append("changed")
    assert b.failures == []
    with pytest.raises(TypeError, match="failures"):  # there is no default
        vf.VerificationReport(*a[:9])


@pytest.mark.parametrize("name", ["TruthTable", "WalshSpectrum",
                                  "ReducedPoly", "ConstructedPair", "Family"])
def test_records_that_were_frozen_refuse_assignment(records, name):
    record = records[name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(TypeError):
        record[0] = None


def test_records_are_tuples_of_their_fields(records):
    table = records["TruthTable"]
    assert table == (table.domain, table.bits)
    assert tuple(table) == (table.domain, table.bits)
    spectrum = records["WalshSpectrum"]
    assert spectrum.magnitudes is spectrum.magnitudes  # cached per instance
    assert spectrum == (spectrum.domain, spectrum.planes)
