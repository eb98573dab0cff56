import pytest

import pointwise as pw
from bentkit import boolfun as bf
from bentkit import constructions as cx
from bentkit import multipoly as mp
from bentkit import specs as sp
from bentkit import verify as vf
from bentkit.errors import (
    ArityMismatch,
    BadRange,
    BadSpec,
    BentkitError,
    DimensionTooSmall,
    FieldMismatch,
    PreconditionViolated,
    UnsupportedDegree,
)
from bentkit.gf2n import BivariateDomain, Field, make_field


def test_verify_kasami_expectations_met():
    field = make_field(4)
    g = pw.kasami_base(field, 1)
    rep = vf.verify(g, vf.Expectation(bent=True, degree=2, idempotent=True))
    assert rep.all_claims_met
    assert rep.walsh_min_abs == rep.walsh_max_abs == 4
    assert rep.duality == bf.DualityClass.ANTI_SELF_DUAL
    assert rep.dual_match is None


def test_verify_flags_failures_with_witness():
    field = make_field(4)
    zero = bf.TruthTable(field, 0)
    rep = vf.verify(zero, vf.Expectation(bent=True))
    assert not rep.all_claims_met
    assert not rep.is_bent
    assert any("W(" in msg for msg in rep.failures)


def test_verify_predicted_dual_comparison():
    field = make_field(4)
    g = pw.kasami_base(field, 1)
    good = vf.verify(g, vf.Expectation(bent=True),
                     predicted_dual=bf.add_const(g, 1))
    assert good.dual_match is True and good.all_claims_met
    bad = vf.verify(g, vf.Expectation(bent=True), predicted_dual=g)
    assert bad.dual_match is False and not bad.all_claims_met
    assert any("beta" in msg for msg in bad.failures)


def test_verify_refuses_a_dual_from_another_domain():
    g = pw.kasami_base(make_field(6), 1)
    true_dual = bf.add_const(g, 1)
    for domain in (make_field(8), Field(6, 0x49),
                   BivariateDomain(make_field(3))):
        other = bf.TruthTable(domain, true_dual.bits)
        with pytest.raises(FieldMismatch):
            vf.verify(g, vf.Expectation(bent=True), predicted_dual=other)
    rep = vf.verify(g, vf.Expectation(bent=True), predicted_dual=true_dual)
    assert rep.all_claims_met and rep.dual_match


def test_bent_claim_on_odd_n_says_n_is_odd():
    table = bf.parse_tt("BF n=3 mod=0xb\nff\n")
    rep = vf.verify(table, vf.Expectation(bent=True))
    assert rep.failures == ["expected bent but n=3 is odd"]


def test_failure_messages_count_the_mismatches():
    field = make_field(4)
    zero = vf.verify(bf.TruthTable(field, 0), vf.Expectation(bent=True))
    # W(0) = 16 and W(beta) = 0 elsewhere: every beta is off +-4
    assert zero.failures == [
        "expected bent but W(0x0) = 16; 16 beta have |W| != 4"]
    g = pw.kasami_base(field, 1)
    true_dual = bf.add_const(g, 1)
    near = bf.TruthTable(field, true_dual.bits ^ 0b1010_0100)
    rep = vf.verify(g, vf.Expectation(bent=True), predicted_dual=near)
    assert rep.failures == ["dual differs at 3 beta, first at beta=0x2"]


def test_every_wrong_claim_is_explained():
    field = make_field(8)
    pair = cx.kasami_idempotent(field, field.find_normal(),
                                mp.elementary_symmetric(4, 3))
    rep = vf.verify(pair.f, vf.Expectation(
        bent=False, degree=2, idempotent=False,
        duality=bf.DualityClass.SELF_DUAL))
    assert rep.failures == [
        "expected non-bent but the spectrum is flat",
        "degree 3 != expected 2",
        "idempotent=True != expected False",
        "duality Neither != expected SelfDual"]
    assert rep.dual_match is None and not rep.all_claims_met
    flat = vf.verify(bf.TruthTable(field, 0), vf.Expectation(bent=False),
                     predicted_dual=pair.predicted_dual)
    assert flat.dual_match is False
    assert flat.failures == ["predicted dual given but function is not bent"]


def test_report_carries_the_computed_dual():
    field = make_field(4)
    g = pw.kasami_base(field, 1)
    rep = vf.verify(g, vf.Expectation(bent=True))
    assert rep.computed_dual.bits == bf.dual(bf.walsh(g)).bits
    assert "computed_dual" not in rep.to_dict()
    rep = vf.verify(bf.TruthTable(field, 0), vf.Expectation(bent=False))
    assert rep.computed_dual is None


def test_verify_duality_expectation():
    field = make_field(6)
    pair = cx.kasami_antiselfdual(field, mp.poly(2, 0b11))
    rep = vf.verify(pair.f,
                    vf.Expectation(duality=bf.DualityClass.ANTI_SELF_DUAL))
    assert rep.all_claims_met


def test_expectation_must_claim_something():
    with pytest.raises(ValueError):
        vf.Expectation()
    with pytest.raises(BentkitError):  # an input error: the CLI exits 2
        vf.Expectation()


def test_report_serializes():
    field = make_field(4)
    rep = vf.verify(pw.kasami_base(field, 1), vf.Expectation(bent=True))
    doc = rep.to_dict()
    assert doc["is_bent"] is True
    assert doc["duality"] == "AntiSelfDual"
    assert set(doc) >= {"walsh_min_abs", "walsh_max_abs", "degree",
                        "idempotent", "dual_match", "elapsed",
                        "all_claims_met", "failures"}


def test_demo_carlet_small():
    entries = vf.demo_carlet(2)
    assert [e.d for e in entries] == [2]
    assert entries[0].ok
    entries = vf.demo_carlet(4)
    assert [e.d for e in entries] == [2, 3, 4]
    for e in entries:
        assert e.ok
        assert e.report.degree == e.d
        assert e.report.idempotent
        assert e.dual_idempotent


def test_demo_carlet_states_each_rungs_degree_itself(monkeypatch):
    """Rung d claims degree d, not the degree of the F it was handed."""
    quadratic = mp.elementary_symmetric(4, 2)
    monkeypatch.setattr(mp, "elementary_symmetric", lambda m, d: quadratic)
    entries = vf.demo_carlet(4)
    assert [e.ok for e in entries] == [True, False, False]
    assert entries[2].report.failures == ["degree 2 != expected 4"]


def test_demo_carlet_needs_a_degree_two_rung():
    with pytest.raises(DimensionTooSmall):
        vf.demo_carlet(1)


def test_demo_carlet_seed_changes_normal_element():
    a = vf.demo_carlet(3, seed=0)
    b = vf.demo_carlet(3, seed=5)
    assert all(e.ok for e in a + b)
    field = make_field(6)
    orbits = []
    for seed, entries in ((0, a), (5, b)):
        u = field.find_normal(seed)
        orbit = (u, field.frob(u, 1), field.frob(field.frob(u, 1), 1))
        assert all(e.pair.shifts == orbit for e in entries)
        orbits.append(orbit)
    assert orbits[0][0] == 0xf and orbits[1][0] == 0x18
    assert orbits[0] != orbits[1]


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_demo_carlet_translates_each_shift_once(m, monkeypatch):
    """The rungs share one checked base through _differences' memo: m
    translations of g~ in all, one per orbit shift, not m at each of the
    m - 1 rungs."""
    cx._differences.cache_clear()
    shifts = []
    translate = cx.translate

    def counted(bits, n, s):
        shifts.append(s)
        return translate(bits, n, s)
    monkeypatch.setattr(cx, "translate", counted)
    entries = vf.demo_carlet(m)
    assert len(entries) == m - 1
    assert len(shifts) == m
    assert tuple(shifts) == entries[0].pair.shifts


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_demo_mesnager_translates_each_shift_once(m, monkeypatch):
    """The four pairs share one anti-self-dual base through _differences'
    memo: m - 1 translations of g~ in all, one per trace-zero shift, not
    m - 1 for each pair; an F of another arity is still ArityMismatch."""
    cx._differences.cache_clear()
    shifts = []
    translate = cx.translate

    def counted(bits, n, s):
        shifts.append(s)
        return translate(bits, n, s)
    monkeypatch.setattr(cx, "translate", counted)
    assert vf.demo_mesnager(m).ok
    assert shifts == make_field(2 * m).trace_zero_basis()
    with pytest.raises(ArityMismatch,
                       match=f"F has {m} variables but {m - 1} shifts"):
        vf.demo_mesnager(m, mp.poly(m, 0b11))


def test_demo_mesnager_defaults():
    bundle = vf.demo_mesnager(3)
    assert bundle.ok
    assert len(bundle.reports) == 4
    for rep in bundle.reports:
        assert rep.duality == bf.DualityClass.ANTI_SELF_DUAL


def test_demo_mesnager_equal_polys_degenerates():
    F = mp.poly(2, 0b11)
    bundle = vf.demo_mesnager(3, F, F, F)
    assert bundle.ok
    # F + F + F = F, so the sum is f1 itself
    direct = cx.kasami_antiselfdual(make_field(6), F)
    assert bundle.sum_table.bits == direct.f.bits


def test_sweep_deterministic_and_all_pass():
    a = vf.sweep("KasamiSubfield", [2, 3], 4, seed=7)
    b = vf.sweep("KasamiSubfield", [2, 3], 4, seed=7)
    assert a.trials == b.trials == 8
    assert a.all_ok and b.all_ok
    assert a.bent_count == 8 and a.dual_matched == a.dual_checked == 8
    assert ([e.notes for e in a.entries] == [e.notes for e in b.entries])
    assert ([e.report.to_dict() | {"elapsed": 0} for e in a.entries]
            == [e.report.to_dict() | {"elapsed": 0} for e in b.entries])


@pytest.mark.parametrize("trials", [0, -2])
def test_sweep_refuses_trial_counts_below_one(trials):
    with pytest.raises(BadRange, match=f"got {trials}"):
        vf.sweep("GoldLike", [1], trials, seed=7)


def test_sweep_refuses_an_empty_size_list():
    with pytest.raises(BadRange, match="at least one size"):
        vf.sweep("MMLinear", [], 5, seed=0)


def test_sweep_refuses_a_size_it_cannot_finish_before_checking_any(
        monkeypatch):
    def unexpected(spec):
        raise AssertionError(f"checked {spec.family} n={spec.n}")
    monkeypatch.setattr(vf, "check", unexpected)
    with pytest.raises(UnsupportedDegree, match="n <= 24, got n=26"):
        vf.sweep("QuadIdem", [11, 13], 1, 0)


def test_sweep_refuses_a_size_below_the_familys_least_before_checking_any(
        monkeypatch):
    """As the constructors refuse it, but before the m = 3 instance."""
    def unexpected(spec):
        raise AssertionError(f"checked {spec.family} n={spec.n}")
    monkeypatch.setattr(vf, "check", unexpected)
    with pytest.raises(PreconditionViolated) as exc:
        vf.sweep("KasamiGeneral", [3, 1], 1, 0)
    assert str(exc.value) == "need n = 2m with m >= 2, got n=2"


@pytest.mark.parametrize("family, sizes, trials, builder", [
    pytest.param("QuadIdem", [3], 40, "_quad_base", id="QuadIdem"),
    pytest.param("KasamiGeneral", [5], 40, "_kasami_base", id="KasamiGeneral"),
    pytest.param("GoldLike", [1, 2], 4, "_gold_base", id="GoldLike"),
    pytest.param("Niho", [5, 7, 8, 9], 16, "_niho_base", id="Niho"),
    pytest.param("MMMonomial", [3, 5], 20, "_mm_monomial_base",
                 id="MMMonomial"),
])
def test_a_sweep_keeps_at_most_16_base_tables(family, sizes, trials, builder):
    cache = getattr(cx, builder)
    cache.cache_clear()
    vf.sweep(family, sizes, trials, 0)
    info = cache.cache_info()
    assert info.misses and info.currsize <= info.maxsize == 16


def test_sweep_refuses_an_unknown_family_before_drawing(monkeypatch):
    def unexpected(family, m, rng):
        raise AssertionError(f"drew {family} m={m}")
    monkeypatch.setattr(vf, "_sample", unexpected)
    with pytest.raises(BadSpec, match="unknown family 'Nope'") as exc:
        vf.sweep("Nope", [3], 1, 0)
    assert all(name in str(exc.value) for name in sp.FAMILIES)


def test_sweep_gold_duals():
    rep = vf.sweep("GoldLike", [1, 2], 5, seed=7)
    assert rep.all_ok
    assert rep.dual_checked == 10 and rep.dual_matched == 10


@pytest.mark.parametrize("family", [
    "KasamiGeneral", "KasamiIdempotent", "KasamiAntiSelfDual",
    "QuadIdem", "QuadFamily", "Niho", "MMLinear", "MMMonomial",
])
def test_sweep_every_family_samples_cleanly(family):
    rep = vf.sweep(family, [2, 3], 3, seed=11)
    assert rep.trials == 6
    assert rep.all_ok, [  # surface the first failing entry
        (e.notes, e.report.failures) for e in rep.entries
        if not e.report.all_claims_met]


QUAD_IDEM_FAMILY = ('{"family": "QuadFamily", "n": 8, "c": [1, 0, 0, 0, 1],'
                    ' "u": ["0xc"],'
                    ' "F": "X1*X2*X3+X2*X3*X4+X3*X4*X1+X4*X1*X2"}')


def test_quad_idempotent_family_claims_idempotence_and_degree():
    spec = sp.spec_from_json(QUAD_IDEM_FAMILY)
    built = sp.build(spec)
    assert built.notes.startswith("QuadIdemFamily")
    assert built.claims == bf.Expectation(bent=True, idempotent=True,
                                          degree=3)
    checked = vf.check(spec)
    assert checked.label == built.notes and checked.report.all_claims_met
    # affine F: the degree is the quadratic base's
    affine = sp.spec_from_json(QUAD_IDEM_FAMILY.replace(
        "X1*X2*X3+X2*X3*X4+X3*X4*X1+X4*X1*X2", "X1+X2+X3+X4"))
    assert sp.build(affine).claims.degree == 2
    # several shifts, F in one variable per shift: only bentness is claimed
    plain = sp.ConstructionSpec("QuadFamily", 8, c=(1, 0, 0, 0, 1),
                                u=(0xc, 0xd), F="X1*X2")
    assert sp.build(plain).claims == bf.Expectation(bent=True)


def test_check_labels_the_bare_quad_base_by_m():
    spec = sp.ConstructionSpec("QuadIdem", 6, c=(1, 0, 0, 0))
    pair = sp.build(spec)
    assert pair.notes == "QuadIdem m=3" and pair.shifts == ()
    assert pair.claims == bf.Expectation(bent=False, idempotent=True)
    checked = vf.check(spec)
    assert checked.label == "QuadIdem m=3"
    assert checked.predicted_dual is None
    assert checked.report.dual_match is None
    assert not checked.report.is_bent and checked.report.all_claims_met
    with pytest.raises(PreconditionViolated,
                       match="QuadIdem m=3 has no shifts and no F"):
        vf.master_identity_holds(pair)
