"""Claim checking for constructed functions, demonstrators, and sweeps.

Failures are data, not exceptions: a report records every mismatch (with
the offending spectrum index where that makes sense) so a falsified claim
can be diagnosed instead of vanishing into a stack trace.

The spectrum identity is checked on bit planes: master_identity_holds
sums its weighted, translated sign tables with boolfun.add_planes.
"""

from __future__ import annotations

import random
import time
from collections import namedtuple

from . import boolfun, multipoly
from .boolfun import DualityClass, TruthTable
from .errors import (
    BadRange,
    DimensionTooSmall,
    EmptyExpectation,
    FieldMismatch,
    NoSolution,
    PreconditionViolated,
)
from .gf2n import make_field, require_table_degree, translate
from .multipoly import ReducedPoly

# ConstructedPair (bentkit.constructions) and ConstructionSpec
# (bentkit.specs) appear only in postponed annotations, which are never
# evaluated: the demos load constructions, and only check, _sample and
# sweep load specs.


class Expectation(namedtuple("Expectation", "bent degree idempotent duality",
                             defaults=(None,) * 4)):
    """The claims to check; a claim left None is not checked."""
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self == (None,) * 4:
            raise EmptyExpectation("expectation is empty")
        return self

    # _replace builds through _make: check its values as __new__ does
    _make = classmethod(lambda cls, values: cls(*values))


def _json_fields(report, skip: str) -> dict:
    """A report's fields in order but skip, a DualityClass by its value."""
    return {name: v.value if isinstance(v, DualityClass) else v
            for name, v in zip(report._fields, report) if name != skip}


class VerificationReport(namedtuple("VerificationReport", (
        "is_bent walsh_min_abs walsh_max_abs degree idempotent duality "
        "dual_match elapsed all_claims_met failures computed_dual"))):
    """failures is a list of messages.  computed_dual, the dual computed
    from the spectrum, is for callers and is not serialized."""
    __slots__ = ()

    def to_dict(self) -> dict:
        return _json_fields(self, "computed_dual")


def verify(f: TruthTable, exp: Expectation,
           predicted_dual: TruthTable | None = None) -> VerificationReport:
    """Run the full exact pipeline on f and compare against expectations.

    A predicted dual from another domain is FieldMismatch.
    """
    if predicted_dual is not None and predicted_dual.domain != f.domain:
        raise FieldMismatch("dual table lives on a different domain")
    start = time.perf_counter()
    spec = boolfun.walsh(f)
    lo, hi = spec.extrema()
    flat = 1 << (f.domain.n // 2)
    bent = f.domain.n % 2 == 0 and lo == flat and hi == flat
    deg = boolfun.degree(f)
    idem = boolfun.is_idempotent(f)
    computed_dual = boolfun.dual(spec) if bent else None
    dcls = (boolfun.duality_class(f, computed_dual) if bent
            else DualityClass.NEITHER)
    dual_match = None
    failures: list[str] = []
    if predicted_dual is not None:
        if computed_dual is None:
            dual_match = False
            failures.append("predicted dual given but function is not bent")
        else:
            diff = predicted_dual.bits ^ computed_dual.bits
            dual_match = not diff
            if diff:
                beta = (diff & -diff).bit_length() - 1
                failures.append(f"dual differs at {diff.bit_count()} beta, "
                                f"first at beta={beta:#x}")

    if exp.bent is not None and bent != exp.bent:
        if exp.bent and f.domain.n % 2:
            failures.append(f"expected bent but n={f.domain.n} is odd")
        elif exp.bent:
            off = spec.off_flat_mask()
            bad = (off & -off).bit_length() - 1
            failures.append(
                f"expected bent but W({bad:#x}) = {spec.value(bad)}; "
                f"{off.bit_count()} beta have |W| != {flat}")
        else:
            failures.append("expected non-bent but the spectrum is flat")
    if exp.degree is not None and deg != exp.degree:
        failures.append(f"degree {deg} != expected {exp.degree}")
    if exp.idempotent is not None and idem != exp.idempotent:
        failures.append(f"idempotent={idem} != expected {exp.idempotent}")
    if exp.duality is not None and dcls != exp.duality:
        failures.append(f"duality {dcls.value} != expected {exp.duality.value}")
    return VerificationReport(
        is_bent=bent, walsh_min_abs=lo, walsh_max_abs=hi, degree=deg,
        idempotent=idem, duality=dcls, dual_match=dual_match,
        elapsed=time.perf_counter() - start,
        all_claims_met=not failures, failures=failures,
        computed_dual=computed_dual)


Checked = namedtuple("Checked", "label f predicted_dual report")


def check(spec: ConstructionSpec) -> Checked:
    """Build a spec and verify its family's claims, and f against the
    predicted dual where the family has one."""
    from . import constructions, specs
    built = specs.build(spec)
    exp = Expectation(**specs.FAMILIES[spec.family].claims(spec, built))
    if isinstance(built, constructions.ConstructedPair):
        label, f, dual = built.notes, built.f, built.predicted_dual
    else:  # QuadIdem: the bare base, with no dual attached
        label, f, dual = f"{spec.family} m={spec.n // 2}", built, None
    return Checked(label, f, dual, verify(f, exp, predicted_dual=dual))


def master_identity_holds(pair: ConstructedPair) -> bool:
    """Check W_f(beta) = 2^(n/2 - tau) sum_w chat[w] (-1)^(g~(beta + w.u)).

    g~ is read from the base's spectrum, w.u is the XOR of the u_i with i
    in w, and the sum over w is added on bit planes, for every beta at once.
    """
    dom = pair.f.domain
    chat = multipoly.fourier(pair.poly)
    gdual = boolfun.dual(boolfun.walsh(pair.base)).bits
    spec = boolfun.walsh(pair.f)
    scale = 1 << (dom.n // 2 - pair.poly.tau)
    full = (1 << dom.size) - 1
    wu = [0]  # wu[w] = w.u
    for u in pair.shifts:
        wu += [s ^ u for s in wu]
    # The sum wraps at the n+2 bits of the Walsh planes, which still decide
    # equality: |sum| <= 2^(n/2 - tau) 2^(3 tau/2) <= 2^(3n/4) (Parseval on
    # chat, and tau <= n/2) and |W_f| <= 2^n, so the two differ by < 2^(n+2).
    total = [0] * len(spec.planes)
    for c, s in zip(chat, wu):
        t = translate(gdual, dom.n, s)  # +c where t is 0, -c where it is 1
        c *= scale
        term = [(full ^ t if (c >> k) & 1 else 0) | (t if (-c >> k) & 1 else 0)
                for k in range(len(total))]
        total = boolfun.add_planes(total, term)
    return tuple(total) == spec.planes


# ---------------------------------------------------------------------------
# open-problem demonstrators
# ---------------------------------------------------------------------------

class CarletEntry(namedtuple("CarletEntry",
                             "d pair report dual_idempotent")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.report.all_claims_met and self.dual_idempotent


def demo_carlet(m: int, seed: int = 0) -> list[CarletEntry]:
    """Bent idempotents of every degree 2..m on GF(2^(2m)), verified."""
    from . import constructions
    if m < 2:
        raise DimensionTooSmall(
            f"m >= 2 required for a degree-2 rung, got {m}")
    require_table_degree(2 * m)
    field = make_field(2 * m)
    out = []
    for d, pair in constructions.kasami_ladder(field, field.find_normal(seed)):
        rep = verify(pair.f,
                     Expectation(bent=True, degree=d, idempotent=True),
                     predicted_dual=pair.predicted_dual)
        dual_idem = (rep.is_bent and
                     boolfun.is_idempotent(rep.computed_dual))
        out.append(CarletEntry(d, pair, rep, dual_idem))
    return out


class MesnagerBundle(namedtuple("MesnagerBundle",
                                "reports sum_table sum_matches_direct")):
    """reports of f1, f2, f3 and f1+f2+f3."""
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.sum_matches_direct and all(
            r.all_claims_met for r in self.reports)


def demo_mesnager(m: int, F1: ReducedPoly | str | None = None,
                  F2: ReducedPoly | str | None = None,
                  F3: ReducedPoly | str | None = None) -> MesnagerBundle:
    """Three anti-self-dual functions whose sum stays anti-self-dual.

    Each F is in m - 1 variables; an F given as text is parsed only after
    m is checked."""
    from . import constructions
    if m < 3:
        raise NoSolution("m >= 3 required so degree >= 2 choices exist")
    require_table_degree(2 * m)
    tau = m - 1
    F1, F2, F3 = (multipoly.poly(tau, mask) if F is None
                  else multipoly.parse_poly(F, tau) if isinstance(F, str)
                  else F
                  for F, mask in ((F1, 0b11), (F2, 0b10), (F3, 0b01)))
    field = make_field(2 * m)
    want = Expectation(bent=True, duality=DualityClass.ANTI_SELF_DUAL)
    pair = constructions.kasami_antiselfdual_pairs(field)
    pairs = [pair(F) for F in (F1, F2, F3)]
    reports = [verify(p.f, want, predicted_dual=p.predicted_dual)
               for p in pairs]
    total = boolfun.add(boolfun.add(pairs[0].f, pairs[1].f), pairs[2].f)
    reports.append(verify(total, want))
    direct = pair(F1 + F2 + F3)
    return MesnagerBundle(reports, total, total.bits == direct.f.bits)


# ---------------------------------------------------------------------------
# seeded sweeps
# ---------------------------------------------------------------------------

SweepEntry = namedtuple("SweepEntry", "notes report")


class SweepReport(namedtuple("SweepReport", (
        "family trials claims_met bent_count dual_checked dual_matched "
        "elapsed entries"))):
    __slots__ = ()

    @property
    def all_ok(self) -> bool:
        return self.claims_met == self.trials

    def to_dict(self) -> dict:
        return _json_fields(self, "entries")


def _sample(family: str, m: int, rng: random.Random) -> ConstructionSpec:
    """One random valid spec of size m."""
    from . import specs
    record = specs.FAMILIES[family]
    return record.sample(record.scale * m, rng)


def sweep(family: str, m_values, trials: int, seed: int) -> SweepReport:
    """Deterministic seeded sampling and verification across sizes.

    m_values are subfield degrees m (n = 2m), except for GoldLike where
    they are k (n = 4k).  Each trial is one draw of the family's sampler,
    which keeps the parameters inside the family preconditions in a
    single pass.  A sweep that would check nothing (no sizes, or fewer
    than one trial) is BadRange, and a size below the family's least, or
    one whose tables are too large, is refused before any is drawn.  Sizes
    are read one at a time up to the first bad one, so a lazy m_values,
    such as an oversized range, is refused without being expanded.  An
    unknown family is BadSpec.
    """
    from . import specs
    record = specs.lookup_family(family)
    if trials < 1:
        raise BadRange(f"trials must be at least 1, got {trials}")
    sizes = []
    for m in m_values:  # before anything is drawn
        if m < 1:
            raise BadRange(f"{family} sizes must be at least 1, got {m}")
        if m < record.least:  # as the family's constructors refuse it
            raise PreconditionViolated(f"need n = 2m with m >= {record.least}"
                                       f", got n={record.scale * m}")
        require_table_degree(record.scale * m)
        sizes.append(m)
    if not sizes:
        raise BadRange(f"{family} needs at least one size")
    rng = random.Random(seed)
    start = time.perf_counter()
    entries = []
    for m in sizes:
        for _ in range(trials):
            checked = check(_sample(family, m, rng))
            # kept without its 2^n-bit dual table
            entries.append(SweepEntry(checked.label, checked.report._replace(
                computed_dual=None)))
    reports = [e.report for e in entries]
    return SweepReport(
        family=family, trials=len(reports),
        claims_met=sum(r.all_claims_met for r in reports),
        bent_count=sum(r.is_bent for r in reports),
        dual_checked=sum(r.dual_match is not None for r in reports),
        dual_matched=sum(r.dual_match is True for r in reports),
        elapsed=time.perf_counter() - start, entries=entries)
