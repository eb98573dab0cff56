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
from dataclasses import dataclass, field as dc_field

from . import boolfun, constructions, multipoly
from .boolfun import DualityClass, TruthTable
from .constructions import ConstructedPair
from .errors import (
    BadRange,
    DimensionTooSmall,
    EmptyExpectation,
    FieldMismatch,
    NoSolution,
)
from .gf2n import make_field, translate
from .multipoly import ReducedPoly


@dataclass
class Expectation:
    bent: bool | None = None
    degree: int | None = None
    idempotent: bool | None = None
    duality: DualityClass | None = None
    dual_table: TruthTable | None = None

    def __post_init__(self):
        if (self.bent is None and self.degree is None
                and self.idempotent is None and self.duality is None
                and self.dual_table is None):
            raise EmptyExpectation("expectation is empty")


@dataclass
class VerificationReport:
    is_bent: bool
    walsh_min_abs: int
    walsh_max_abs: int
    degree: int
    idempotent: bool
    duality: DualityClass
    dual_match: bool | None
    elapsed: float
    all_claims_met: bool
    failures: list[str] = dc_field(default_factory=list)
    # the dual computed from the spectrum, for callers; not serialized
    computed_dual: TruthTable | None = None

    def to_dict(self) -> dict:
        return {
            "is_bent": self.is_bent,
            "walsh_min_abs": self.walsh_min_abs,
            "walsh_max_abs": self.walsh_max_abs,
            "degree": self.degree,
            "idempotent": self.idempotent,
            "duality": self.duality.value,
            "dual_match": self.dual_match,
            "elapsed": self.elapsed,
            "all_claims_met": self.all_claims_met,
            "failures": list(self.failures),
        }


def verify(f: TruthTable, exp: Expectation,
           predicted_dual: TruthTable | None = None) -> VerificationReport:
    """Run the full exact pipeline on f and compare against expectations.

    A predicted or expected dual from another domain is FieldMismatch.
    """
    for other in (predicted_dual, exp.dual_table):
        if other is not None and other.domain != f.domain:
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
        if exp.bent:
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
    if exp.dual_table is not None:
        if computed_dual is None or exp.dual_table.bits != computed_dual.bits:
            failures.append("computed dual differs from the expected table")
    return VerificationReport(
        is_bent=bent, walsh_min_abs=lo, walsh_max_abs=hi, degree=deg,
        idempotent=idem, duality=dcls, dual_match=dual_match,
        elapsed=time.perf_counter() - start,
        all_claims_met=not failures, failures=failures,
        computed_dual=computed_dual)


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

@dataclass
class CarletEntry:
    d: int
    pair: ConstructedPair
    report: VerificationReport
    dual_idempotent: bool

    @property
    def ok(self) -> bool:
        return self.report.all_claims_met and self.dual_idempotent


def demo_carlet(m: int, seed: int = 0) -> list[CarletEntry]:
    """Bent idempotents of every degree 2..m on GF(2^(2m)), verified."""
    if m < 2:
        raise DimensionTooSmall(
            f"m >= 2 required for a degree-2 rung, got {m}")
    field = make_field(2 * m)
    u = field.find_normal(seed)
    out = []
    for d in range(2, m + 1):
        pair = constructions.kasami_idempotent(
            field, u, multipoly.elementary_symmetric(m, d))
        rep = verify(pair.f,
                     Expectation(bent=True, degree=d, idempotent=True),
                     predicted_dual=pair.predicted_dual)
        dual_idem = (rep.is_bent and
                     boolfun.is_idempotent(rep.computed_dual))
        out.append(CarletEntry(d, pair, rep, dual_idem))
    return out


@dataclass
class MesnagerBundle:
    reports: list[VerificationReport]   # f1, f2, f3, f1+f2+f3
    sum_table: TruthTable
    sum_matches_direct: bool

    @property
    def ok(self) -> bool:
        return self.sum_matches_direct and all(
            r.all_claims_met for r in self.reports)


def demo_mesnager(m: int, F1: ReducedPoly | None = None,
                  F2: ReducedPoly | None = None,
                  F3: ReducedPoly | None = None) -> MesnagerBundle:
    """Three anti-self-dual functions whose sum stays anti-self-dual."""
    if m < 3:
        raise NoSolution("m >= 3 required so degree >= 2 choices exist")
    tau = m - 1
    if F1 is None:
        F1 = multipoly.poly(tau, 0b11)
    if F2 is None:
        F2 = multipoly.poly(tau, 0b10)
    if F3 is None:
        F3 = multipoly.poly(tau, 0b01)
    field = make_field(2 * m)
    want = Expectation(bent=True, duality=DualityClass.ANTI_SELF_DUAL)
    pairs = [constructions.kasami_antiselfdual(field, F)
             for F in (F1, F2, F3)]
    reports = [verify(p.f, want, predicted_dual=p.predicted_dual)
               for p in pairs]
    total = boolfun.add(boolfun.add(pairs[0].f, pairs[1].f), pairs[2].f)
    reports.append(verify(total, want))
    direct = constructions.kasami_antiselfdual(field, F1 + F2 + F3)
    return MesnagerBundle(reports, total, total.bits == direct.f.bits)


# ---------------------------------------------------------------------------
# seeded sweeps
# ---------------------------------------------------------------------------

@dataclass
class SweepEntry:
    notes: str
    report: VerificationReport


@dataclass
class SweepReport:
    family: str
    trials: int
    claims_met: int
    bent_count: int
    dual_checked: int
    dual_matched: int
    elapsed: float
    entries: list[SweepEntry]

    @property
    def all_ok(self) -> bool:
        return self.claims_met == self.trials

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "trials": self.trials,
            "claims_met": self.claims_met,
            "bent_count": self.bent_count,
            "dual_checked": self.dual_checked,
            "dual_matched": self.dual_matched,
            "elapsed": self.elapsed,
        }


def _sample(family: str, m: int, rng: random.Random):
    """One random valid instance of size m: (pair-or-table, Expectation)."""
    record = constructions.FAMILIES[family]
    spec = record.sample(record.scale * m, rng)
    built = constructions.build(spec)
    return built, Expectation(**record.claims(spec, built))


def sweep(family: str, m_values, trials: int, seed: int) -> SweepReport:
    """Deterministic seeded sampling and verification across sizes.

    m_values are subfield degrees m (n = 2m), except for GoldLike where
    they are k (n = 4k).  Rejection sampling keeps every drawn parameter
    set inside the family preconditions.
    """
    m_values = list(m_values)
    for m in m_values:  # before anything is drawn
        if m < 1:
            raise BadRange(f"{family} sizes must be at least 1, got {m}")
    rng = random.Random(seed)
    start = time.perf_counter()
    entries = []
    bent_count = claims_met = dual_checked = dual_matched = 0
    total = 0
    for m in m_values:
        for _ in range(trials):
            for _attempt in range(64):
                try:
                    built, exp = _sample(family, m, rng)
                    break
                except NoSolution:
                    continue
            else:
                raise NoSolution(
                    f"could not sample valid {family} parameters at m={m}")
            if isinstance(built, ConstructedPair):
                rep = verify(built.f, exp,
                             predicted_dual=built.predicted_dual)
                notes = built.notes
                if built.predicted_dual is not None:
                    dual_checked += 1
                    if rep.dual_match:
                        dual_matched += 1
            else:
                rep = verify(built, exp)
                notes = f"{family} m={m}"
            total += 1
            bent_count += rep.is_bent
            claims_met += rep.all_claims_met
            entries.append(SweepEntry(notes, rep))
    return SweepReport(
        family=family, trials=total, claims_met=claims_met,
        bent_count=bent_count, dual_checked=dual_checked,
        dual_matched=dual_matched,
        elapsed=time.perf_counter() - start, entries=entries)
