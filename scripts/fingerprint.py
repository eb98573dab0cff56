"""Print sha256 digests of bentkit's seeded outputs, to show a refactor
changed no behaviour.

Run from the root of a checkout:

    python scripts/fingerprint.py

It prints one digest per part, named, and then on the last line one
digest over all parts in order.  A change that moves outputs on purpose
shows which parts moved and which stayed.  The parts, in order:

- the sweep report of every family at m = 3..5 (GoldLike at k = 2) with
  20 trials, seeds 0 and 1, minus its elapsed times: the totals, and
  each entry's notes and verification report;
- the f, predicted dual and computed dual tables of `demo carlet --m 7`;
- f, base, predicted dual, notes and shifts of seeded instances drawn by
  the families' samplers at m = 2..6 (GoldLike k = 1..2);
- pair decisions of the public constructors with F = X1*X2: each
  shift pair (u, v) with the outcome, PASS or the exception's type name,
  over shifts -1..2^n (grid coordinates -1..2^m), so out-of-range shifts
  are covered: kasami_general at n = 4 and 6 for every nonzero subfield
  lambda, gold_like at n = 4 for every admissible lambda and at n = 8 on
  2,000 seeded pairs (500 for each of its four lambdas), mm_linear at
  m = 2 and 3 for two seeded (pi, b) each, and mm_monomial at m = 3 with
  s = 1 and s = 3;
- the polynomial layer: format_poly of the ANF and the degree of each
  carlet rung's f and of each sampled f and base, fourier(F) of each
  sampled F, and format_poly of elementary_symmetric(tau, d) and of
  rotation_closure(mask, tau) for every d and nonzero mask at tau <= 6.

Equal digests before and after a change mean these outputs are equal bit
for bit.  The script reads only long-standing entry points, so one copy of
it usually runs on two neighbouring commits; where a signature changed,
run each commit's own copy.  Run each commit's own copy, too, across the
change that made specs.build return a ConstructedPair for QuadIdem, which
had built a bare table: this copy tells QuadIdem's pair by its empty
shifts and prints for it the lines that earlier copies print for the
table.  It takes about 3 s on a 2-core Xeon.
"""

from __future__ import annotations

import functools
import hashlib
import random
import sys
from functools import partial
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from bentkit import boolfun, constructions, multipoly  # noqa: E402
from bentkit import specs, verify  # noqa: E402
from bentkit.gf2n import make_field  # noqa: E402

SAMPLES_PER_SIZE = 3
X1X2 = multipoly.parse_poly("X1*X2", 2)


def _sizes(family: str, small: range, gold: range) -> range:
    return gold if family == "GoldLike" else small


def _table(t) -> str:
    return "-" if t is None else f"{t.domain.describe()}:{t.bits:x}"


def _report(rep) -> str:
    """A report's to_dict() without its elapsed time."""
    doc = rep.to_dict()
    del doc["elapsed"]
    return repr(sorted(doc.items()))


def sweeps():
    for seed in (0, 1):
        for family in sorted(specs.FAMILIES):
            sizes = _sizes(family, range(3, 6), range(2, 3))
            rep = verify.sweep(family, sizes, 20, seed)
            yield _report(rep)
            for entry in rep.entries:
                yield entry.notes + _report(entry.report)


@functools.cache
def _carlet_entries():
    return verify.demo_carlet(7)


def carlet():
    for entry in _carlet_entries():
        yield (f"{entry.d} {_table(entry.pair.f)} "
               f"{_table(entry.pair.predicted_dual)} "
               f"{_table(entry.report.computed_dual)} {entry.ok}")


@functools.cache
def _sampled() -> list:
    """(family, m, built) of each seeded sample."""
    out = []
    for family, record in sorted(specs.FAMILIES.items()):
        rng = random.Random(family)
        for m in _sizes(family, range(2, 7), range(1, 3)):
            for _ in range(SAMPLES_PER_SIZE):
                built = specs.build(
                    record.sample(record.scale * m, rng))
                out.append((family, m, built))
    return out


def samples():
    for family, m, built in _sampled():
        if not built.shifts:  # QuadIdem: the bare base
            yield f"{family} m={m} {_table(built.f)}"
        else:
            yield (f"{built.notes} {_table(built.f)} "
                   f"{_table(built.base)} "
                   f"{_table(built.predicted_dual)} "
                   f"{[hex(u) for u in built.shifts]}")


def _decisions(name: str, build, shifts, rng=None, count=0):
    """u, v and the outcome of build([u, v], X1*X2) for every pair of
    shifts, or for count pairs drawn from rng."""
    pairs = (product(shifts, shifts) if rng is None else
             [(rng.choice(shifts), rng.choice(shifts)) for _ in range(count)])
    for u, v in pairs:
        try:
            build([u, v], X1X2)
            outcome = "PASS"
        except Exception as exc:  # every refusal is an outcome to hash
            outcome = type(exc).__name__
        yield f"{name} {u} {v} {outcome}"


def _grid(m: int) -> list[tuple[int, int]]:
    """Shift pairs with coordinates -1..2^m."""
    coords = range(-1, (1 << m) + 1)
    return list(product(coords, coords))


def pair_decisions():
    for n in (4, 6):
        field = make_field(n)
        for lam in [y for y in range(1, field.size)
                    if field.frob(y, n // 2) == y]:
            yield from _decisions(
                f"KasamiGeneral n={n} lam={lam:#x}",
                partial(constructions.kasami_general, field, lam),
                range(-1, field.size + 1))
    for n, count in ((4, 0), (8, 500)):
        field = make_field(n)
        rng = random.Random(f"GoldLike n={n}") if count else None
        for lam in range(field.size):
            if lam ^ field.frob(lam, 3 * n // 4) == 1:
                yield from _decisions(
                    f"GoldLike n={n} lam={lam:#x}",
                    partial(constructions.gold_like, field, lam),
                    range(-1, field.size + 1), rng, count)
    for m in (2, 3):
        rng = random.Random(f"MMLinear m={m}")
        grid = _grid(m)
        for _ in range(2):
            pi = specs.random_invertible(m, rng)
            b = rng.randrange(1 << m)
            yield from _decisions(
                f"MMLinear m={m} pi={pi} b={b:#x}",
                partial(constructions.mm_linear, make_field(m), pi, b), grid)
    for s in (1, 3):
        yield from _decisions(f"MMMonomial m=3 s={s}",
                              partial(constructions.mm_monomial,
                                      make_field(3), s),
                              _grid(3))


def _anf(t) -> str:
    return f"{boolfun.degree(t)} {multipoly.format_poly(boolfun.anf(t))}"


def polynomials():
    for entry in _carlet_entries():
        yield f"{entry.d} {_anf(entry.pair.f)}"
    for family, m, built in _sampled():
        if not built.shifts:  # QuadIdem: the bare base
            yield f"{family} m={m} {_anf(built.f)}"
        else:
            yield (f"{family} m={m} {_anf(built.f)} {_anf(built.base)} "
                   f"{multipoly.fourier(built.poly)}")
    for tau in range(1, 7):
        for d in range(1, tau + 1):
            yield multipoly.format_poly(
                multipoly.elementary_symmetric(tau, d))
        for mask in range(1, 1 << tau):
            yield multipoly.format_poly(multipoly.rotation_closure(mask, tau))


def main() -> int:
    digest = hashlib.sha256()
    for part in (sweeps, carlet, samples, pair_decisions, polynomials):
        part_digest = hashlib.sha256()
        for line in part():
            data = line.encode() + b"\n"
            part_digest.update(data)
            digest.update(data)
        print(f"{part.__name__:<14} {part_digest.hexdigest()}")
    print(digest.hexdigest())
    return 0

if __name__ == "__main__":
    sys.exit(main())
