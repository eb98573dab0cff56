"""Command-line interface: construct, verify, transform, demonstrate.

Exit codes: 0 when every checked claim holds, 1 when a claim fails (the
report is still printed), 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path

from . import boolfun, multipoly
from .boolfun import DualityClass
from .errors import BadRange, BentkitError, NotBent, OddDimension
from .gf2n import make_field
from .verify import (
    Expectation,
    VerificationReport,
    check,
    demo_carlet,
    demo_mesnager,
    sweep as run_sweep,
    verify as run_verify,
)


_DUALITY_NAMES = {
    "self": DualityClass.SELF_DUAL,
    "anti": DualityClass.ANTI_SELF_DUAL,
    "neither": DualityClass.NEITHER,
}


def _report_line(label: str, rep: VerificationReport) -> str:
    verdict = "PASS" if rep.all_claims_met else "FAIL"
    dual = "-" if rep.dual_match is None else str(rep.dual_match)
    line = (f"{verdict} {label}: bent={rep.is_bent} "
            f"|W|=[{rep.walsh_min_abs},{rep.walsh_max_abs}] "
            f"degree={rep.degree} idempotent={rep.idempotent} "
            f"duality={rep.duality.value} dual_match={dual}")
    if rep.failures:
        line += "  [" + "; ".join(rep.failures) + "]"
    return line


def _cmd_field(args) -> int:
    field = make_field(args.n, args.mod)
    print(field.describe())
    return 0


def _cmd_construct(args) -> int:
    from . import constructions
    spec_path = Path(args.specfile)
    checked = check(constructions.spec_from_json(spec_path.read_text()))
    stem = spec_path.parent / spec_path.stem
    written = [f"{stem}.tt"]
    boolfun.save_tt(checked.f, written[0])
    if checked.predicted_dual is not None:
        written.append(f"{stem}.dual.tt")
        boolfun.save_tt(checked.predicted_dual, written[1])
    rep = checked.report
    if args.json:
        doc = rep.to_dict()
        doc["files"] = written
        print(json.dumps(doc, indent=2))
    else:
        for path in written:
            print(f"wrote {path}")
        print(_report_line(checked.label, rep))
    return 0 if rep.all_claims_met else 1


def _parse_expectations(args) -> Expectation | None:
    claims = {}
    for token in args.expect or []:
        for part in token.split(","):
            part = part.strip()
            if not part:
                continue
            if part == "bent":
                claims["bent"] = True
            elif part == "nonbent":
                claims["bent"] = False
            elif part == "idempotent":
                claims["idempotent"] = True
            elif part.startswith("degree="):
                val = part.split("=", 1)[1]
                try:
                    claims["degree"] = int(val)
                except ValueError:
                    raise BentkitError(
                        f"degree must be an integer, got {val!r}") from None
            elif part.startswith("duality="):
                val = part.split("=", 1)[1].lower()
                if val not in _DUALITY_NAMES:
                    raise BentkitError(
                        f"duality must be self, anti or neither, got {val!r}")
                claims["duality"] = _DUALITY_NAMES[val]
            else:
                raise BentkitError(f"unknown expectation {part!r}")
    if not claims:
        return None
    return Expectation(**claims)


def _cmd_verify(args) -> int:
    table = boolfun.load_tt(args.ttfile)
    exp = _parse_expectations(args) or Expectation(bent=True)
    predicted = boolfun.load_tt(args.dual) if args.dual else None
    rep = run_verify(table, exp, predicted_dual=predicted)
    if args.emit_tt and rep.is_bent:
        boolfun.save_tt(rep.computed_dual, args.emit_tt)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        print(_report_line(args.ttfile, rep))
    if args.emit_tt and not rep.is_bent:  # refused as `dual` refuses it
        n = table.domain.n
        raise (OddDimension(f"bentness is undefined for odd n={n}") if n % 2
               else NotBent("spectrum is not flat; no dual exists"))
    return 0 if rep.all_claims_met else 1


def _cmd_walsh(args) -> int:
    table = boolfun.load_tt(args.ttfile)
    spec = boolfun.walsh(table)
    if args.json:
        print(json.dumps({"n": table.domain.n,
                          "values": list(spec.values)}))
    else:
        for v in spec.values:
            print(v)
    return 0


def _cmd_anf(args) -> int:
    table = boolfun.load_tt(args.ttfile)
    poly = boolfun.anf(table)
    text = multipoly.format_poly(poly)
    if args.json:
        print(json.dumps({"degree": poly.degree(), "anf": text}))
    else:
        print(f"degree {poly.degree()}")
        print(text)
    return 0


def _cmd_dual(args) -> int:
    table = boolfun.load_tt(args.ttfile)
    dual_table = boolfun.dual(boolfun.walsh(table))
    text = boolfun.format_tt(dual_table)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_demo_carlet(args) -> int:
    entries = demo_carlet(args.m, seed=args.seed)
    ok = True
    docs = []
    for e in entries:
        ok &= e.ok
        if args.json:
            doc = e.report.to_dict()
            doc["d"] = e.d
            doc["dual_idempotent"] = e.dual_idempotent
            docs.append(doc)
        else:
            verdict = "PASS" if e.ok else "FAIL"
            print(f"{verdict} d={e.d}: bent={e.report.is_bent} "
                  f"idempotent={e.report.idempotent} "
                  f"degree={e.report.degree} "
                  f"dual_idempotent={e.dual_idempotent}")
    if args.json:
        print(json.dumps(docs, indent=2))
    return 0 if ok else 1


def _cmd_demo_mesnager(args) -> int:
    bundle = demo_mesnager(args.m, args.f1, args.f2, args.f3)
    labels = ["f1", "f2", "f3", "f1+f2+f3"]
    if args.json:
        doc = {lbl: rep.to_dict()
               for lbl, rep in zip(labels, bundle.reports)}
        doc["sum_matches_direct"] = bundle.sum_matches_direct
        print(json.dumps(doc, indent=2))
    else:
        for lbl, rep in zip(labels, bundle.reports):
            print(_report_line(lbl, rep))
        verdict = "PASS" if bundle.sum_matches_direct else "FAIL"
        print(f"{verdict} sum equals the direct construction")
    return 0 if bundle.ok else 1


def _parse_range(text: str):
    """The sizes in text, lazily: a range is never expanded into a list,
    so sweep refuses an oversized one at its first size too large."""
    chunks = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            if ".." in chunk:
                lo, hi = chunk.split("..", 1)
                chunks.append(range(int(lo), int(hi) + 1))
            else:
                chunks.append((int(chunk),))
        except ValueError:
            raise BadRange(f"bad size {chunk!r} in {text!r}; "
                           "use forms like 3, 2..4 or 2,3,5") from None
    return itertools.chain.from_iterable(chunks)


def _cmd_sweep(args) -> int:
    rep = run_sweep(args.family, _parse_range(args.m), args.trials,
                   args.seed)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        for entry in rep.entries:
            print(_report_line(entry.notes, entry.report))
        print(f"{'PASS' if rep.all_ok else 'FAIL'} {rep.family}: "
              f"{rep.claims_met}/{rep.trials} claims met, "
              f"{rep.bent_count}/{rep.trials} bent, "
              f"dual match {rep.dual_matched}/{rep.dual_checked} "
              f"({rep.elapsed:.2f}s)")
    return 0 if rep.all_ok else 1


def _hex_int(text: str) -> int:
    return int(text, 16)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bentkit",
        description="construct and exactly verify bent functions over GF(2^n)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="validate and print a field description")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mod", type=_hex_int, default=None,
                   help="modulus bitmask in hex (default: the smallest "
                        "irreducible with constant term 1)")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("construct",
                       help="build a family instance from a JSON spec file")
    p.add_argument("specfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="verify claims about a truth-table file")
    p.add_argument("ttfile")
    p.add_argument("--expect", action="append",
                   help="comma list: bent, nonbent, idempotent, degree=D, "
                        "duality=self|anti|neither (default: bent)")
    p.add_argument("--dual", help="predicted dual table to compare")
    p.add_argument("--emit-tt", help="write the computed dual table here "
                   "(exit 2 if the table is not bent)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("walsh", help="print the exact Walsh spectrum")
    p.add_argument("ttfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_walsh)

    p = sub.add_parser("anf", help="print algebraic normal form and degree")
    p.add_argument("ttfile")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_anf)

    p = sub.add_parser("dual", help="emit the dual of a bent function")
    p.add_argument("ttfile")
    p.add_argument("-o", "--out", help="output file (default: stdout)")
    p.set_defaults(func=_cmd_dual)

    demo = sub.add_parser("demo", help="run an open-problem demonstrator")
    dsub = demo.add_subparsers(dest="demo_command", required=True)
    p = dsub.add_parser("carlet",
                        help="bent idempotents of every degree 2..m")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demo_carlet)
    p = dsub.add_parser("mesnager",
                        help="anti-self-dual triple with anti-self-dual sum")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--f1")
    p.add_argument("--f2")
    p.add_argument("--f3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_demo_mesnager)

    p = sub.add_parser("sweep",
                       help="seeded random verification across a size range")
    p.add_argument("--family", required=True,
                   help="family name (an unknown name lists the known ones)")
    p.add_argument("--m", required=True,
                   help="sizes like 3 or 2..4 or 2,3,5 (k values for GoldLike)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BentkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
