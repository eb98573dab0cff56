"""Command-line interface: construct, verify, transform, demonstrate.

One table, COMMANDS, states each command: its handler, its help and its
arguments.  parse(argv) reads the command line against it, and the same
table prints the help of `bentkit -h` and of each command's `-h`.

A table command (verify, walsh, dual, field) loads the checker and the
field layer alone; anf also loads bentkit.multipoly for its text format,
and construct, sweep and the demos load bentkit.verify when they run.

Exit codes: 0 when every checked claim holds, 1 when one fails (the report
is still printed), 2 on usage or input errors with one "error: ..." line on
stderr, and 141 (128 + SIGPIPE) when the reader of stdout has closed it.
"""

from __future__ import annotations

import atexit
import gc
import itertools
import json
import os
import sys
import types
from pathlib import Path

from . import boolfun
from .boolfun import DualityClass, Expectation, VerificationReport
from .errors import BadArgument, BadRange, BentkitError
from .gf2n import make_field

# Freeze every object at exit so CPython's final collections and teardown skip
# them (about 8 ms of CPU a command); only cyclic garbage's finalizers go.
atexit.register(gc.freeze)

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
    from . import specs, verify
    spec_path = Path(args.specfile)
    checked = verify.check(specs.spec_from_json(spec_path.read_text()))
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


_EXPECT = "bentkit verify: argument --expect: "


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
                    raise BadArgument(f"{_EXPECT}degree must be an integer, "
                                      f"got {val!r}") from None
            elif part.startswith("duality="):
                val = part.split("=", 1)[1].lower()
                if val not in _DUALITY_NAMES:
                    raise BadArgument(f"{_EXPECT}duality must be self, anti "
                                      f"or neither, got {val!r}")
                claims["duality"] = _DUALITY_NAMES[val]
            else:
                raise BadArgument(f"{_EXPECT}unknown expectation {part!r}")
    if not claims:
        return None
    return Expectation(**claims)


def _cmd_verify(args) -> int:
    table = boolfun.load_tt(args.ttfile)
    exp = _parse_expectations(args) or Expectation(bent=True)
    predicted = boolfun.load_tt(args.dual) if args.dual else None
    rep = boolfun.verify(table, exp, predicted_dual=predicted)
    if args.emit_tt and rep.is_bent:
        boolfun.save_tt(rep.computed_dual, args.emit_tt)
    if args.json:
        print(json.dumps(rep.to_dict(), indent=2))
    else:
        print(_report_line(args.ttfile, rep))
    if args.emit_tt and not rep.is_bent:  # refused as `dual` refuses it
        raise boolfun.no_dual_error(table.domain.n)
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
    from . import multipoly
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
    from . import verify
    entries = verify.demo_carlet(args.m, seed=args.seed)
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
    from . import verify
    bundle = verify.demo_mesnager(args.m, args.f1, args.f2, args.f3)
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
    from . import verify
    rep = verify.sweep(args.family, _parse_range(args.m), args.trials,
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


# An argument is a row (names, kind, default, help).  names is one name,
# or several spellings with the long one last, which also names the
# attribute: "--emit-tt" is args.emit_tt.  A name without a dash is
# positional.  kind is "flag" (present or not), "int", "hex", "text", or
# "list" (a text that may repeat; the attribute lists them in order).
# A command is (help, handler, rows), a group of commands (help, commands).
REQUIRED = object()    # the default of an argument that must be given
HELP = ("-h --help", "help", None, "show this help and exit")

COMMANDS = {
    "field": ("validate and print a field description", _cmd_field, [
        ("--n", "int", REQUIRED, "the degree n of GF(2^n)"),
        ("--mod", "hex", None, "modulus bitmask in hex (default: the "
                               "smallest irreducible with constant term 1)"),
    ]),
    "construct": ("build a family instance from a JSON spec file",
                  _cmd_construct, [
        ("specfile", "text", REQUIRED, "the JSON spec; writes its .tt "
                                       "files beside it"),
        ("--json", "flag", False, "print the report as JSON"),
    ]),
    "verify": ("verify claims about a truth-table file", _cmd_verify, [
        ("ttfile", "text", REQUIRED, "the truth table"),
        ("--expect", "list", None, "comma list: bent, nonbent, idempotent, "
                                   "degree=D, duality=self|anti|neither "
                                   "(default: bent); repeatable"),
        ("--dual", "text", None, "predicted dual table to compare"),
        ("--emit-tt", "text", None, "write the computed dual table here "
                                    "(exit 2 if the table is not bent)"),
        ("--json", "flag", False, "print the report as JSON"),
    ]),
    "walsh": ("print the exact Walsh spectrum", _cmd_walsh, [
        ("ttfile", "text", REQUIRED, "the truth table"),
        ("--json", "flag", False, "print the spectrum as JSON"),
    ]),
    "anf": ("print algebraic normal form and degree", _cmd_anf, [
        ("ttfile", "text", REQUIRED, "the truth table"),
        ("--json", "flag", False, "print the form as JSON"),
    ]),
    "dual": ("emit the dual of a bent function", _cmd_dual, [
        ("ttfile", "text", REQUIRED, "the truth table"),
        ("-o --out", "text", None, "output file (default: stdout)"),
    ]),
    "demo": ("run an open-problem demonstrator", {
        "carlet": ("bent idempotents of every degree 2..m",
                   _cmd_demo_carlet, [
            ("--m", "int", REQUIRED, "half the degree n = 2m"),
            ("--seed", "int", 0, "picks the normal element"),
            ("--json", "flag", False, "print the reports as JSON"),
        ]),
        "mesnager": ("anti-self-dual triple with anti-self-dual sum",
                     _cmd_demo_mesnager, [
            ("--m", "int", REQUIRED, "half the degree n = 2m"),
            ("--f1", "text", None, "F1 in m - 1 variables (default: X1*X2)"),
            ("--f2", "text", None, "F2 in m - 1 variables (default: X2)"),
            ("--f3", "text", None, "F3 in m - 1 variables (default: X1)"),
            ("--json", "flag", False, "print the reports as JSON"),
        ]),
    }),
    "sweep": ("seeded random verification across a size range", _cmd_sweep, [
        ("--family", "text", REQUIRED,
         "family name (an unknown name lists the known ones)"),
        ("--m", "text", REQUIRED,
         "sizes like 3 or 2..4 or 2,3,5 (k values for GoldLike)"),
        ("--trials", "int", REQUIRED, "instances drawn per size"),
        ("--seed", "int", 0, "seed of the draws"),
        ("--json", "flag", False, "print the report as JSON"),
    ]),
}
TOP = ("construct and exactly verify bent functions over GF(2^n)", COMMANDS)


def _name(row) -> str:
    return row[0].split()[-1]


def _dest(row) -> str:
    return _name(row).lstrip("-").replace("-", "_")


def _lookup(prog: str, options: dict, name: str):
    """The row that name spells in full or, if it is a long option, by a
    prefix no other option shares."""
    if name in options:
        return options[name]
    hits = set()
    if name.startswith("--") and name != "--":
        hits = {row for key, row in options.items() if key.startswith(name)}
    if len(hits) == 1:
        return hits.pop()
    if hits:
        raise BadArgument(f"{prog}: ambiguous option {name}: could be "
                          + ", ".join(sorted(map(_name, hits))))
    raise BadArgument(f"{prog}: unknown option {name}")


def _value(prog: str, row, text: str):
    kind = row[1]
    try:
        return (int(text) if kind == "int" else int(text, 16)
                if kind == "hex" else text)
    except ValueError:
        raise BadArgument(f"{prog}: argument {_name(row)}: "
                          f"invalid {kind} value {text!r}") from None


def parse(argv=None) -> types.SimpleNamespace:
    """argv (default sys.argv[1:]) read against COMMANDS: the command's
    handler as func and one attribute per argument.  An option's value is
    the rest of its token after "=" or else the next token, whatever it
    is; a long option may be shortened to a unique prefix; after "--"
    every token is positional.  -h or --help gives the func that prints
    the help of the command named so far.  Raises BadArgument."""
    tokens = iter(sys.argv[1:] if argv is None else argv)
    prog, node = "bentkit", TOP
    while len(node) == 2:  # a group: the next token names the command
        token = next(tokens, None)
        if token is not None and token[:1] == "-":
            _lookup(prog, {"-h": HELP, "--help": HELP}, token)
            return types.SimpleNamespace(func=_help, prog=prog, node=node)
        if token not in node[1]:
            what = ("missing command" if token is None
                    else f"unknown command {token!r}")
            raise BadArgument(
                f"{prog}: {what}; choose from {', '.join(node[1])}")
        prog, node = f"{prog} {token}", node[1][token]
    rows = node[2]
    options = {name: row for row in rows + [HELP]
               for name in row[0].split() if name[0] == "-"}
    positionals = iter(row for row in rows if row[0][0] != "-")
    values, dashes = {}, False
    for token in tokens:
        if token[:1] != "-" or token == "-" or dashes:
            row = next(positionals, None)
            if row is None:
                raise BadArgument(f"{prog}: unexpected argument {token!r}")
            values[_dest(row)] = token
            continue
        if token == "--":
            dashes = True
            continue
        if token[1] == "-":
            name, eq, text = token.partition("=")
        else:  # -oFILE or -o=FILE
            name, eq, text = token[:2], token[2:], token[2:].removeprefix("=")
        row = _lookup(prog, options, name)
        kind = row[1]
        if kind == "help":
            return types.SimpleNamespace(func=_help, prog=prog, node=node)
        if kind == "flag":
            if eq:
                raise BadArgument(f"{prog}: argument {_name(row)} takes no "
                                  "value")
            values[_dest(row)] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise BadArgument(f"{prog}: argument {_name(row)} needs a "
                                  "value")
        if kind == "list":
            values.setdefault(_dest(row), []).append(text)
        else:
            values[_dest(row)] = _value(prog, row, text)
    for row in rows:
        if _dest(row) not in values:
            if row[2] is REQUIRED:
                raise BadArgument(f"{prog}: argument {_name(row)} is "
                                  "required")
            values[_dest(row)] = row[2]
    return types.SimpleNamespace(func=node[1], **values)


def _help(args) -> int:
    """Print the usage of args.prog and what its node holds."""
    import textwrap
    doc, body = args.node[0], args.node[-1]
    if len(args.node) == 2:
        lines = [f"usage: {args.prog} {{{','.join(body)}}} ...", "", doc, "",
                 "commands:"]
        lines += [f"  {name:<20}  {sub[0]}" for name, sub in body.items()]
    else:
        usage = []
        for row in body:
            text = _name(row)
            if text[0] == "-" and row[1] != "flag":
                text += " " + _dest(row).upper()
            usage.append(text if row[2] is REQUIRED else f"[{text}]")
        lines = [f"usage: {args.prog} {' '.join(usage)}", "", doc, "",
                 "arguments:"]
        for names, _, _, text in body + [HELP]:
            lines.append(textwrap.fill(
                text, 79, initial_indent=f"  {', '.join(names.split()):<20}  ",
                subsequent_indent=" " * 24))
    print("\n".join(lines))
    return 0


def main(argv=None) -> int:
    try:
        args = parse(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:  # end quietly, as a writer killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (BentkitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
