"""Run one bentkit CLI command with spans and counters around its layers.

    python3 shim.py TRACE_OUT OP_ID T_SPAWN CLI_ARGS...

T_SPAWN is the parent's time.perf_counter() just before it started this
process; on Linux perf_counter reads CLOCK_MONOTONIC, which every process
shares, so the import finish time minus T_SPAWN is the process start cost.

The shim wraps layer entry points of gf2n, multipoly, constructions,
boolfun, verify and cli, calls bentkit.cli.main(CLI_ARGS), and writes the
spans and counts once, as JSON, to TRACE_OUT.  Each span is
[name, start, end, parent index, op id, exception name or None].  The hot
per-element functions (Field.mul/pow/frob/walsh_index) only get call
counts: a span around each of them would cost more than the call itself.
Entry points that no longer exist are skipped and reported on stderr.
"""

import itertools
import json
import sys
import time

import bentkit.cli

T_IMPORTED = time.perf_counter()

from bentkit import boolfun, cli, constructions, gf2n, multipoly, verify  # noqa: E402

MODULES = {"gf2n": gf2n, "multipoly": multipoly,
           "constructions": constructions, "boolfun": boolfun,
           "verify": verify, "cli": cli}

# (module, attribute path, span name).  Two entries may share a name.
SPANNED = [
    ("gf2n", "Field.__init__", "gf2n.field_init"),
    ("gf2n", "Field.subfield", "gf2n.subfield"),
    ("gf2n", "Field.find_normal", "gf2n.find_normal"),
    ("gf2n", "Field.solve_semilinear", "gf2n.solve_semilinear"),
    ("gf2n", "Field.trace_mask", "gf2n.trace_mask"),
    ("gf2n", "Field.squaring_perm", "gf2n.squaring_perm"),
    ("gf2n", "BivariateDomain.squaring_perm", "gf2n.squaring_perm"),
    ("multipoly", "compose_traces", "multipoly.compose_traces"),
    ("multipoly", "fourier", "multipoly.fourier"),
    ("constructions", "kasami_general", "constructions.KasamiGeneral"),
    ("constructions", "kasami_subfield", "constructions.KasamiSubfield"),
    ("constructions", "kasami_idempotent", "constructions.KasamiIdempotent"),
    ("constructions", "kasami_antiselfdual",
     "constructions.KasamiAntiSelfDual"),
    ("constructions", "quad_idempotent_g", "constructions.QuadIdem"),
    ("constructions", "quad_family", "constructions.QuadFamily"),
    ("constructions", "gold_like", "constructions.GoldLike"),
    ("constructions", "niho_family", "constructions.Niho"),
    ("constructions", "mm_linear", "constructions.MMLinear"),
    ("constructions", "mm_monomial", "constructions.MMMonomial"),
    # the sweep's per-instance sampler; a raised NoSolution is a reject
    ("verify", "_sample", "constructions.sample"),
    ("boolfun", "walsh", "boolfun.walsh"),
    ("boolfun", "anf", "boolfun.anf"),
    ("boolfun", "is_idempotent", "boolfun.is_idempotent"),
    ("boolfun", "dual", "boolfun.dual"),
    ("boolfun", "duality_class", "boolfun.duality_class"),
    ("boolfun", "parse_tt", "boolfun.parse_tt"),
    ("boolfun", "format_tt", "boolfun.format_tt"),
    ("verify", "verify", "verify.verify"),
    ("verify", "sweep", "verify.sweep"),
    ("verify", "demo_carlet", "verify.demo_carlet"),
]

COUNTED = [
    ("gf2n", "Field.mul", "gf2n.mul"),
    ("gf2n", "Field.pow", "gf2n.pow"),
    ("gf2n", "Field.frob", "gf2n.frob"),
    ("gf2n", "Field.walsh_index", "gf2n.walsh_index"),
]


class Recorder:
    """Spans and counters of one op, held in memory until the op ends."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, itertools.count] = {}
        self.butterflies = 0

    def span(self, name: str, fn):
        spans, stack, clock, op_id = (self.spans, self.stack,
                                      time.perf_counter, self.op_id)

        def wrapper(*args, **kwargs):
            idx = len(spans)
            record = [name, clock(), None, stack[-1] if stack else None,
                      op_id, None]
            spans.append(record)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                record[5] = type(exc).__name__
                raise
            finally:
                stack.pop()
                record[2] = clock()
        return wrapper

    def counted(self, name: str, fn):
        tick = self.counters.setdefault(name, itertools.count()).__next__

        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def dump(self) -> dict:
        counts = {f"{name}_calls": next(c) for name, c in self.counters.items()}
        counts["boolfun.walsh_butterflies"] = self.butterflies
        hits = misses = 0
        for obj in vars(constructions).values():
            info = getattr(obj, "cache_info", None)
            if info is not None:
                stats = info()
                hits += stats.hits
                misses += stats.misses
        counts["constructions.base_cache_hits"] = hits
        counts["constructions.base_cache_misses"] = misses
        return {"op": self.op_id, "t_imported": T_IMPORTED,
                "spans": self.spans, "counts": counts}


def _rebind(orig, wrapper) -> None:
    """Point every bentkit module-level alias of orig at wrapper."""
    for name, mod in list(sys.modules.items()):
        if name == "bentkit" or name.startswith("bentkit."):
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)


def install(rec: Recorder) -> None:
    def count_butterflies(fn):
        def wrapper(f, *args, **kwargs):
            n = f.domain.n
            rec.butterflies += n << (n - 1)
            return fn(f, *args, **kwargs)
        return wrapper

    plan = [(m, path, name, rec.span) for m, path, name in SPANNED]
    plan += [(m, path, name, rec.counted) for m, path, name in COUNTED]
    for mod_name, path, name, make in plan:
        owner = MODULES[mod_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        orig = getattr(owner, attr, None) if owner is not None else None
        if orig is None:
            print(f"shim: {mod_name}.{path} not found; {name} reads 0",
                  file=sys.stderr)
            continue
        inner = count_butterflies(orig) if name == "boolfun.walsh" else orig
        wrapper = make(name, inner)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(orig, wrapper)


def main() -> int:
    trace_out, op_id, t_spawn, *argv = sys.argv[1:]
    rec = Recorder(int(op_id))
    install(rec)
    rc = rec.span("cli.main", cli.main)(argv)
    doc = rec.dump()
    doc["t_spawn"] = float(t_spawn)
    with open(trace_out, "w") as fh:
        json.dump(doc, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
