"""Seeded inputs for the benchmark workloads.

The same seed always gives the same inputs.  Every input is valid by
construction, so no op is expected to fail.  The construct specs for
verify-n16 need a few GF(2^16) facts (the subfield GF(2^8) and its normal
elements); they are computed here with a dozen lines of field arithmetic
so that the benchmark depends on nothing but the CLI it measures.
"""

from __future__ import annotations

import json
import random

FAMILIES = ("KasamiGeneral", "KasamiSubfield", "KasamiIdempotent",
            "KasamiAntiSelfDual", "QuadIdem", "QuadFamily", "GoldLike",
            "Niho", "MMLinear", "MMMonomial")

CARLET_M = 7            # GF(2^14): a 6-rung ladder d = 2..7
CARLET_WARMUP_M = 4     # same code path at n = 8, to warm caches cheaply
SWEEP_M = "3..5"        # n = 6..10; GoldLike takes k, so n = 8
SWEEP_TRIALS = 20

MOD16 = 0x1002b         # GF(2^16), the CLI's default modulus
MOD8 = 0x11b            # GF(2^8), base field of the n = 16 grid tables


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def carlet_seed(seed: int) -> int:
    """The CLI --seed: a scan position in the subfield GF(2^CARLET_M)."""
    return _rng("carlet-n14", seed).randrange(1 << CARLET_M)


def sweep_seed(seed: int) -> int:
    """The CLI --seed every family's sweep gets."""
    return _rng("sweep-small", seed).randrange(1_000_000)


def sweep_argv(family: str, cli_seed: int) -> list[str]:
    m = "2" if family == "GoldLike" else SWEEP_M
    return ["sweep", "--family", family, "--m", m,
            "--trials", str(SWEEP_TRIALS), "--seed", str(cli_seed), "--json"]


def sweep_instances(family: str) -> int:
    return SWEEP_TRIALS * (1 if family == "GoldLike" else 3)


# ---------------------------------------------------------------------------
# GF(2^n) facts for the construct specs
# ---------------------------------------------------------------------------

def gf_mul(a: int, b: int, mod: int) -> int:
    n = mod.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> n:
            a ^= mod
    return r


def gf_frob(a: int, k: int, mod: int) -> int:
    for _ in range(k):
        a = gf_mul(a, a, mod)
    return a


def f2_rank(vectors) -> int:
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def subfield16() -> list[int]:
    """Nonzero elements of GF(2^8) inside GF(2^16): x^(2^8) = x."""
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for j in range(16):
        v, c = (1 << j) ^ gf_frob(1 << j, 8, MOD16), 1 << j
        while v and (v.bit_length() - 1) in pivots:
            pv, pc = pivots[v.bit_length() - 1]
            v, c = v ^ pv, c ^ pc
        if v:
            pivots[v.bit_length() - 1] = (v, c)
        else:
            kernel.append(c)
    members = {0}
    for k in kernel:
        members |= {x ^ k for x in members}
    return sorted(members - {0})


def _is_normal_sub(u: int) -> bool:
    orbit = [u]
    for _ in range(7):
        orbit.append(gf_mul(orbit[-1], orbit[-1], MOD16))
    return f2_rank(orbit) == 8


# ---------------------------------------------------------------------------
# reduced polynomials in the CLI's text format
# ---------------------------------------------------------------------------

def format_poly(monomials) -> str:
    if not monomials:
        return "0"
    return "+".join(
        "1" if mask == 0 else
        "*".join(f"X{i + 1}" for i in range(mask.bit_length()) if mask >> i & 1)
        for mask in sorted(monomials))


def _degree(monomials) -> int:
    return max((m.bit_count() for m in monomials), default=0)


def _random_poly(tau: int, rng: random.Random) -> set[int]:
    return set(rng.sample(range(1 << tau), rng.randint(1, min(4, 1 << tau))))


def _rotation_closure(mask: int, tau: int) -> set[int]:
    orbit = set()
    while mask not in orbit:
        orbit.add(mask)
        mask = ((mask << 1) | (mask >> (tau - 1))) & ((1 << tau) - 1)
    return orbit


def _random_rotsym(tau: int, rng: random.Random) -> set[int]:
    while True:
        monos = _rotation_closure(rng.randrange(1, 1 << tau), tau)
        monos ^= _rotation_closure(rng.randrange(1, 1 << tau), tau)
        if monos:
            return monos


def _invertible_rows(m: int, rng: random.Random) -> list[int]:
    while True:
        rows = [rng.getrandbits(m) for _ in range(m)]
        if f2_rank(rows) == m:
            return rows


def _nonzero_pair(rng: random.Random) -> list[str]:
    a, b = 0, 0
    while not (a or b):
        a, b = rng.randrange(256), rng.randrange(256)
    return [f"0x{a:x}", f"0x{b:x}"]


def verify_specs(seed: int) -> list[tuple[str, dict, str]]:
    """(name, construct spec, --expect claims) for each n = 16 table.

    The mix: univariate and grid=xy tables, idempotent and non-idempotent
    ones, with and without a predicted dual, and one non-bent table.
    """
    rng = _rng("verify-n16", seed)
    sub = subfield16()
    normals = [u for u in sub if _is_normal_sub(u)]
    out = []

    monos = _random_rotsym(8, rng)
    out.append(("kasami_idem", {
        "family": "KasamiIdempotent", "n": 16, "mod": f"0x{MOD16:x}",
        "u": [f"0x{rng.choice(normals):x}"], "F": format_poly(monos)},
        f"bent,idempotent,degree={max(2, _degree(monos))}"))

    out.append(("kasami_asd", {
        "family": "KasamiAntiSelfDual", "n": 16, "mod": f"0x{MOD16:x}",
        "F": format_poly(_random_poly(7, rng))},
        "bent,duality=anti"))

    # c_m = 0 puts X + 1 into the gcd with X^n + 1: never bent
    c = [rng.randint(0, 1) for _ in range(8)] + [0]
    out.append(("quad_nonbent", {
        "family": "QuadIdem", "n": 16, "mod": f"0x{MOD16:x}",
        "c": c, "eps": rng.randint(0, 1)},
        "nonbent,idempotent"))

    out.append(("mm_linear", {
        "family": "MMLinear", "n": 16, "mod": f"0x{MOD8:x}",
        "pi": [[row >> j & 1 for j in range(8)]
               for row in _invertible_rows(8, rng)],
        "b": f"0x{rng.randrange(256):x}",
        "u": [_nonzero_pair(rng)], "F": rng.choice(["X1", "1+X1"])},
        "bent"))

    out.append(("mm_monomial", {
        "family": "MMMonomial", "n": 16, "mod": f"0x{MOD8:x}", "s": 8,
        "u": [_nonzero_pair(rng)], "F": rng.choice(["X1", "1+X1"])},
        "bent"))
    return out


def spec_text(spec: dict) -> str:
    return json.dumps(spec, indent=2) + "\n"
