"""Boolean functions over a field's index space and their exact transforms.

A TruthTable packs the 2^n values of f into one int: bit i is f at the
index-i field element (or grid point).  The transforms on the verification
path work on that packed int, one big-int operation per whole table, with
the coordinate tables X_j (bit i of X_j is bit j of i) as masks.  Nothing
is floating point and nothing is sampled.

- Walsh.  The spectrum is indexed by field elements beta with the literal
  pairing Tr(beta*x), so paper-style dual formulas compare bit for bit.
  f is first pulled through the trace-dual basis (``walsh_map``), which
  turns that pairing into the plain dot product on indices.  The fast
  transform then runs its butterfly on n+2 two's-complement bit planes,
  one packed int per plane: plane k holds bit k of every W(beta), and the
  last plane is the sign.  Planes are added in one place, the ripple-carry
  adder add_planes: each Walsh level is one call of it, and so are the
  magnitude planes of |W| that bentness and the extrema are read from.
  The dual is the sign plane, and the per-beta integers are built only
  when a caller asks for ``values`` (the ``walsh`` command's printout).
- ANF.  The Moebius transform is ``bits ^= (bits & ~X_j) << 2^j`` for each
  j.  Its result is a multipoly.ReducedPoly in the n index coordinates:
  the coefficient table is packed like the truth table, so the polynomial
  layer's degree and text format read it as they stand.
- Idempotence.  f(x^2) = f(x) compares the table with itself pulled
  through the squaring map.

Both index maps are F_2-linear and go through gf2n.pull_linear.  The list
oracles in tests/pointwise.py (fwht, mobius, walsh_naive) are the
reference the packed kernels are tested against.
"""

from __future__ import annotations

import enum
import functools
from collections import namedtuple

from .errors import FieldMismatch, NotBent, OddDimension
from .gf2n import (BivariateDomain, Field, coordinate_tables, make_field,
                   pull_linear)
from .multipoly import ReducedPoly

Domain = Field | BivariateDomain


class DualityClass(enum.Enum):
    SELF_DUAL = "SelfDual"
    ANTI_SELF_DUAL = "AntiSelfDual"
    NEITHER = "Neither"


# domain: Domain; bits: int, bit i of which is f at index i
TruthTable = namedtuple("TruthTable", "domain bits")


class WalshSpectrum(namedtuple("WalshSpectrum", "domain planes")):
    """Exact spectrum as two's-complement bit planes in beta order.

    Bit beta of planes[k] is bit k of W(beta).  The last plane is the
    sign bit and has a negative weight: -2^k for k = len(planes) - 1.  The
    n+2 planes of walsh() hold any value in [-2^n, 2^n].  There are no
    __slots__, so the cached properties have an instance dict to fill.
    """

    @functools.cached_property
    def values(self) -> tuple[int, ...]:
        """W(beta) for beta = 0 .. 2^n - 1, built on first use."""
        size = self.domain.size
        top = len(self.planes) - 1
        out = [0] * size
        for k, plane in enumerate(self.planes):
            weight = -(1 << k) if k == top else 1 << k
            for i, bit in enumerate(reversed(f"{plane:0{size}b}")):
                if bit == "1":
                    out[i] += weight
        return tuple(out)

    def value(self, beta: int) -> int:
        """W(beta) alone, read bit by bit from the planes."""
        top = len(self.planes) - 1
        v = sum(((p >> beta) & 1) << k for k, p in enumerate(self.planes))
        return v - ((v >> top) << (top + 1))

    @functools.cached_property
    def magnitudes(self) -> tuple[int, ...]:
        """|W(beta)| on unsigned planes, one fewer: (p ^ sign) + sign."""
        sign = self.planes[-1]
        flipped = [p ^ sign for p in self.planes[:-1]]
        return tuple(add_planes(flipped, [0] * len(flipped), sign))

    def extrema(self) -> tuple[int, int]:
        """(min, max) of |W(beta)|.

        Each extremum is fixed bit by bit from the top of the magnitude
        planes, by narrowing a mask of the candidates that can still reach it.
        """
        mags = self.magnitudes
        lo = hi = 0
        lo_cand = hi_cand = (1 << self.domain.size) - 1
        for k in reversed(range(len(mags))):
            t = hi_cand & mags[k]
            if t:
                hi_cand, hi = t, hi | (1 << k)
            t = lo_cand & ~mags[k]
            if t:
                lo_cand = t
            else:
                lo |= 1 << k
        return lo, hi

    def off_flat_mask(self) -> int:
        """Packed mask of the beta with |W(beta)| != 2^(n//2)."""
        h = self.domain.n // 2
        mags = self.magnitudes
        off = ((1 << self.domain.size) - 1) ^ mags[h]
        for p in mags[:h] + mags[h + 1:]:
            off |= p
        return off


def add_planes(a, b, carry: int = 0) -> list[int]:
    """Planes of a + b + carry in two's complement, as wide as a and b.

    Planes run lowest bit first, and carry is a packed mask of the indices
    that add one more: one ripple-carry adder for every index at once.
    """
    out = []
    for p, q in zip(a, b):
        x = p ^ q
        out.append(x ^ carry)
        carry = (p & q) | (carry & x)
    return out


def walsh(f: TruthTable) -> WalshSpectrum:
    """Exact spectrum W(beta) = sum_x (-1)^(f(x) + Tr(beta*x))."""
    dom = f.domain
    full = (1 << dom.size) - 1
    # (-1)^f(M z) in two's complement: +1 is ...01 and -1 is ...11
    planes = [full, pull_linear(f.bits, dom.walsh_map())]
    for j, hi in enumerate(coordinate_tables(dom.n)):
        h = 1 << j
        lo = full ^ hi
        planes.append(planes[-1])  # one more bit: |W| grows to 2^(j+1)
        # W(i) + W(i + h) at each low index i, W(i) + ~W(i + h) + 1 at i + h
        a = [(pl := p & lo) | pl << h for p in planes]
        b = [(ph := p & hi) >> h | ph ^ hi for p in planes]
        planes = add_planes(a, b, hi)
    return WalshSpectrum(dom, tuple(planes))


def is_bent(spec: WalshSpectrum) -> bool:
    """True iff every |W(beta)| equals 2^(n/2)."""
    n = spec.domain.n
    if n % 2 != 0:
        raise OddDimension(f"bentness is undefined for odd n={n}")
    return spec.off_flat_mask() == 0


def dual(spec: WalshSpectrum) -> TruthTable:
    """Dual table: W(beta) = 2^(n/2) * (-1)^dual(beta), the sign plane."""
    if not is_bent(spec):
        raise NotBent("spectrum is not flat; no dual exists")
    return TruthTable(spec.domain, spec.planes[-1])


def duality_class(f: TruthTable, fdual: TruthTable) -> DualityClass:
    """Pointwise comparison of a function with its dual."""
    if f.domain != fdual.domain:
        raise FieldMismatch("tables live on different domains")
    if f.bits == fdual.bits:
        return DualityClass.SELF_DUAL
    if f.bits ^ fdual.bits == (1 << f.domain.size) - 1:
        return DualityClass.ANTI_SELF_DUAL
    return DualityClass.NEITHER


def _moebius_packed(bits: int, n: int) -> int:
    """Moebius transform of a packed table (its own inverse)."""
    for j, xj in enumerate(coordinate_tables(n)):
        bits ^= (bits & ~xj) << (1 << j)
    return bits


def anf(f: TruthTable) -> ReducedPoly:
    """Algebraic normal form of f over its index coordinates."""
    return ReducedPoly(f.domain.n, _moebius_packed(f.bits, f.domain.n))


def degree(f: TruthTable) -> int:
    """Algebraic degree; the zero function has degree 0 by convention."""
    return anf(f).degree()


def is_idempotent(f: TruthTable) -> bool:
    """True iff f(x^2) = f(x) for every x (field squaring, not index)."""
    return pull_linear(f.bits, f.domain.squaring_map()) == f.bits


def add(f: TruthTable, g: TruthTable) -> TruthTable:
    """Pointwise XOR of two functions on the same domain."""
    if f.domain != g.domain:
        raise FieldMismatch("tables live on different domains")
    return TruthTable(f.domain, f.bits ^ g.bits)


def add_const(f: TruthTable, bit: int) -> TruthTable:
    if bit & 1:
        return TruthTable(f.domain, f.bits ^ ((1 << f.domain.size) - 1))
    return f


# ---------------------------------------------------------------------------
# File format: header line, then the packed bits hex-encoded (byte 0 first,
# lowest index in the least-significant bit of each byte).
# ---------------------------------------------------------------------------

def format_tt(f: TruthTable) -> str:
    size = f.domain.size
    payload = f.bits.to_bytes((size + 7) // 8, "little").hex()
    return f"BF {f.domain.header()}\n{payload}\n"


def parse_tt(text: str) -> TruthTable:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("BF "):
        raise FieldMismatch("not a truth-table file")
    tokens = lines[0][3:].split()
    bad = [tok for tok in tokens if "=" not in tok]
    if bad:
        raise FieldMismatch(f"header token {bad[0]!r} is not key=value")
    fields = dict(tok.split("=", 1) for tok in tokens)
    missing = [key for key in ("n", "mod") if key not in fields]
    if missing:
        raise FieldMismatch(f"header lacks {missing[0]}=")
    try:
        n = int(fields["n"])
        mod = int(fields["mod"], 16)
    except ValueError:
        raise FieldMismatch(
            f"bad n={fields['n']!r} or mod={fields['mod']!r}") from None
    grid = fields.get("grid")
    if grid == "xy":
        if n % 2:
            raise FieldMismatch(f"grid=xy needs an even n, got {n}")
        domain: Domain = BivariateDomain(make_field(n // 2, mod))
    elif grid is None:
        domain = make_field(n, mod)
    else:
        raise FieldMismatch(f"unknown grid={grid!r}")
    try:
        raw = bytes.fromhex(lines[1].strip())
    except ValueError:
        raise FieldMismatch("payload is not hex") from None
    expected = (domain.size + 7) // 8
    if len(raw) != expected:
        raise FieldMismatch(
            f"payload holds {len(raw)} bytes, expected {expected}")
    bits = int.from_bytes(raw, "little")
    if bits >> domain.size:
        raise FieldMismatch(
            f"payload sets bits at or above index {domain.size}")
    return TruthTable(domain, bits)


def save_tt(f: TruthTable, path) -> None:
    with open(path, "w") as fh:
        fh.write(format_tt(f))


def load_tt(path) -> TruthTable:
    with open(path) as fh:
        return parse_tt(fh.read())
