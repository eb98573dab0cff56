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
  j.  Its result is a ReducedPoly in the n index coordinates: bit I of
  coeffs is the coefficient of the monomial on the set bits of I, packed
  like the truth table, and the degree is read against the masks K_d of
  the indices with d ones.  ReducedPoly is defined here, the one
  polynomial type, and bentkit.multipoly builds on it.
- Idempotence.  f(x^2) = f(x) compares the table with itself pulled
  through the squaring map.

Both index maps are F_2-linear and go through gf2n.pull_linear.  The list
oracles in tests/pointwise.py (fwht, mobius, walsh_naive) are the
reference the packed kernels are tested against.

The table checker, verify() with its Expectation and VerificationReport,
lives here too, so a command that checks a table loads this module and
the field layer alone; bentkit.verify imports it for the demos and sweeps.
"""

from __future__ import annotations

import enum
import functools
import time
from collections import namedtuple

from .errors import (ArityMismatch, EmptyExpectation, FieldMismatch, NotBent,
                     OddDimension, UnsupportedDegree)
from .gf2n import (MAX_TABLE_DEGREE, BivariateDomain, Field,
                   coordinate_tables, make_field, pull_linear)

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


def no_dual_error(n: int) -> OddDimension | NotBent:
    """The refusal of a dual on n variables: odd n, or a spectrum not flat."""
    return (OddDimension(f"bentness is undefined for odd n={n}") if n % 2
            else NotBent("spectrum is not flat; no dual exists"))


def is_bent(spec: WalshSpectrum) -> bool:
    """True iff every |W(beta)| equals 2^(n/2)."""
    if spec.domain.n % 2 != 0:
        raise no_dual_error(spec.domain.n)
    return spec.off_flat_mask() == 0


def dual(spec: WalshSpectrum) -> TruthTable:
    """Dual table: W(beta) = 2^(n/2) * (-1)^dual(beta), the sign plane."""
    if not is_bent(spec):
        raise no_dual_error(spec.domain.n)
    return TruthTable(spec.domain, spec.planes[-1])


def duality_class(f: TruthTable, fdual: TruthTable) -> DualityClass:
    """Pointwise comparison of a function with its dual."""
    bits = add(f, fdual).bits
    if bits == 0:
        return DualityClass.SELF_DUAL
    if bits == (1 << f.domain.size) - 1:
        return DualityClass.ANTI_SELF_DUAL
    return DualityClass.NEITHER


def _check_arity(tau: int) -> None:
    """1 <= tau, and tau obeys the table bound: coeffs has 2^tau bits."""
    if tau < 1:
        raise ArityMismatch("at least one variable is required")
    if tau > MAX_TABLE_DEGREE:
        raise UnsupportedDegree(
            f"polynomials need tau <= {MAX_TABLE_DEGREE}, got tau={tau}")


@functools.cache
def _weight_classes(n: int) -> tuple[int, ...]:
    """Masks K_0..K_n on 2^n indices: bit i of K_d is set iff i has d ones."""
    classes = [1]
    for j in range(n):
        h = 1 << j
        classes = [same | (one_less << h) for same, one_less
                   in zip(classes + [0], [0] + classes)]
    return tuple(classes)


class ReducedPoly(namedtuple("ReducedPoly", "tau coeffs")):
    __slots__ = ()

    def __new__(cls, tau: int, coeffs: int):
        _check_arity(tau)
        if coeffs < 0 or coeffs >> (1 << tau):
            raise ArityMismatch("monomial mask exceeds the variable count")
        return super().__new__(cls, tau, coeffs)

    # _replace builds through _make: check its values as __new__ does
    _make = classmethod(lambda cls, values: cls(*values))

    def degree(self) -> int:
        classes = _weight_classes(self.tau)
        return next((d for d in range(self.tau, 0, -1)
                     if self.coeffs & classes[d]), 0)

    def __add__(self, other: "ReducedPoly") -> "ReducedPoly":
        if self.tau != other.tau:
            raise ArityMismatch("variable counts differ")
        return ReducedPoly(self.tau, self.coeffs ^ other.coeffs)


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
# The table checker: every claim about one table, exactly.
# ---------------------------------------------------------------------------

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
    spec = walsh(f)
    lo, hi = spec.extrema()
    flat = 1 << (f.domain.n // 2)
    bent = f.domain.n % 2 == 0 and lo == flat and hi == flat
    deg = degree(f)
    idem = is_idempotent(f)
    computed_dual = dual(spec) if bent else None
    dcls = (duality_class(f, computed_dual) if bent
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
    keys = [tok.split("=", 1)[0] for tok in tokens]
    repeated = [key for key in keys if keys.count(key) > 1]
    if repeated:
        raise FieldMismatch(f"header repeats {repeated[0]}=")
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
