"""Reduced multivariate polynomials over F_2 and their Fourier coefficients.

A ReducedPoly stores its monomials as tau-bit masks: bit i selects the
variable X_{i+1}, so every exponent is at most 1 by construction.  The
Fourier side keeps scaled integer coefficients chat[w] = 2^tau * c_w, which
downstream spectrum identities consume without ever leaving the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from . import boolfun
from .errors import ArityMismatch, DegreeOutOfRange, ZeroCoefficient, ZeroMask
from .gf2n import coordinate_tables, trace_planes


@dataclass(frozen=True)
class ReducedPoly:
    tau: int
    monomials: frozenset[int]

    def __post_init__(self):
        if self.tau < 1:
            raise ArityMismatch("at least one variable is required")
        if any(m >> self.tau for m in self.monomials):
            raise ArityMismatch("monomial mask exceeds the variable count")

    def degree(self) -> int:
        return max((m.bit_count() for m in self.monomials), default=0)

    def __add__(self, other: "ReducedPoly") -> "ReducedPoly":
        if self.tau != other.tau:
            raise ArityMismatch("variable counts differ")
        return ReducedPoly(self.tau, self.monomials ^ other.monomials)


@dataclass(frozen=True)
class FourierCoeffs:
    tau: int
    chat: tuple[int, ...]


def poly(tau: int, *monomials: int) -> ReducedPoly:
    """Shorthand constructor from monomial masks."""
    return ReducedPoly(tau, frozenset(monomials))


def evaluate(F: ReducedPoly, x: int) -> int:
    """Value of F at the assignment packed into the tau-bit mask x."""
    acc = 0
    for mono in F.monomials:
        if x & mono == mono:
            acc ^= 1
    return acc


def fourier(F: ReducedPoly) -> FourierCoeffs:
    """Scaled coefficients chat[w] = sum_X (-1)^(F(X) + w.X), exact."""
    signs = [1 - 2 * evaluate(F, x) for x in range(1 << F.tau)]
    return FourierCoeffs(F.tau, tuple(boolfun.fwht(signs)))


def is_rotation_symmetric(F: ReducedPoly) -> bool:
    """True iff a cyclic shift of the variables maps F to itself."""
    tau = F.tau
    top = 1 << (tau - 1)

    def shift(mask):
        return ((mask << 1) & ((1 << tau) - 1)) | (1 if mask & top else 0)

    return frozenset(shift(m) for m in F.monomials) == F.monomials


def elementary_symmetric(tau: int, d: int) -> ReducedPoly:
    """Sum of the C(tau, d) square-free monomials of degree d."""
    if not 1 <= d <= tau:
        raise DegreeOutOfRange(f"need 1 <= d <= tau, got d={d}, tau={tau}")
    masks = set()
    for combo in combinations(range(tau), d):
        mask = 0
        for i in combo:
            mask |= 1 << i
        masks.add(mask)
    return ReducedPoly(tau, frozenset(masks))


def rotation_closure(mask: int, tau: int) -> ReducedPoly:
    """Sum of all distinct cyclic shifts of one generator monomial."""
    if mask == 0:
        raise ZeroMask("generator monomial must be nonzero")
    if mask >> tau:
        raise ArityMismatch("monomial mask exceeds the variable count")
    top = 1 << (tau - 1)
    orbit = set()
    cur = mask
    while cur not in orbit:
        orbit.add(cur)
        cur = ((cur << 1) & ((1 << tau) - 1)) | (1 if cur & top else 0)
    return ReducedPoly(tau, frozenset(orbit))


def compose(F: ReducedPoly, args, full: int) -> int:
    """Packed table of F(a_1, ..., a_tau) from packed argument tables.

    A monomial is the AND of the arguments it selects (the constant
    monomial is the all-ones table full), and F is the XOR of its
    monomials.  Affine arguments, such as a complemented trace form, are
    passed already complemented.
    """
    if len(args) != F.tau:
        raise ArityMismatch(f"{F.tau} variables but {len(args)} arguments")
    acc = 0
    for mono in F.monomials:
        term = full
        for i, arg in enumerate(args):
            if (mono >> i) & 1:
                term &= arg
        acc ^= term
    return acc


def compose_traces(dom: "boolfun.Domain", F: ReducedPoly,
                   us) -> "boolfun.TruthTable":
    """Truth table of x -> F(Tr(u_1 x), ..., Tr(u_tau x)) on a field or grid.

    Tr(u x) is the XOR of the coordinate tables X_j that
    dom.walsh_index(u) selects: trace_mask(u) on a field, and on the grid
    the pairing Tr(u1 x + u2 y) of the shift index u = (u1 << m) | u2.
    """
    us = list(us)
    if len(us) != F.tau:
        raise ArityMismatch(f"{F.tau} variables but {len(us)} coefficients")
    if any(u == 0 for u in us):
        raise ZeroCoefficient("all trace coefficients must be nonzero")
    xs = coordinate_tables(dom.n)
    args = [trace_planes(xs, dom.walsh_index(u)) for u in us]
    return boolfun.TruthTable(dom, compose(F, args, (1 << dom.size) - 1))


# ---------------------------------------------------------------------------
# Text format: monomials like X1*X3 joined by '+'; '0' and '1' for constants.
# ---------------------------------------------------------------------------

def format_poly(F: ReducedPoly) -> str:
    if not F.monomials:
        return "0"
    parts = []
    for mask in sorted(F.monomials):
        if mask == 0:
            parts.append("1")
        else:
            parts.append("*".join(f"X{i + 1}" for i in range(F.tau)
                                  if (mask >> i) & 1))
    return "+".join(parts)


def parse_poly(text: str, tau: int) -> ReducedPoly:
    text = text.strip().replace(" ", "")
    if text == "0":
        return ReducedPoly(tau, frozenset())
    masks = set()
    for term in text.split("+"):
        if term == "1":
            mask = 0
        else:
            mask = 0
            for var in term.split("*"):
                if not (var.startswith("X") and var[1:].isdecimal()):
                    raise ArityMismatch(f"bad variable {var!r}")
                i = int(var[1:])
                if not 1 <= i <= tau:
                    raise ArityMismatch(f"variable {var} out of range 1..{tau}")
                mask |= 1 << (i - 1)
        masks ^= {mask}
    return ReducedPoly(tau, frozenset(masks))
