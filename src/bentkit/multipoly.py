"""Reduced multivariate polynomials over F_2 and their Fourier coefficients.

A ReducedPoly packs its coefficients like a truth table (boolfun.anf
returns one): bit I of coeffs is the coefficient of the monomial on the
set bits of I, bit i selecting X_{i+1}.  The degree is read against the
masks K_d of the indices with d ones, e_d is K_d, and the scaled Fourier
coefficients chat[w] = 2^tau * c_w are popcounts of packed tables.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .errors import (
    ArityMismatch,
    DegreeOutOfRange,
    UnsupportedDegree,
    ZeroCoefficient,
    ZeroMask,
)
from .gf2n import MAX_TABLE_DEGREE, apply_linear, coordinate_tables


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


def _masks(coeffs: int) -> list[int]:
    """The monomial masks of a coefficient table, in increasing order."""
    return [i for i, c in enumerate(reversed(f"{coeffs:b}")) if c == "1"]


def _rotate(mask: int, tau: int) -> int:
    """The monomial with X_i replaced by X_(i+1), cyclically in tau."""
    return ((mask << 1) & ((1 << tau) - 1)) | (mask >> (tau - 1))


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


def poly(tau: int, *monomials: int) -> ReducedPoly:
    """Shorthand constructor from monomial masks; a repeat counts once."""
    _check_arity(tau)
    if any(m < 0 or m >> tau for m in monomials):
        raise ArityMismatch("monomial mask exceeds the variable count")
    return ReducedPoly(tau, sum(1 << m for m in set(monomials)))


def fourier(F: ReducedPoly) -> tuple[int, ...]:
    """Scaled coefficients chat[w] = sum_X (-1)^(F(X) + w.X), exact.

    On the 2^tau points, F(X) + w.X is the table of F XOR the trace plane
    of w, so chat[w] = 2^tau - 2 * popcount of that XOR.
    """
    xs = coordinate_tables(F.tau)
    size = 1 << F.tau
    table = compose(F, xs, (1 << size) - 1)
    return tuple(size - 2 * (table ^ apply_linear(xs, w)).bit_count()
                 for w in range(size))


def is_rotation_symmetric(F: ReducedPoly) -> bool:
    """True iff a cyclic shift of the variables maps F to itself."""
    return sum(1 << _rotate(m, F.tau) for m in _masks(F.coeffs)) == F.coeffs


def elementary_symmetric(tau: int, d: int) -> ReducedPoly:
    """Sum of the C(tau, d) square-free monomials of degree d: K_d."""
    if not 1 <= d <= tau:
        raise DegreeOutOfRange(f"need 1 <= d <= tau, got d={d}, tau={tau}")
    _check_arity(tau)
    return ReducedPoly(tau, _weight_classes(tau)[d])


def rotation_closure(mask: int, tau: int) -> ReducedPoly:
    """Sum of all distinct cyclic shifts of one generator monomial."""
    if mask == 0:
        raise ZeroMask("generator monomial must be nonzero")
    if mask >> tau:
        raise ArityMismatch("monomial mask exceeds the variable count")
    orbit = set()
    cur = mask
    while cur not in orbit:
        orbit.add(cur)
        cur = _rotate(cur, tau)
    return poly(tau, *orbit)


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
    for mono in _masks(F.coeffs):
        term = full
        for i, arg in enumerate(args):
            if (mono >> i) & 1:
                term &= arg
        acc ^= term
    return acc


def compose_traces(dom, F: ReducedPoly, us) -> int:
    """Packed table of x -> F(Tr(u_1 x), ..., Tr(u_tau x)) on a field or grid.

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
    args = [apply_linear(xs, dom.walsh_index(u)) for u in us]
    return compose(F, args, (1 << dom.size) - 1)


# ---------------------------------------------------------------------------
# Text format: monomials like X1*X3 joined by '+'; '0' and '1' for constants.
# ---------------------------------------------------------------------------

def format_poly(F: ReducedPoly) -> str:
    parts = ["*".join(f"X{i + 1}" for i in range(F.tau) if (mask >> i) & 1)
             or "1" for mask in _masks(F.coeffs)]
    return "+".join(parts) or "0"


def parse_poly(text: str, tau: int) -> ReducedPoly:
    """Parse format_poly's text; a repeated term cancels, as over F_2."""
    _check_arity(tau)
    text = text.strip().replace(" ", "")
    if text == "0":
        return ReducedPoly(tau, 0)
    coeffs = 0
    for term in text.split("+"):
        mask = 0
        if term != "1":
            for var in term.split("*"):
                if not (var.startswith("X") and var[1:].isdecimal()):
                    raise ArityMismatch(f"bad variable {var!r}")
                i = int(var[1:])
                if not 1 <= i <= tau:
                    raise ArityMismatch(f"variable {var} out of range 1..{tau}")
                mask |= 1 << (i - 1)
        coeffs ^= 1 << mask
    return ReducedPoly(tau, coeffs)
