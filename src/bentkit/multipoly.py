"""Reduced multivariate polynomials over F_2 and their Fourier coefficients.

ReducedPoly itself is defined in bentkit.boolfun, whose anf returns one,
and is imported here: bit I of coeffs is the coefficient of the monomial
on the set bits of I, bit i selecting X_{i+1}.  This module builds and
reads them: e_d is the mask K_d of the indices with d ones, the scaled
Fourier coefficients chat[w] = 2^tau * c_w are popcounts of packed
tables, and compose_traces gives a construction's table.
"""

from __future__ import annotations

from .boolfun import ReducedPoly, _check_arity, _weight_classes
from .errors import (ArityMismatch, DegreeOutOfRange, ZeroCoefficient,
                     ZeroMask)
from .gf2n import apply_linear, coordinate_tables


def _masks(coeffs: int) -> list[int]:
    """The monomial masks of a coefficient table, in increasing order."""
    return [i for i, c in enumerate(reversed(f"{coeffs:b}")) if c == "1"]


def _rotate(mask: int, tau: int) -> int:
    """The monomial with X_i replaced by X_(i+1), cyclically in tau."""
    return ((mask << 1) & ((1 << tau) - 1)) | (mask >> (tau - 1))


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
