"""Exact polynomials in the pair-indexed variables l<i>_<j>, as results.

A MultiPoly is what expand_skewchar returns and what a certificate's roots
are: a sum of exact rational multiples of packed monomials, built by the
engine's kernel and then only read.  Its coefficients and its evaluations
are fractions.Fraction values in lowest terms with positive denominator.

Canonical text lists the terms by total degree, lowest first, and within one
degree by exponent vector, largest first, the variables taken in the order of
their index pairs (l1_2, l1_3, ..., l2_3, ...), the first most significant.

Packed monomials (Monagan and Pearce, ISSAC 2009).  In dimension n, one int
of size = ceil(F / 4) bytes holds a 2-bit exponent field per variable, F in
all: bit 8*size - 2 - 2f starts the exponent of l<k+1>_<m+1>, (k, m) the f-th
pair of combinations(range(n), 2), so each byte holds four fields from its
top down and unused low fields stay zero.  Adding two packed monomials
multiplies them while no exponent passes 3.  l1_2 fills the top field, so
within one degree the canonical order is the integer order, and one key
sorts: the total degree, popcount(m) + popcount(m & 0b1010...), shifted
above m, minus m.  MultiPoly._from_packed keeps a dict of such monomials to
int coefficients over one denominator; it prints from it and builds its Var
terms only when they are read.

The number grammar of matrix files and the integer-argument rule
(_int_at_least) live here too, below the matrices, engine and analyzer
modules that use them.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Mapping, NamedTuple, Union

Scalar = Union[int, Fraction]


class MissingVariable(KeyError):
    """An evaluation point omits a variable that occurs in the polynomial."""


class _Pair(NamedTuple):
    i: int
    j: int


class Var(_Pair):
    """The variable attached to the ordered index pair (i, j), printed l<i>_<j>.

    Only strict upper-triangle pairs exist: 1 <= i < j.  The mirrored pair
    (j, i) is never a variable; construction sites negate instead.  A Var is
    the tuple (i, j): it hashes, orders and compares equal as that tuple.
    """

    __slots__ = ()

    def __new__(cls, i: int, j: int) -> "Var":
        if type(i) is not int or type(j) is not int:
            raise TypeError(f"variable indices must be ints, got ({i!r}, {j!r})")
        if not (1 <= i < j):
            raise ValueError(f"variable indices need 1 <= i < j, got ({i}, {j})")
        return tuple.__new__(cls, (i, j))

    @classmethod
    def _make(cls, iterable) -> "Var":
        # _replace builds through _make, so both keep the index checks.
        return cls(*iterable)

    def __str__(self) -> str:
        return f"l{self.i}_{self.j}"


# The number grammar of matrix files, ASCII only ([0-9], not \d): a digit
# string, and a rational p or p/q, q neither 0 nor led by a 0.
_DIGITS = "[0-9]+"
_DIGITS_RE = re.compile(_DIGITS)
_RATIONAL_RE = re.compile(rf"([+-]?{_DIGITS})(?:/([1-9][0-9]*))?")

# Error messages echo at most this much of a bad token or line.
_SHOWN_CHARS = 60


def _check_ascii(text: str, error: type[ValueError]) -> None:
    """Raise error, naming the first non-ASCII character, unless text is ASCII."""
    if not text.isascii():
        at = next(k for k, ch in enumerate(text) if not ch.isascii())
        line = text.count("\n", 0, at) + 1
        raise error(f"non-ASCII character U+{ord(text[at]):04X} on line {line}")


def _parse_digits(token: str) -> int | None:
    """int(token) for a digit string, or None; also None past the int string limit."""
    try:
        return int(token) if _DIGITS_RE.fullmatch(token) else None
    except ValueError:
        return None


def _parse_rational(token: str) -> tuple[int, int] | None:
    """The reduced pair (p, q), q > 0, of a rational token p or p/q, or None.

    Also None past the int string limit, as for a digit string.
    """
    m = _RATIONAL_RE.fullmatch(token)
    if m is None:
        return None
    try:
        p, q = int(m[1]), int(m[2] or 1)
    except ValueError:
        return None
    g = gcd(p, q)
    return p // g, q // g


def _shown(token: str, quote: bool = True) -> str:
    """A token for an error message, cut to _SHOWN_CHARS characters.

    Its repr, or with quote=False the token as it is (a number).
    """
    show = repr if quote else str
    if len(token) <= _SHOWN_CHARS:
        return show(token)
    return f"{show(token[:_SHOWN_CHARS])}... ({len(token)} characters)"


def _as_fraction(value: Scalar) -> Fraction:
    """value as a Fraction if it is an int (not a bool) or a Fraction; else TypeError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _int_at_least(name: str, value: int, least: int) -> int:
    """value if it is an int, not a bool, at least least; else TypeError or ValueError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def _factor(v: Var, e: int) -> str:
    return str(v) if e == 1 else f"{v}^{e}"


@lru_cache(maxsize=16)
def packed_fields(n: int) -> tuple:
    """(bit, k, m) per field of a packed monomial in dimension n, 0-based k < m."""
    pairs = list(itertools.combinations(range(n), 2))
    top = 8 * -(-len(pairs) // 4) - 2
    return tuple((1 << top - 2 * f, k, m) for f, (k, m) in enumerate(pairs))


@lru_cache(maxsize=16)
def _byte_tables(n: int) -> tuple:
    """Per byte of a packed monomial: its 256 values as (Var, exponent) pairs, and as text."""
    names = [Var(k + 1, m + 1) for _, k, m in packed_fields(n)]
    pairs = [
        tuple(tuple((names[f], e) for f in range(q, min(q + 4, len(names)))
                    if (e := b >> 6 - 2 * (f - q) & 3)) for b in range(256))
        for q in range(0, len(names), 4)
    ]
    texts = [tuple("*".join(_factor(v, e) for v, e in t) for t in table)
             for table in pairs]
    return tuple(pairs), tuple(texts)


def _unpack(n: int, packed: dict, den: int) -> dict:
    """The Var terms of the sum of c / den times each packed monomial, c != 0."""
    pairs, _ = _byte_tables(n)
    size = len(pairs)
    out = {}
    for mono, c in packed.items():
        key = ()
        for pieces, b in zip(pairs, mono.to_bytes(size, "big")):
            key += pieces[b]
        out[key] = Fraction(c, den)
    return out


def _packed_text(n: int, packed: dict, den: int) -> str:
    """Canonical text of the sum of c / den times each packed monomial, c != 0, den > 0."""
    _, texts = _byte_tables(n)
    size = len(texts)
    width = 8 * size
    high = int.from_bytes(b"\xaa" * size, "big")  # the high bit of every field

    def order(m: int) -> int:
        return ((m.bit_count() + (m & high).bit_count()) << width) - m

    out = []
    for m in sorted(packed, key=order):
        factors = "*".join([t for t in map(tuple.__getitem__, texts, m.to_bytes(size, "big"))
                            if t])
        c = packed[m]
        g = gcd(c, den)
        mag, q = abs(c) // g, den // g
        coeff = str(mag) if q == 1 else f"{mag}/{q}"
        out.append(" - " if c < 0 else " + ")
        out.append(coeff if not factors else factors if coeff == "1"
                   else f"{coeff}*{factors}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


class MultiPoly:
    """A sparse polynomial in the l<i>_<j> with Fraction coefficients.

    Built only by the kernel, through _from_packed; it is read by printing,
    len, terms, evaluate and ==, and is immutable.
    """

    # _packed is the (n, packed dict, den) of _from_packed; _terms maps Var
    # monomials, tuples of (Var, exponent) pairs sorted by variable, to
    # coefficients, and is built on first read and kept: the sampled check
    # of certify_positive evaluates each root at 100 points, and unpacking
    # on every evaluate made certify 20-30% slower.
    __slots__ = ("_terms", "_packed")

    @classmethod
    def _from_packed(cls, n: int, packed: dict, den: int) -> "MultiPoly":
        """The sum of c / den times each packed monomial (module docstring), den > 0."""
        p = object.__new__(cls)
        p._packed = (n, {m: c for m, c in packed.items() if c}, den)
        return p

    def __getattr__(self, name: str):
        # Reached only while a slot is unset: the Var terms, unpacked once.
        if name != "_terms":
            raise AttributeError(name)
        self._terms = _unpack(*self._packed)
        return self._terms

    def terms(self) -> Iterator[tuple[tuple, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._packed[1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def evaluate(self, assignment: Mapping[Var, Scalar]) -> Fraction:
        """Substitute a value for every variable and return the exact result."""
        total = Fraction(0)
        for mono, coeff in self._terms.items():
            term = coeff
            for v, e in mono:
                if v not in assignment:
                    raise MissingVariable(str(v))
                term *= _as_fraction(assignment[v]) ** e
            total += term
        return total

    def __str__(self) -> str:
        return _packed_text(*self._packed)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"
