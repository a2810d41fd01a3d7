"""Exact sparse polynomials in the pair-indexed variables l<i>_<j>.

The scalar type is fractions.Fraction throughout: every coefficient and every
evaluation result is an exact rational in lowest terms with positive
denominator.  Polynomials are immutable and canonical: no zero coefficients
are stored, monomials carry no zero exponents, and equality is plain equality
of the underlying term maps.

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
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Iterator, Mapping, NamedTuple, Union

Scalar = Union[int, Fraction]


class MissingVariable(KeyError):
    """An evaluation point omits a variable that occurs in the polynomial."""


class PolyParseError(ValueError):
    """Text does not conform to the canonical polynomial grammar."""


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


# A monomial is a tuple of (Var, exponent) pairs sorted by variable, all
# exponents strictly positive.  The empty tuple is the constant monomial.
Monomial = tuple

_ONE_MONO: Monomial = ()

# The number grammar of matrix files and polynomial text, ASCII only ([0-9],
# not \d): a digit string, and a rational p or p/q, q neither 0 nor led by a 0.
# Polynomial coefficients take no sign: their signs stand between the terms.
_DIGITS = "[0-9]+"
_DIGITS_RE = re.compile(_DIGITS)
_RATIONAL_RE = re.compile(rf"([+-]?{_DIGITS})(?:/([1-9][0-9]*))?")
_VAR_RE = re.compile(rf"l({_DIGITS})_({_DIGITS})(?:\^({_DIGITS}))?")

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


def _parse_rational(token: str, signed: bool = True) -> tuple[int, int] | None:
    """The reduced pair (p, q), q > 0, of a rational token p or p/q, or None.

    Also None past the int string limit, as for a digit string.
    """
    m = _RATIONAL_RE.fullmatch(token)
    if m is None or (not signed and token[0] in "+-"):
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
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def _int_at_least(name: str, value: int, least: int) -> int:
    """value if it is an int, not a bool, at least least; else TypeError or ValueError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < least:
        raise ValueError(f"{name} must be at least {least}")
    return value


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: exponents of shared variables added."""
    exps = dict(a)
    for v, e in b:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


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


def _packed_items(n: int, packed: dict, den: int) -> Iterator[tuple]:
    """(factor text, c, den) per packed monomial, in canonical order."""
    _, texts = _byte_tables(n)
    size = len(texts)
    width = 8 * size
    high = int.from_bytes(b"\xaa" * size, "big")  # the high bit of every field

    def order(m: int) -> int:
        return ((m.bit_count() + (m & high).bit_count()) << width) - m

    for m in sorted(packed, key=order):
        factors = [t for t in map(tuple.__getitem__, texts, m.to_bytes(size, "big")) if t]
        yield "*".join(factors), packed[m], den


def _write(items: Iterable[tuple]) -> str:
    """Canonical text of (factor text, c, den) triples given in canonical order.

    Each is the term c / den times its factors; c != 0 and den > 0.
    """
    out = []
    for factors, c, den in items:
        g = gcd(c, den)
        mag, den = abs(c) // g, den // g
        coeff = str(mag) if den == 1 else f"{mag}/{den}"
        out.append(" - " if c < 0 else " + ")
        out.append(coeff if not factors else factors if coeff == "1"
                   else f"{coeff}*{factors}")
    if not out:
        return "0"
    out[0] = "-" if out[0] == " - " else ""
    return "".join(out)


class MultiPoly:
    """A sparse multivariate polynomial with Fraction coefficients."""

    # _terms maps Var monomials to coefficients.  _packed is None, or the
    # (n, packed dict, den) of _from_packed; then _terms is built on first read.
    __slots__ = ("_terms", "_packed")

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            coeff = _as_fraction(coeff)
            mono = tuple(sorted((v, e) for v, e in mono if _int_at_least("exponent", e, 0)))
            for v, _ in mono:
                if not isinstance(v, Var):
                    raise TypeError("monomial keys must be Var instances")
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        self._terms = {m: c for m, c in acc.items() if c}
        self._packed = None

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        # Internal fast path: terms is already canonical.
        p = object.__new__(cls)
        p._terms = terms
        p._packed = None
        return p

    @classmethod
    def _from_packed(cls, n: int, packed: dict, den: int) -> "MultiPoly":
        """The sum of c / den times each packed monomial (module docstring), den > 0."""
        p = object.__new__(cls)
        p._packed = (n, {m: c for m, c in packed.items() if c}, den)
        return p

    def __getattr__(self, name: str):
        # Reached only while a slot is unset: the Var terms of a packed polynomial.
        if name != "_terms" or self._packed is None:
            raise AttributeError(name)
        self._terms = _unpack(*self._packed)
        return self._terms

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._raw({})

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        c = _as_fraction(value)
        return cls._raw({_ONE_MONO: c} if c else {})

    @classmethod
    def variable(cls, var: Var) -> "MultiPoly":
        return cls._raw({((var, 1),): Fraction(1)})

    # -- basic queries ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not len(self)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._packed[1] if self._packed else self._terms)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self._terms.get(tuple(sorted(mono)), Fraction(0))

    def constant_term(self) -> Fraction:
        return self._terms.get(_ONE_MONO, Fraction(0))

    def total_degree(self) -> int:
        """Total degree; the zero polynomial reports 0."""
        return max((mono_degree(m) for m in self._terms), default=0)

    def degree_in(self, var: Var) -> int:
        """Largest exponent of a single variable across all monomials."""
        best = 0
        for m in self._terms:
            for v, e in m:
                if v == var and e > best:
                    best = e
        return best

    def variables(self) -> list[Var]:
        seen = {v for m in self._terms for v, _ in m}
        return sorted(seen)

    # -- ring arithmetic --------------------------------------------------

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other)
        return None

    def __add__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in q._terms.items():
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return MultiPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._raw({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self + (-q)

    def __rsub__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return q + (-self)

    def __mul__(self, other) -> "MultiPoly":
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        if not self._terms or not q._terms:
            return MultiPoly.zero()
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in q._terms.items():
                m = mono_mul(ma, mb)
                s = out.get(m, Fraction(0)) + ca * cb
                if s:
                    out[m] = s
                else:
                    del out[m]
        return MultiPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "MultiPoly":
        e = _int_at_least("exponent", exponent, 0)
        result = MultiPoly.constant(1)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other) -> bool:
        q = self._coerce(other)
        if q is None:
            return NotImplemented
        return self._terms == q._terms

    def __hash__(self) -> int:
        # A constant equals its coefficient, so it must hash like it too.
        if self._terms.keys() <= {_ONE_MONO}:
            return hash(self.constant_term())
        return hash(frozenset(self._terms.items()))

    # -- evaluation ----------------------------------------------------------

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

    # -- canonical text ----------------------------------------------------

    def __str__(self) -> str:
        if self._packed:
            return _write(_packed_items(*self._packed))
        # Var terms may carry exponents above 3, so they sort by their own key
        # to the same order: the factor lists compare like dense exponent
        # vectors because, within one degree, no monomial's factor list is a
        # proper prefix of another's.
        return _write(
            ("*".join([_factor(v, e) for v, e in mono]), c.numerator, c.denominator)
            for mono, c in sorted(self._terms.items(), key=lambda t: (
                mono_degree(t[0]), [(v.i, v.j, -e) for v, e in t[0]])))

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "MultiPoly":
        """Parse the canonical grammar produced by str(); inverse of printing.

        The text must be ASCII.  Indices and exponents are digit strings and
        coefficients unsigned rationals, by the rules matrix files use, so
        1/01 is refused here as it is there.
        """
        _check_ascii(text, PolyParseError)
        s = text.strip()
        if not s:
            raise PolyParseError("empty polynomial text")
        first, s = (-1, s[1:]) if s.startswith("-") else (1, s)
        parts = re.split(r"\s+([+-])\s+", s)
        signs = [first] + [1 if op == "+" else -1 for op in parts[1::2]]
        terms: list[tuple[Monomial, Fraction]] = []
        for sign, chunk in zip(signs, parts[::2]):
            coeff = Fraction(sign)
            exps: dict[Var, int] = {}
            for factor in map(str.strip, chunk.split("*")):
                m = _VAR_RE.fullmatch(factor)
                if m:
                    try:
                        i, j, e = (int(g or 1) for g in m.groups())
                    except ValueError:  # a digit string past the int string limit
                        raise PolyParseError(f"bad factor {_shown(factor)}") from None
                    if e < 1:
                        raise PolyParseError(f"bad exponent in {_shown(factor)}")
                    try:
                        v = Var(i, j)
                    except ValueError as exc:
                        raise PolyParseError(str(exc)) from exc
                    exps[v] = exps.get(v, 0) + e
                elif (value := _parse_rational(factor, signed=False)) is not None:
                    coeff *= Fraction(*value)
                else:
                    raise PolyParseError(f"bad factor {_shown(factor)}")
            terms.append((tuple(sorted(exps.items())), coeff))
        return cls(terms)


def lam(i: int, j: int) -> MultiPoly:
    """Shorthand for the polynomial consisting of the single variable l<i>_<j>."""
    return MultiPoly.variable(Var(i, j))
