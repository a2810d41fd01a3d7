"""Exact sparse polynomials in the pair-indexed variables l<i>_<j>.

The scalar type is fractions.Fraction throughout: every coefficient and every
evaluation result is an exact rational in lowest terms with positive
denominator.  Polynomials are immutable and canonical: no zero coefficients
are stored, monomials carry no zero exponents, and equality is plain equality
of the underlying term maps.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Union

Scalar = Union[int, Fraction]


class MissingVariable(KeyError):
    """An evaluation point omits a variable that occurs in the polynomial."""


class PolyParseError(ValueError):
    """Text does not conform to the canonical polynomial grammar."""


@dataclass(frozen=True, order=True)
class Var:
    """The variable attached to the ordered index pair (i, j), printed l<i>_<j>.

    Only strict upper-triangle pairs exist: 1 <= i < j.  The mirrored pair
    (j, i) is never a variable; construction sites negate instead.
    """

    i: int
    j: int

    def __post_init__(self) -> None:
        if type(self.i) is not int or type(self.j) is not int:
            raise TypeError(f"variable indices must be ints, got ({self.i!r}, {self.j!r})")
        if not (1 <= self.i < self.j):
            raise ValueError(f"variable indices need 1 <= i < j, got ({self.i}, {self.j})")

    def __str__(self) -> str:
        return f"l{self.i}_{self.j}"


# A monomial is a tuple of (Var, exponent) pairs sorted by variable, all
# exponents strictly positive.  The empty tuple is the constant monomial.
Monomial = tuple

_ONE_MONO: Monomial = ()

_VAR_RE = re.compile(r"^l(\d+)_(\d+)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^\d+(?:/0*[1-9]\d*)?$")


def _as_fraction(value: Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """Merge two sorted exponent tuples, adding exponents of shared variables."""
    if not a:
        return b
    if not b:
        return a
    out = []
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        va, ea = a[ia]
        vb, eb = b[ib]
        if va == vb:
            out.append((va, ea + eb))
            ia += 1
            ib += 1
        elif va < vb:
            out.append((va, ea))
            ia += 1
        else:
            out.append((vb, eb))
            ib += 1
    out.extend(a[ia:])
    out.extend(b[ib:])
    return tuple(out)


def mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


class MultiPoly:
    """A sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, Scalar] | Iterable = ()) -> None:
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            coeff = _as_fraction(coeff)
            mono = tuple(mono)
            if any(type(e) is not int for _, e in mono):
                raise TypeError("monomial exponents must be ints")
            mono = tuple(sorted((v, e) for v, e in mono if e))
            for v, e in mono:
                if not isinstance(v, Var):
                    raise TypeError("monomial keys must be Var instances")
                if e < 0:
                    raise ValueError("negative exponents are not representable")
            acc[mono] = acc.get(mono, Fraction(0)) + coeff
        self._terms = {m: c for m, c in acc.items() if c}

    @classmethod
    def _raw(cls, terms: dict) -> "MultiPoly":
        # Internal fast path: terms is already canonical.
        p = object.__new__(cls)
        p._terms = terms
        return p

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
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

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
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MultiPoly.constant(1)
        base = self
        e = exponent
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
        if not self._terms:
            return "0"
        order = {v: k for k, v in enumerate(self.variables())}
        nvars = len(order)

        def print_key(mono: Monomial):
            dense = [0] * nvars
            for v, e in mono:
                dense[order[v]] = e
            return (mono_degree(mono), tuple(-e for e in dense))

        pieces: list[str] = []
        for mono in sorted(self._terms, key=print_key):
            coeff = self._terms[mono]
            mag = abs(coeff)
            factors = [str(v) if e == 1 else f"{v}^{e}" for v, e in mono]
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"MultiPoly({str(self)!r})"

    @classmethod
    def parse(cls, text: str) -> "MultiPoly":
        """Parse the canonical grammar produced by str(); inverse of printing."""
        s = text.strip()
        if not s:
            raise PolyParseError("empty polynomial text")
        if s == "0":
            return cls.zero()
        parts = re.split(r"\s+([+-])\s+", s)
        terms: list[tuple[Monomial, Fraction]] = []
        sign = 1
        chunk = parts[0]
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
        queue = [(sign, chunk)]
        for k in range(1, len(parts), 2):
            queue.append((1 if parts[k] == "+" else -1, parts[k + 1]))
        for sign, chunk in queue:
            coeff = Fraction(sign)
            exps: dict[Var, int] = {}
            for factor in chunk.split("*"):
                factor = factor.strip()
                m = _VAR_RE.match(factor)
                if m:
                    i, j, e = int(m.group(1)), int(m.group(2)), m.group(3)
                    e = int(e) if e is not None else 1
                    if e < 1:
                        raise PolyParseError(f"bad exponent in {factor!r}")
                    try:
                        v = Var(i, j)
                    except ValueError as exc:
                        raise PolyParseError(str(exc)) from exc
                    exps[v] = exps.get(v, 0) + e
                elif _NUM_RE.match(factor):
                    coeff *= Fraction(factor)
                else:
                    raise PolyParseError(f"bad factor {factor!r}")
            terms.append((tuple(sorted(exps.items())), coeff))
        return cls(terms)


def lam(i: int, j: int) -> MultiPoly:
    """Shorthand for the polynomial consisting of the single variable l<i>_<j>."""
    return MultiPoly.variable(Var(i, j))
