"""Seeded benchmark inputs, each carrying the outcome known from its construction.

Nothing here imports skewchar.  Every form is built as S^T D S from a
diagonal D whose signs are chosen, so its signature is known by Sylvester's
law of inertia, and every indefinite form records why it is isotropic (a
planted pair, a hidden small isotropic vector, or Meyer's theorem for n >= 5)
or why it is anisotropic (a stated local obstruction).

Sizes and the order of operations are fixed per workload; only the entries
depend on the seed, so runs with different seeds measure the same mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

from rational import congruent

PROBE_TRIALS = 40
PROBE_BOUND = 10


@dataclass(frozen=True)
class Case:
    """One benchmark input and the outcome it must produce.

    kind is the latency slot the case reports under ("a", "b" or "c").
    isotropic says whether x^T A x = 0 has a nonzero rational solution;
    reason says how that is known.  upper holds the skew matrix of an eval
    case as {(i, j): value}; args holds extra command line arguments.
    """

    name: str
    kind: str
    command: str
    a: tuple
    signature: tuple
    isotropic: bool
    reason: str
    upper: dict = field(default_factory=dict)
    args: tuple = ()

    @property
    def n(self) -> int:
        return len(self.a)

    @property
    def verdict(self) -> str:
        pos, neg, zero = self.signature
        if zero:
            return "Degenerate"
        if neg == 0:
            return "PositiveDefinite"
        if pos == 0:
            return "NegativeDefinite"
        return "Indefinite"

    def matrix_text(self) -> str:
        lines = [str(self.n)] + [" ".join(str(x) for x in row) for row in self.a]
        return "\n".join(lines) + "\n"

    def skew_text(self) -> str:
        lines = [str(self.n)] + [f"{i} {j} {v}" for (i, j), v in sorted(self.upper.items())]
        return "\n".join(lines) + "\n"


# -- random building blocks ----------------------------------------------------


def _rational(rng: random.Random, bound: int, qmax: int) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, qmax))


def _positive(rng: random.Random, bound: int, qmax: int) -> Fraction:
    return Fraction(rng.randint(1, bound), rng.randint(1, qmax))


_PRIME = (1 << 61) - 1


def _nonsingular(s: list[list[int]]) -> bool:
    """det(s) != 0, decided by elimination modulo a large prime.

    A nonzero determinant modulo the prime proves invertibility; the rare
    matrix that is invertible but singular modulo the prime is just redrawn.
    """
    m = [[x % _PRIME for x in row] for row in s]
    n = len(m)
    for k in range(n):
        p = next((r for r in range(k, n) if m[r][k]), None)
        if p is None:
            return False
        m[k], m[p] = m[p], m[k]
        inv = pow(m[k][k], -1, _PRIME)
        for i in range(k + 1, n):
            f = m[i][k] * inv % _PRIME
            if f:
                m[i] = [(x - f * y) % _PRIME for x, y in zip(m[i], m[k])]
    return True


def _invertible(rng: random.Random, n: int, bound: int = 2) -> list[list[int]]:
    while True:
        s = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        if _nonsingular(s):
            return s


def _unimodular(rng: random.Random, n: int, shears: int) -> list[list[int]]:
    """Product of unit shears and a column permutation: det +-1."""
    s = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(shears):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        for row in s:
            row[j] += c * row[i]
    perm = list(range(n))
    rng.shuffle(perm)
    return [[row[p] for p in perm] for row in s]


def _signature(diag) -> tuple[int, int, int]:
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def _squarefree(k: int) -> bool:
    return all(k % (p * p) for p in range(2, int(k ** 0.5) + 1))


_SQUAREFREE = [k for k in range(1, 60) if _squarefree(k)]


def _mixed_signs(rng: random.Random, n: int) -> list[int]:
    pos = rng.randint(1, n - 1)
    signs = [1] * pos + [-1] * (n - pos)
    rng.shuffle(signs)
    return signs


def _planted_diag(rng: random.Random, n: int) -> list[Fraction]:
    """Mixed-sign diagonal with one opposite-sign pair whose ratio is -w^2."""
    signs = _mixed_signs(rng, n)
    diag = [s * _positive(rng, 4, 3) for s in signs]
    i = signs.index(1)
    j = signs.index(-1)
    diag[j] = -diag[i] * rng.randint(1, 3) ** 2
    return diag


def _hidden_vector_diag(rng: random.Random, n: int) -> tuple[list[int], tuple[int, ...]]:
    """Distinct squarefree |d_i| of mixed sign with sum d_i x_i^2 = 0, x small.

    Distinct squarefree magnitudes mean no opposite-sign pair has -d_i d_j
    a square, so no planted pair exists in this basis; x is isotropic by
    construction.
    """
    while True:
        signs = [rng.choice((1, -1)) for _ in range(n - 1)]
        mags = rng.sample(_SQUAREFREE[:20], n - 1)
        x = tuple(rng.randint(1, 2) for _ in range(n - 1)) + (1,)
        partial = sum(s * m * xi * xi for s, m, xi in zip(signs, mags, x))
        last = -partial
        if last == 0 or abs(last) in mags or not _squarefree(abs(last)):
            continue
        diag = [s * m for s, m in zip(signs, mags)] + [last]
        if 0 < sum(1 for d in diag if d > 0) < n:
            return diag, x


# -- workloads -----------------------------------------------------------------


def _denominators(rng: random.Random, n: int) -> list[int]:
    """Denominators 1, 2, 3, 1, 2, 3, ... in a seeded order.

    The cost of a symbolic expansion grows with the denominators of the
    form's entries; a fixed multiset of them keeps every draw of one size
    at about the same cost, so a kind's median rests on its size, not on
    which draws a seed gave.
    """
    qs = [k % 3 + 1 for k in range(n)]
    rng.shuffle(qs)
    return qs


def _symbolic(rng: random.Random) -> list[Case]:
    """expand at n=4 and n=5 (kind a), certify at n=5 (b) and n=6 (c)."""
    cases = []

    def form(n: int, shape: str) -> tuple[tuple, tuple, bool, str]:
        if shape == "pd":
            signs = [1] * n
            iso, why = False, "definite"
        elif shape == "singular":
            signs = [rng.choice((1, -1)) for _ in range(n)]
            iso, why = True, "kernel vector"
        else:
            signs = _mixed_signs(rng, n)
            iso, why = True, "planted pair"
        diag = [s * Fraction(rng.randint(1, 4), q)
                for s, q in zip(signs, _denominators(rng, n))]
        if shape == "singular":
            diag[rng.randrange(n)] = Fraction(0)
        elif shape == "indefinite":
            i, j = signs.index(1), signs.index(-1)
            diag[j] = -diag[i] * rng.randint(1, 3) ** 2
        # Dense: a zero entry of A removes terms from every minor and makes
        # the expansion cheaper, so draws with one are redrawn.
        while True:
            a = congruent(diag, _invertible(rng, n))
            if all(all(row) for row in a):
                return a, _signature(diag), iso, why

    # One of every six expand forms has n=4, so the median lies among n=5.
    small = ("indefinite", "singular")[rng.randrange(2)]
    expand_shapes = [(5, "indefinite"), (5, "pd"), (5, "singular"),
                     (4, small), (5, "indefinite"), (5, "singular")]
    for k, (n, shape) in enumerate(expand_shapes):
        a, sig, iso, why = form(n, shape)
        cases.append(Case(f"expand{k}_n{n}_{shape}", "a", "expand", a, sig, iso, why))
    for n, kind, count in ((5, "b", 4), (6, "c", 4)):
        for k in range(count):
            a, sig, iso, why = form(n, "pd")
            cases.append(Case(f"certify{k}_n{n}", kind, "certify", a, sig, iso, why))
    return cases


def _dense(rng: random.Random) -> list[Case]:
    """classify at n=12..24 (kind a), eval at n=24..30 (b), probe at n=8..16 (c)."""
    cases = []
    # Three forms at n=18 put the median classify latency on one size.
    for k, n in enumerate((12, 18, 24, 18, 16, 20, 18)):
        shape = ("pd", "nd", "degenerate")[k % 3]
        if shape == "degenerate":
            diag = [_rational(rng, 4, 3) or Fraction(1) for _ in range(n)]
            diag[rng.randrange(n)] = Fraction(0)
        else:
            sign = 1 if shape == "pd" else -1
            diag = [sign * _positive(rng, 4, 3) for _ in range(n)]
        a = congruent(diag, _invertible(rng, n))
        cases.append(Case(f"classify{k}_n{n}_{shape}", "a", "classify", a,
                          _signature(diag), shape == "degenerate", shape))
    for k, n in enumerate((24, 26, 28, 30, 25, 27, 29)):
        diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))
                for _ in range(n)]
        sig = _signature(diag)
        upper = {(i, j): v for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if (v := _rational(rng, 9, 9))}
        iso, why = (True, "Meyer (n >= 5)") if sig[0] and sig[1] else (False, "definite")
        cases.append(Case(f"eval{k}_n{n}", "b", "eval", congruent(diag, _invertible(rng, n)),
                          sig, iso, why, upper=upper))
    # Five probes at n=12 put the median probe latency on one size.
    for k, n in enumerate((8, 12, 16, 12, 10, 12, 14, 12, 12)):
        sign = 1 if k % 2 == 0 else -1
        diag = [sign * _positive(rng, 4, 3) for _ in range(n)]
        a = congruent(diag, _unimodular(rng, n, n))
        args = ("--trials", str(PROBE_TRIALS), "--seed", str(rng.randint(0, 10 ** 6)),
                "--bound", str(PROBE_BOUND))
        cases.append(Case(f"probe{k}_n{n}", "c", "probe", a, _signature(diag),
                          False, "definite", args=args))
    return cases


_ANISOTROPIC_PRIMES = (3, 7, 11)  # each p = 3 mod 4, so -1 is not a square mod p


def _anisotropic(rng: random.Random, n: int) -> tuple[list[Fraction], str]:
    """A diagonal form with no nonzero rational zero, and the reason why."""
    if n == 2:
        a, b = rng.sample(_SQUAREFREE[:12], 2)
        return [Fraction(a), Fraction(-b)], f"binary form with -det = {a * b} not a square"
    p = rng.choice(_ANISOTROPIC_PRIMES)
    base = [1, 1, -p] if n == 3 else [1, 1, -p, -p]
    # Square factors and an overall scale keep the rational equivalence class.
    scale = rng.choice((1, -1, 2, -2))
    diag = [Fraction(scale * d * rng.randint(1, 2) ** 2) for d in base]
    form = "x^2 + y^2 - p z^2" if n == 3 else "x^2 + y^2 - p (z^2 + w^2)"
    return diag, f"{form} with p = {p} = 3 mod 4 is anisotropic at p"


def _witness(rng: random.Random) -> list[Case]:
    """witness on planted-pair (kind a), hard (b) and anisotropic (c) forms.

    Hard forms have a hidden isotropic vector but no planted pair: diagonal
    ones, whose cost is set by the n! coordinate permutations the search
    tries, and scrambled ones.  Most planted forms have n=4 and most hard
    ones are diagonal with n=5, so each kind's median lies inside one group
    of similar cost.  Sizes alternate within a round, so a round cut short by
    the clock keeps that median.
    """
    cases = []
    for k, n in enumerate((3, 4, 4, 4, 5, 4, 4, 4, 6, 4, 4, 4)):
        diag = _planted_diag(rng, n)
        a = congruent(diag, _unimodular(rng, n, 2))
        cases.append(Case(f"witness_planted{k}_n{n}", "a", "witness", a,
                          _signature(diag), True, "planted pair"))
    hard = ((5, False), (3, True), (5, False), (4, True), (5, False), (3, False),
            (5, False), (5, True), (5, False), (5, False), (4, False), (5, False),
            (6, False), (5, False), (5, False))
    for k, (n, scrambled) in enumerate(hard):
        diag, x = _hidden_vector_diag(rng, n)
        s = (_unimodular(rng, n, 2) if scrambled
             else [[int(i == j) for j in range(n)] for i in range(n)])
        a = congruent([Fraction(d) for d in diag], s)
        why = f"hidden isotropic vector {x} of diag{tuple(diag)}"
        name = f"witness_{'scrambled' if scrambled else 'diagonal'}{k}_n{n}"
        cases.append(Case(name, "b", "witness", a, _signature(diag), True, why))
    for k, n in enumerate((3, 4, 3, 2, 3, 3, 4, 3)):
        diag, why = _anisotropic(rng, n)
        a = congruent(diag, _unimodular(rng, n, 2))
        cases.append(Case(f"witness_aniso{k}_n{n}", "c", "witness", a,
                          _signature(diag), False, why))
    return cases


WORKLOADS = {"symbolic": _symbolic, "dense": _dense, "witness": _witness}

KINDS = {
    "symbolic": {"a": "expand", "b": "certify n=5", "c": "certify n=6"},
    "dense": {"a": "classify", "b": "eval", "c": "probe"},
    "witness": {"a": "witness planted", "b": "witness hard",
                "c": "witness anisotropic"},
}


# Rounds per workload: each round is the fixed mix above with fresh draws.
# One pass over all rounds takes about 40 s at the seed, so a 30 s run never
# wraps around and always measures a prefix of the same mix.  Many distinct
# draws per kind keep the kind medians from resting on a few seeded inputs.
ROUNDS = {"symbolic": 5, "dense": 14, "witness": 9}


def generate(workload: str, seed: int, rounds: int | None = None) -> list[list[Case]]:
    """The workload's rounds of cases; the same seed gives the same cases."""
    rng = random.Random(f"{workload}:{seed}")
    build = WORKLOADS[workload]
    return [[replace(case, name=f"r{r}_{case.name}") for case in build(rng)]
            for r in range(ROUNDS[workload] if rounds is None else rounds)]


def schedule(rounds: list[list[Case]]) -> list[Case]:
    """All rounds in order, each in a fixed order that interleaves the kinds.

    Interleaving keeps a pass cut short by the clock close to the full mix.
    """
    order = []
    for cases in rounds:
        by_kind: dict[str, list[Case]] = {}
        for case in cases:
            by_kind.setdefault(case.kind, []).append(case)
        queues = [q for _, q in sorted(by_kind.items())]
        while any(queues):
            for q in queues:
                if q:
                    order.append(q.pop(0))
    return order
