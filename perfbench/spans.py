"""Per-layer spans recorded from outside the program under test.

Tracer.install wraps the public functions and methods listed in TARGETS.  A
module-level function is replaced in every skewchar namespace that bound it
(engine.lagrange_diagonalize and analyzer.lagrange_diagonalize are the same
object as matrices.lagrange_diagonalize), and a method under every class
attribute that holds it (MultiPoly.__rmul__ is MultiPoly.__mul__); wrapping
only the defining module would silently miss calls.  A target missing from
the program is skipped and its metrics read 0.

Spans are kept in memory as (op, span, parent, name, start, end, failed,
value) and turned into per-name call counts, self times and value sums by
summarize().
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _term_pairs(args, result) -> int:
    a, b = args[0], args[1]
    return len(a) * (len(b) if isinstance(b, type(a)) else 1)


def _result_terms(args, result) -> int:
    return len(result)


def _certify_terms(args, result) -> int:
    return sum(len(root) for _, root in result.terms)


# (module, attribute path, span name, value recorded on the span or None)
TARGETS = (
    ("polynomials", "MultiPoly.__mul__", "polynomials.mul", _term_pairs),
    ("polynomials", "MultiPoly.__add__", "polynomials.add", None),
    ("polynomials", "MultiPoly.__sub__", "polynomials.add", None),
    ("polynomials", "MultiPoly.__rsub__", "polynomials.add", None),
    ("polynomials", "MultiPoly.__neg__", "polynomials.add", None),
    ("polynomials", "MultiPoly.divexact", "polynomials.divexact", None),
    ("polynomials", "MultiPoly.evaluate", "polynomials.evaluate", None),
    ("polynomials", "MultiPoly.__str__", "polynomials.format", None),
    ("matrices", "lagrange_diagonalize", "matrices.diagonalize", None),
    ("matrices", "signature", "matrices.signature", None),
    ("matrices", "det_rational", "matrices.det", None),
    ("matrices", "congruence_sym", "matrices.congruence", None),
    ("matrices", "congruence_skew", "matrices.congruence", None),
    ("matrices", "SymmetricMatrix.from_text", "matrices.parse", None),
    ("matrices", "SkewMatrix.from_text", "matrices.parse", None),
    ("engine", "det_symbolic", "engine.det_symbolic", None),
    ("engine", "expand_skewchar", "engine.expand", _result_terms),
    ("engine", "certify_positive", "engine.certify", _certify_terms),
    ("engine", "eval_skewchar", "engine.eval", None),
    ("analyzer", "classify", "analyzer.classify", None),
    ("analyzer", "witness_indefinite", "analyzer.witness", None),
    ("analyzer", "sign_probe", "analyzer.probe", None),
    ("cli", "main", "cli.main", None),
)


class Tracer:
    """Installs span wrappers into skewchar and collects their spans."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op = 0
        self.missing: list[str] = []
        self._stack: list[int] = [0]
        self._next_id = 1
        self._patches: list[tuple] = []

    def _wrap(self, fn, name: str, value_of):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            failed = True
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                end = clock()
                stack.pop()
                if not failed and value_of is not None and result is not NotImplemented:
                    try:
                        value = value_of(args, result)
                    except (TypeError, AttributeError, ValueError):
                        pass  # a changed return type leaves the value at 0
                spans.append((self.op, sid, parent, name, start, end, failed, value))
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target; call uninstall() to restore the originals."""
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "skewchar" or key.startswith("skewchar.")]
        for module_name, path, name, value_of in TARGETS:
            module = sys.modules.get(f"skewchar.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(raw.__func__, name, value_of))
                self._patch_class(owner, raw, wrapper)
            elif owner_name:
                self._patch_class(owner, raw, self._wrap(raw, name, value_of))
            else:
                wrapper = self._wrap(raw, name, value_of)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is raw:
                            self._patch(ns, key, wrapper)

    def _patch_class(self, cls, raw, wrapper) -> None:
        for key, val in list(vars(cls).items()):
            if val is raw:
                self._patch(cls, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)


def summarize(spans, ops=None) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time (s), failed calls and summed value.

    Self time is a span's duration minus the durations of its direct
    children.  With ops given, only spans of those operation ids count.
    """
    child_time: dict[int, float] = defaultdict(float)
    for op, sid, parent, name, start, end, failed, value in spans:
        child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "failed": 0, "value": 0})
    for op, sid, parent, name, start, end, failed, value in spans:
        if ops is not None and op not in ops:
            continue
        rec = out[name]
        rec["calls"] += 1
        rec["self_s"] += (end - start) - child_time[sid]
        rec["failed"] += failed
        rec["value"] += value
    return dict(out)
