"""skewchar benchmark: a closed loop of in-process CLI calls on seeded inputs.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0

One client issues one operation at a time: skewchar.cli.main(argv) on an
input file written during set-up, with stdout and stderr captured.  The
exit code and output of every operation are checked after the clock stops,
against reference values the benchmark computes itself (check.py).

Every time in the end-to-end metrics is scaled to a nominal machine speed:
a fixed reference computation of the benchmark's own (pace.py) is timed
next to the operations, and each latency is multiplied by the nominal
reference time over the measured one.  The shared machine drifts in speed by
up to 1.8x between minutes; the scaled latency does not follow it.  Raw
medians are printed for comparison.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes over the workload and reports per-layer metrics from the
traced ones (spans.py), plus the tracing overhead.  The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import gen  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 15

# A reference is taken after the first operation that ends this long after
# the previous reference, so each operation is scaled by references at most
# a few tenths of a second (or one long operation) away.
REFERENCE_EVERY_S = 0.4

# op_tail_ms is this percentile of all operation latencies in the run.  Each
# falls inside a group of equal-cost operations rather than on the step
# between two groups, where a change of one sample would move it by the size
# of the step: certify n=6 on symbolic, classify n=18 and probe n=14 on
# dense, hard witness forms at n=5 on witness.  The run prints how many
# samples lie beyond it.
TAIL_PERCENTILE = {"symbolic": 84, "dense": 80, "witness": 90}

LAYER_METRICS = [
    # (metric, span name, field, unit)
    ("polynomials.mul_calls", "polynomials.mul", "calls", "count"),
    ("polynomials.mul_term_pairs", "polynomials.mul", "value", "count"),
    ("polynomials.mul_s", "polynomials.mul", "self_s", "s"),
    ("polynomials.add_s", "polynomials.add", "self_s", "s"),
    ("polynomials.divexact_calls", "polynomials.divexact", "calls", "count"),
    ("polynomials.divexact_s", "polynomials.divexact", "self_s", "s"),
    ("polynomials.evaluate_s", "polynomials.evaluate", "self_s", "s"),
    ("polynomials.format_s", "polynomials.format", "self_s", "s"),
    ("engine.det_symbolic_s", "engine.det_symbolic", "self_s", "s"),
    ("engine.expand_s", "engine.expand", "self_s", "s"),
    ("engine.result_terms", "engine.expand", "value", "count"),
    ("engine.certify_s", "engine.certify", "self_s", "s"),
    ("engine.certify_terms", "engine.certify", "value", "count"),
    ("engine.eval_calls", "engine.eval", "calls", "count"),
    ("engine.eval_s", "engine.eval", "self_s", "s"),
    ("matrices.diagonalize_calls", "matrices.diagonalize", "calls", "count"),
    ("matrices.diagonalize_s", "matrices.diagonalize", "self_s", "s"),
    ("matrices.signature_s", "matrices.signature", "self_s", "s"),
    ("matrices.det_calls", "matrices.det", "calls", "count"),
    ("matrices.det_s", "matrices.det", "self_s", "s"),
    ("matrices.congruence_s", "matrices.congruence", "self_s", "s"),
    ("matrices.parse_s", "matrices.parse", "self_s", "s"),
    ("analyzer.classify_s", "analyzer.classify", "self_s", "s"),
    ("analyzer.witness_s", "analyzer.witness", "self_s", "s"),
    ("analyzer.probe_s", "analyzer.probe", "self_s", "s"),
    ("analyzer.refusals", "analyzer.witness", "failed", "count"),
    ("cli.main_s", "cli.main", "self_s", "s"),
]


class Op(NamedTuple):
    """One scheduled CLI call: the case and the argv that runs it."""

    case: gen.Case
    argv: list[str]


def load_program(root: Path):
    """Import skewchar.cli from root/src, refusing any other copy."""
    src = root / "src"
    if not (src / "skewchar" / "__init__.py").is_file():
        raise SystemExit(f"error: no skewchar sources under {src}")
    sys.path.insert(0, str(src))
    import skewchar.cli

    if not Path(skewchar.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: imported skewchar from {skewchar.cli.__file__}")
    return skewchar.cli


def write_inputs(cases: list[gen.Case], directory: Path) -> list[Op]:
    """Write each case's input files; one Op per case, in the given order."""
    ops = []
    for case in cases:
        path = directory / f"{case.name}.txt"
        path.write_text(case.matrix_text(), encoding="utf-8")
        argv = [case.command, str(path)]
        if case.command == "eval":
            skew = directory / f"{case.name}.skew"
            skew.write_text(case.skew_text(), encoding="utf-8")
            argv.append(str(skew))
        ops.append(Op(case, argv + list(case.args)))
    return ops


def cold_start_s(root: Path, directory: Path) -> float:
    """Median scaled time of a fresh `python -m skewchar classify` on a 2x2 form.

    This is the program's own set-up: interpreter start, imports and any
    work done on first use.  Input generation is the benchmark's and is
    reported separately.  Each start is scaled by references taken just
    before and just after it.
    """
    form = directory / "cold_start.txt"
    form.write_text("2\n2 1\n1 2\n", encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = pace.reference_s()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "skewchar", "classify", str(form)],
                       env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)
        seconds = time.perf_counter() - start
        raw.append(seconds)
        scaled.append(seconds * pace.scale(before, pace.reference_s()))
    print(f"cold start: {statistics.median(raw):.4f} s raw, "
          f"{statistics.median(scaled):.4f} s scaled")
    return statistics.median(scaled)


def call(cli, argv: list[str]) -> tuple[float, object, str, str]:
    """One timed operation: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # an escaped exception is a failed operation
        rc = f"exception {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return elapsed, rc, out.getvalue(), err.getvalue()


class Sample(NamedTuple):
    """The latency of one timed operation, as measured and scaled."""

    case: gen.Case
    raw_s: float
    scaled_s: float


class Results:
    """Latencies of timed operations and the verdict on every output."""

    def __init__(self) -> None:
        self.samples: list[Sample] = []
        self.attempted = 0
        self.failed = 0
        self.refusals = 0
        self.reasons: dict[str, str] = {}
        self._verdicts: dict[tuple, str | None] = {}
        self._pending: list[tuple] = []

    def add(self, case: gen.Case, rc, out: str, err: str) -> None:
        """An operation's output, to be checked by verify()."""
        self.attempted += 1
        self._pending.append((case, rc, out, err))

    def verify(self) -> None:
        """Check every pending output; identical outputs are checked once."""
        for case, rc, out, err in self._pending:
            key = (case.name, rc, out, err)
            if key not in self._verdicts:
                self._verdicts[key] = check.check(case, rc, out, err)
            reason = self._verdicts[key]
            if reason is not None:
                self.failed += 1
                self.reasons.setdefault(case.name, reason)
            elif check.is_refusal(case, rc, out, err):
                self.refusals += 1
        self._pending.clear()


def warm_up(cli, ops: list[Op], results: Results) -> None:
    """The first operation of each kind and the reference once, untimed.

    The outputs of these operations are checked like any other.
    """
    first = {}
    for op in ops:
        first.setdefault(op.case.kind, op)
    for op in first.values():
        _, rc, out, err = call(cli, op.argv)
        results.add(op.case, rc, out, err)
    pace.reference_s()


def closed_loop(cli, ops: list[Op], seconds: float, results: Results) -> None:
    """Issue operations in schedule order until `seconds` have passed.

    The operation running at the deadline completes and is recorded.  A
    reference is taken before the first operation, after every operation
    that ends REFERENCE_EVERY_S or more after the last reference, and after
    the last operation; the operations between two references are scaled by
    their mean.
    """
    deadline = time.perf_counter() + seconds
    before = pace.reference_s()
    last = time.perf_counter()
    window: list[tuple[gen.Case, float]] = []
    k = 0
    while True:
        op = ops[k % len(ops)]
        elapsed, rc, out, err = call(cli, op.argv)
        results.add(op.case, rc, out, err)
        window.append((op.case, elapsed))
        k += 1
        now = time.perf_counter()
        if now >= deadline or now - last >= REFERENCE_EVERY_S:
            after = pace.reference_s()
            factor = pace.scale(before, after)
            results.samples.extend(Sample(case, s, s * factor) for case, s in window)
            window.clear()
            before, last = after, time.perf_counter()
            if now >= deadline:
                return


def run_pass(cli, ops: list[Op], results: Results, tracer: spans.Tracer | None = None) -> float:
    """Every operation once, in order; returns the wall time of the pass."""
    start = time.perf_counter()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op = k
        _, rc, out, err = call(cli, op.argv)
        results.add(op.case, rc, out, err)
    return time.perf_counter() - start


def traced_pass(cli, ops: list[Op], results: Results) -> tuple[float, spans.Tracer]:
    tracer = spans.Tracer()
    tracer.install()
    try:
        seconds = run_pass(cli, ops, results, tracer)
    finally:
        tracer.uninstall()
    return seconds, tracer


def layer_metrics(tracer: spans.Tracer, ops: list[Op]) -> dict[str, float]:
    """Per-layer values of one traced pass."""
    summary = spans.summarize(tracer.spans)
    empty = {"calls": 0, "self_s": 0.0, "failed": 0, "value": 0}
    values = {metric: summary.get(span, empty)[field]
              for metric, span, field, _ in LAYER_METRICS}
    witness_ops = {k for k, op in enumerate(ops) if op.case.command == "witness"}
    diag = spans.summarize(tracer.spans, witness_ops).get("matrices.diagonalize", empty)
    values["analyzer.diagonalize_per_witness"] = (
        diag["calls"] / len(witness_ops) if witness_ops else 0)
    return values


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def end_to_end(workload: str, ops: list[Op], round_size: int, seconds: float,
               setup_s: float, cli) -> tuple[Results, dict[str, tuple[float, str]]]:
    results = Results()
    warm_up(cli, ops, results)
    closed_loop(cli, ops, seconds, results)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    results.verify()
    latencies = [s.scaled_s for s in results.samples]
    raw_total = sum(s.raw_s for s in results.samples)
    print(f"{len(latencies)} timed ops: {len(latencies) / raw_total:.4f} ops/s raw, "
          f"speed factor {raw_total / sum(latencies):.4f} of nominal")
    # One client, so the rate is the number of operations over their total
    # time.  It is taken over the complete rounds only: a round holds a few
    # operations that take a large share of its time, and whether the clock
    # stops before or after one of them would swing the rate.
    whole = len(latencies) // round_size * round_size or len(latencies)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (whole / sum(latencies[:whole]), "1/s"),
    }
    for kind, label in gen.KINDS[workload].items():
        scaled = [s.scaled_s * 1000 for s in results.samples if s.case.kind == kind]
        raw = [s.raw_s * 1000 for s in results.samples if s.case.kind == kind]
        p50 = statistics.median(scaled) if scaled else 0.0
        metrics[f"kind_{kind}_p50_ms"] = (p50, "ms")
        print(f"kind {kind} ({label}): p50 {p50:.3f} ms scaled, "
              f"{statistics.median(raw) if raw else 0.0:.3f} ms raw, over {len(raw)} ops")
    p = TAIL_PERCENTILE[workload]
    tail = percentile(latencies, p) * 1000
    beyond = sum(1 for s in latencies if s * 1000 > tail)
    print(f"op_tail_ms is p{p}: {tail:.3f} ms, {beyond} of {len(latencies)} ops beyond it")
    metrics["op_tail_ms"] = (tail, "ms")
    metrics["ok_share"] = ((results.attempted - results.failed) / results.attempted, "share")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return results, metrics


def write_trace(tracer: spans.Tracer, ops: list[Op], path: Path) -> None:
    """Per-operation calls and self times of one traced pass, as JSON."""
    rows = []
    for k, op in enumerate(ops):
        layers = spans.summarize(tracer.spans, {k})
        rows.append({"op": k, "case": op.case.name, "command": op.case.command,
                     "layers": {name: {"calls": rec["calls"], "self_s": rec["self_s"]}
                                for name, rec in sorted(layers.items())}})
    path.write_text(json.dumps(rows, indent=1) + "\n", encoding="utf-8")


def traced(ops: list[Op], seconds: float, cli,
           out_path: Path) -> tuple[Results, dict[str, tuple[float, str]]]:
    """Alternate untraced and traced passes while another pair fits in `seconds`.

    The spans of the last traced pass are written to out_path.
    """
    results = Results()
    plain_times, traced_times, passes = [], [], []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        plain_times.append(run_pass(cli, ops, results))
        seconds_traced, tracer = traced_pass(cli, ops, results)
        traced_times.append(seconds_traced)
        passes.append(layer_metrics(tracer, ops))
        results.verify()
        pair = time.perf_counter() - pair_start
        if time.perf_counter() - start + pair > seconds:
            break
    if tracer.missing:
        print("not in the program, reported as 0:", ", ".join(tracer.missing))
    write_trace(tracer, ops, out_path)
    units = {metric: unit for metric, _, _, unit in LAYER_METRICS}
    units["analyzer.diagonalize_per_witness"] = "1/op"
    metrics = {}
    for name, unit in units.items():
        if unit == "s":
            value = statistics.median(p[name] for p in passes)
        else:
            value = passes[0][name]
            if any(p[name] != value for p in passes):
                print(f"warning: {name} differs between traced passes")
        metrics[name] = (value, unit)
    plain, traced_s = statistics.median(plain_times), statistics.median(traced_times)
    metrics["trace.ops_per_s"] = (len(ops) / traced_s, "1/s")
    metrics["trace.overhead_x"] = (traced_s / plain, "x")
    print(f"{len(passes)} traced passes of {len(ops)} ops: {traced_s:.3f} s traced, "
          f"{plain:.3f} s untraced")
    return results, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    cli = load_program(root)
    work = root / ".perfbench"
    work.mkdir(exist_ok=True)
    directory = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work))
    try:
        start = time.perf_counter()
        rounds = gen.generate(args.workload, args.seed)
        ops = write_inputs(gen.schedule(rounds), directory)
        print(f"{len(rounds)} rounds, {len(ops)} inputs generated in "
              f"{time.perf_counter() - start:.3f} s")
        if args.trace:
            out_path = work / f"trace-{args.workload}-{args.seed}.json"
            # A traced pass covers the first round, so its counts are exact.
            results, metrics = traced(ops[:len(rounds[0])], args.seconds, cli, out_path)
        else:
            setup_s = cold_start_s(root, directory)
            results, metrics = end_to_end(args.workload, ops, len(rounds[0]), args.seconds,
                                          setup_s, cli)
    finally:
        shutil.rmtree(directory)

    print(f"anisotropic refusals counted as correct: {results.refusals}")
    for name, reason in sorted(results.reasons.items()):
        print(f"FAILED {name}: {reason}")
    report = {
        "correct": results.failed == 0,
        "attempted": results.attempted,
        "failed": results.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
