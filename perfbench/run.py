"""Run one benchmark workload against the package in ``src/`` and report it.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one caller: an operation starts when
the previous one returns.  Blocks of generated inputs run until ``--seconds``
have passed and at least MIN_OPS operations are done.  Every operation runs
under a wall-clock cap and its output is checked exactly (``checks.py``).
A FactorBoundExceededError that the check finds right for its input is a
refusal, not a failure: it counts in ``refused`` and in ``fail_share``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every
block twice on the same inputs, once plain and once with spans installed
(``tracing.py``), and reports per-layer metrics from the traced pass and the
tracing overhead from the pair.

Times are reported at a reference host speed: each is scaled by
calibration rounds run beside it (``speed.py``; the set-up children time
their own loop).  The raw times are in the result file.

Human-readable lines come first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record, with the git SHA, Python version and CPU count, goes to
``.perfbench_out/``.  A wrong result is reported as ``correct: false`` with
no timings, and the exit code is 1.
"""

from __future__ import annotations

import argparse
import array
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import checks, speed, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Wall-clock cap on one operation; over it, the operation is stopped and failed.
OP_CAP_S = 10.0
#: Fewest operations in a run, so at least 10 latency samples lie beyond p90.
MIN_OPS = 100
#: No operation starts after this many seconds, whatever the workload.
HARD_LIMIT_S = 120.0
#: Fresh interpreters timed for setup_s; the first, which may write
#: bytecode caches, is not counted.
SETUP_SPAWNS = 11
#: What each of them runs: a fixed loop that measures the child's own speed,
#: then the import being timed.
_SETUP_CHILD = """\
import time
t0 = time.perf_counter_ns()
n = 1234567891011121314151617181920212223
for p in range(3, 20001, 2):
    n % p
x = 1
for i in range(1, 20000):
    x = (x * 31 + i) % 1000003
t1 = time.perf_counter_ns()
import superelliptic.cli
print(t1 - t0, time.perf_counter_ns() - t1)
"""
#: Duration of that loop at the reference speed (see speed.py).
SETUP_ROUND_REF_NS = 5_000_000

#: Failures that are limits of the package, not wrong answers: they count in
#: ``failed`` but leave ``correct`` true.
KNOWN_FAILURES = ("FactorBoundExceededError", "OpTimeout")
#: Refusals at a limit the package states, which the check has found to be
#: right for the input.  They count in ``refused``, not in ``failed``, and
#: in ``fail_share``: the README says desk-scale inputs never hit them.
LIMIT_REFUSALS = ("FactorBoundExceededError",)

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_SELF_MS = (
    "curve.validate", "curve.classify_normal_form", "exact.squarefree_decompose",
    "dihedral.compute_invariants", "dihedral.leading_coefficients", "dihedral.reconstruct",
    "dihedral.roundtrip_verify", "dihedral.field_of_definition",
    "equations.parse_equation", "equations.render_equation", "cli.main", "poly.discriminant",
)
_CALLS = ("poly.discriminant", "exact.squarefree_decompose", "exact.is_perfect_square")
_CALLS_PER_OP = ("exact.squarefree_decompose", "dihedral.dihedral_discriminant")
_BUCKETS = ("deg_6-12", "deg_13-24", "deg_25-32")

PER_LAYER = {
    **{f"{name}.calls": "count" for name in _CALLS},
    **{f"{name}.calls_per_op": "calls/op" for name in _CALLS_PER_OP},
    **{f"{name}.self_ms": "ms/op" for name in _SELF_MS},
    **{f"poly.discriminant.self_ms.{bucket}": "ms/call" for bucket in _BUCKETS},
    "exact.squarefree_decompose.failed": "count",
    "exact.quadext.ops": "count",
    "setup.import_ms": "ms",
    "trace.ops": "count",
    "trace.overhead": "ratio",
}


class OpTimeout(BaseException):
    """Raised in the running operation when it passes OP_CAP_S.

    A BaseException, so the package's own ``except ValueError`` and
    ``except ArithmeticError`` handlers cannot swallow it.
    """


def _alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_CAP_S} s")


class Tally:
    """Outcomes and op times of one pass over the inputs."""

    def __init__(self):
        # arrays, so that the benchmark's own memory barely grows with the
        # op count and peak_rss_mb stays the package's
        self.latencies_ns = array.array("q")
        self.midpoints_ns = array.array("q")
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []

    def fail(self, kind: str, detail: str | None = None):
        self.failed += 1
        self.failures[kind] = self.failures.get(kind, 0) + 1
        if kind not in KNOWN_FAILURES and len(self.wrong) < 5:
            self.wrong.append(detail or kind)

    def scales(self, log: speed.SpeedLog | None) -> list[float]:
        """Per op, the factor to the reference host speed (1 without a log)."""
        return [log.scale(t) if log else 1.0 for t in self.midpoints_ns]

    def scaled_ms(self, log: speed.SpeedLog | None) -> list[float]:
        """Op times in ms at the reference host speed."""
        return [ns * k / 1e6 for ns, k in zip(self.latencies_ns, self.scales(log))]


def run_op(workload, api, case, state, tally: Tally) -> None:
    tally.attempted += 1
    outcome = None
    start = time.perf_counter_ns()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            outcome = workload.op(api, case)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        tally.fail("OpTimeout")
        return
    except Exception as exc:  # any other raise is a failed operation, and recorded
        tally.fail(type(exc).__name__, f"{type(exc).__name__}: {exc} on {case!r}"[:500])
        return
    finally:
        end = time.perf_counter_ns()
        tally.latencies_ns.append(end - start)
        tally.midpoints_ns.append((start + end) // 2)
    try:
        workload.check(case, outcome, state)
    except checks.Mismatch as exc:
        tally.fail("Mismatch", f"{exc} on {case!r}"[:500])
        return
    if isinstance(outcome, BaseException) and type(outcome).__name__ in LIMIT_REFUSALS:
        tally.refused += 1


def run(workload, api, seed: int, seconds: float, tracer=None):
    """Run blocks until time and MIN_OPS are met.

    Returns the plain and traced tallies and the calibration log.
    """
    plain, traced = Tally(), Tally()
    log = speed.SpeedLog(workload.calibration)
    state: dict = {}
    start = time.monotonic()
    index = 0
    while time.monotonic() - start < seconds or plain.attempted < MIN_OPS:
        block = workload.block(api, seed, index)
        passes = [(plain, None)]
        if tracer is not None:
            # same inputs twice; alternate which pass goes first
            passes.append((traced, tracer))
            if index % 2:
                passes.reverse()
        for tally, spans in passes:
            with spans or contextlib.nullcontext():
                for case in block:
                    if time.monotonic() - start > HARD_LIMIT_S:
                        break
                    if spans is not None:
                        spans.op = traced.attempted
                    run_op(workload, api, case, state, tally)
                    log.after_op(tally.latencies_ns[-1])
        index += 1
        if time.monotonic() - start > HARD_LIMIT_S:
            break
    log.calibrate()
    return plain, traced, log


def measure_setup(src: Path) -> dict:
    """Set-up time of fresh interpreters importing superelliptic.cli.

    Each child first times a fixed loop, to measure its own speed on
    whichever CPU it got, then the import.  Its set-up time is the wall time
    of the whole child less that loop; the scaled value multiplies that by
    SETUP_ROUND_REF_NS over the loop's time.  Returns medians over
    SETUP_SPAWNS children, raw and scaled, of set-up (s) and import (ms).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    samples = []
    for spawn in range(SETUP_SPAWNS + 1):
        start = time.perf_counter_ns()
        done = subprocess.run([sys.executable, "-c", _SETUP_CHILD], env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        wall = time.perf_counter_ns() - start
        round_ns, import_ns = map(int, done.stdout.split())
        if spawn:  # the first child may write bytecode caches
            scale = SETUP_ROUND_REF_NS / round_ns
            samples.append((wall - round_ns, import_ns, scale))
    return {
        "setup_s": statistics.median(w for w, _, _ in samples) / 1e9,
        "import_ms": statistics.median(i for _, i, _ in samples) / 1e6,
        "scaled_setup_s": statistics.median(w * k for w, _, k in samples) / 1e9,
        "scaled_import_ms": statistics.median(i * k for _, i, k in samples) / 1e6,
    }


def fail_share(tally: Tally) -> float:
    """Failed and refused operations over attempted ones."""
    return (tally.failed + tally.refused) / tally.attempted


def end_to_end(plain: Tally, log: speed.SpeedLog | None, setup_s: float, peak_rss_mb: float) -> dict:
    completed = plain.attempted - plain.failed - plain.refused
    lat_ms = plain.scaled_ms(log)
    return {
        "ops_per_s": completed / (sum(lat_ms) / 1000),
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer(tracer, plain: Tally, traced: Tally, log: speed.SpeedLog, import_ms: float):
    """Per-layer metrics from the traced pass, and the LayerTotals behind them."""
    totals = tracing.LayerTotals(tracer.spans, traced.scales(log))
    ops = max(traced.attempted, 1)
    values = {}
    for name in _CALLS:
        values[f"{name}.calls"] = totals.calls[name]
    for name in _CALLS_PER_OP:
        values[f"{name}.calls_per_op"] = totals.calls[name] / ops
    for name in _SELF_MS:
        values[f"{name}.self_ms"] = totals.self_ns[name] / 1e6 / ops
    for bucket in _BUCKETS:
        key = ("poly.discriminant", bucket)
        calls = totals.tag_calls[key]
        values[f"poly.discriminant.self_ms.{bucket}"] = totals.tag_self_ns[key] / 1e6 / calls if calls else 0.0
    values["exact.squarefree_decompose.failed"] = sum(
        count for (name, _), count in totals.errors.items() if name == "exact.squarefree_decompose"
    )
    values["exact.quadext.ops"] = tracer.quadext_ops
    values["setup.import_ms"] = import_ms
    values["trace.ops"] = traced.attempted
    values["trace.overhead"] = sum(traced.scaled_ms(log)) / sum(plain.scaled_ms(log)) - 1
    return values, totals


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _import_package(src: Path):
    if not (src / "superelliptic" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {src / 'superelliptic'}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import superelliptic
    import superelliptic.cli  # noqa: F401  (the cli workload calls it as superelliptic.cli.main)

    if Path(superelliptic.__file__).resolve().parent != (src / "superelliptic").resolve():
        raise SystemExit(f"error: imported superelliptic from {superelliptic.__file__}, not {src}")
    return superelliptic


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    api = _import_package(src)
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)

    setup = measure_setup(src)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, log = run(workload, api, args.seed, args.seconds, tracer)
    # taken before the metrics are computed, whose lists grow with the op count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tallies = (plain, traced) if tracer else (plain,)
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = [w for t in tallies for w in t.wrong]
    correct = not wrong

    if tracer:
        metrics, totals = per_layer(tracer, plain, traced, log, setup["scaled_import_ms"])
        units = PER_LAYER
    else:
        metrics, totals = end_to_end(plain, log, setup["scaled_setup_s"], peak_rss_mb), None
        units = END_TO_END
    raw = end_to_end(plain, None, setup["setup_s"], peak_rss_mb)
    op_scales = plain.scales(log)

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  op cap {OP_CAP_S} s  "
          f"host speed scale {statistics.median(op_scales):.3f} (times below are scaled; see speed.py)")
    print(f"  samples {plain.attempted} ops  failed {plain.failed} {plain.failures}  "
          f"refused at the factor bound {plain.refused}  fail_share {fail_share(plain):.4f}")
    for reason in wrong:
        print(f"  WRONG: {reason}")
    if correct:
        for name, value in metrics.items():
            print(f"  {name:<46} {value:>14.6g} {units[name]}")
    if tracer:
        if tracer.missing:
            print(f"  not traced (missing): {', '.join(tracer.missing)}")
        ops = max(traced.attempted, 1)
        print(f"  {'layer':<34} {'calls':>9} {'calls/op':>9} {'self ms/op':>11}")
        for name in sorted(totals.calls, key=lambda n: -totals.self_ns[n]):
            print(f"  {name:<34} {totals.calls[name]:>9} {totals.calls[name] / ops:>9.3f} "
                  f"{totals.self_ns[name] / 1e6 / ops:>11.4f}")

    record = {
        "workload": workload.name,
        "why": workload.why,
        "params": workload.params,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op_cap_s": OP_CAP_S,
        "git_sha": _git_sha(ROOT),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": plain.attempted,
        "failed": plain.failed,
        "refused": plain.refused,
        "fail_share": fail_share(plain),
        "failures_by_kind": plain.failures,
        "wrong": wrong,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        "unscaled_end_to_end": raw,
        "speed": {"round": workload.calibration.run.__name__, "ref_ns": workload.calibration.ref_ns,
                  "rounds": len(log.starts), "scale_median": statistics.median(op_scales)},
        "setup": setup,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if tracer:
        ops = max(traced.attempted, 1)
        record["layers"] = {
            name: {"calls": totals.calls[name], "calls_per_op": totals.calls[name] / ops,
                   "self_ms": totals.self_ns[name] / 1e6, "self_ms_per_op": totals.self_ns[name] / 1e6 / ops}
            for name in sorted(totals.calls)
        }
        spans = [list(span) for span in tracer.spans]
        (out_dir / f"{stem}-spans.json").write_text(
            json.dumps({"fields": list(tracing.Span._fields), "spans": spans}, separators=(",", ":"))
        )
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"] if correct else {},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
