"""Benchmark of the ``hog`` command line, one workload per process.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each operation is one call of ``hog.cli.main([...])`` with stdout captured,
so it includes parsing, the solver, the solver's certification and the JSON
report. Operations run back to back (a closed loop with one client) in whole
passes over the workload's seeded corpus until ``--seconds`` have passed.
Every output is checked independently (see checks.py); an operation whose
check fails counts as failed.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced run
(see tracing.py). Inputs, results and traces are written under perfbench/out/.
"""

import os

# Each workload is one single-threaded process: pin the BLAS and OpenMP pools
# before numpy is first imported, here or in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is measured in this many fresh processes and reported as the median.
SETUP_PROBES = 5
# Every run makes at least this many passes, so each operation's time is a
# median of at least three samples.
MIN_PASSES = 3
# The host's speed drifts by 10-25 % over seconds (a fixed pure-Python loop
# ran 28-36 ms in 5 s windows of one minute on the 2-core reference machine).
# A yardstick loop is timed between operations, and each operation's time is
# scaled to the speed at which the loop takes REFERENCE_S.
REFERENCE_LOOPS = 80_000
REFERENCE_S = 0.010
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "games_per_s": "1/s",
    "op_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "equilibria_found": "count",
}


@dataclass
class Pass:
    """One timed pass over the corpus."""

    times: list = field(default_factory=list)
    # Yardstick seconds around each operation: (before + after) / 2.
    yardstick: list = field(default_factory=list)
    games: int = 0
    found: int = 0
    failed: int = 0

    @property
    def scaled(self) -> list[float]:
        """Operation times at the reference speed."""
        return [t * REFERENCE_S / y for t, y in zip(self.times, self.yardstick)]


def _verdict(op, rc: int, stdout: str) -> tuple[list[str], int]:
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return [f"exit code {rc}, output is not JSON"], 0
    return op.check(report, rc)


def yardstick_s() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed."""
    start = perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        acc += (i % 7) * 0.5
    return perf_counter() - start


def run_pass(cli, corpus) -> Pass:
    gc.collect()
    result = Pass()
    before = yardstick_s()
    for op in corpus:
        buf = io.StringIO()
        start = perf_counter()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(op.argv)
        result.times.append(perf_counter() - start)
        after = yardstick_s()
        result.yardstick.append((before + after) / 2)
        before = after
        errors, found = _verdict(op, rc, buf.getvalue())
        if errors:
            result.failed += 1
            print(f"check failed: {' '.join(op.argv)}: {'; '.join(errors)}",
                  file=sys.stderr)
        result.games += op.games
        result.found += found
    return result


def run_passes(cli, corpus, seconds: float) -> list[Pass]:
    """Whole passes until ``seconds`` have elapsed and MIN_PASSES are done."""
    start = perf_counter()
    passes = []
    while len(passes) < MIN_PASSES or perf_counter() - start < seconds:
        passes.append(run_pass(cli, corpus))
    return passes


def probe_setup(warmup: list[str]) -> float:
    """Seconds from starting a fresh interpreter until it has imported hog
    and finished one warm-up operation."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(SRC), *warmup]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {line.strip()!r}")
    return elapsed


def _import_and_warm(warmup: list[str]):
    sys.path.insert(0, str(SRC))
    import hog.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(warmup)
    if rc != 0:
        raise RuntimeError(f"warm-up operation exited {rc}")
    return cli


def timed_run(corpus, warmup, seconds: float) -> tuple[dict, dict]:
    setup = [probe_setup(warmup) for _ in range(SETUP_PROBES)]
    cli = _import_and_warm(warmup)
    passes = run_passes(cli, corpus, seconds)
    scaled = [p.scaled for p in passes]
    # A pass's robust time: each operation's median over the passes, summed.
    # Host noise that slows or speeds a few passes then moves no operation.
    pass_s = sum(statistics.median(s[i] for s in scaled) for i in range(len(corpus)))
    metrics = {
        "setup_s": statistics.median(setup),
        "games_per_s": passes[0].games / pass_s,
        "op_p50_ms": 1e3 * statistics.median(t for s in scaled for t in s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "equilibria_found": min(p.found for p in passes),
    }
    detail = {"setup_samples_s": setup,
              "pass_s": [sum(p.times) for p in passes],
              "op_times_s": [p.times for p in passes],
              "yardstick_s": [p.yardstick for p in passes]}
    result = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
              for name, value in metrics.items()}
    return result, {"passes": passes, "detail": detail}


def traced_run(corpus, warmup, seconds: float, trace_path: Path) -> tuple[dict, dict]:
    """Untraced and traced passes alternate, so the tracing overhead compares
    passes made under the same conditions."""
    from tracing import Tracer, metric_specs

    cli = _import_and_warm(warmup)
    tracer = Tracer()
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced.append(run_pass(cli, corpus))
        tracer.install()
        try:
            traced.append(run_pass(cli, corpus))
        finally:
            tracer.uninstall()
    untraced_s = statistics.median(sum(p.scaled) for p in untraced)
    traced_s = statistics.median(sum(p.scaled) for p in traced)
    values = tracer.metrics(len(traced))
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    tracer.write(trace_path)
    result = {name: {"value": values[name], "unit": unit}
              for name, unit, _ in metric_specs()}
    detail = {"untraced_pass_s": [sum(p.times) for p in untraced],
              "traced_pass_s": [sum(p.times) for p in traced],
              "accounted_ms": 1e3 * tracer.accounted_s() / len(traced)}
    return result, {"passes": untraced + traced, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hog" / "cli.py").is_file():
        print(f"error: no hog sources under {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = OUT / f"{args.workload}-{args.seed}"
    workdir.mkdir(parents=True, exist_ok=True)
    make_corpus, make_warmup = WORKLOADS[args.workload]
    corpus = make_corpus(args.seed, workdir)
    warmup = make_warmup(workdir)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        metrics, run = traced_run(corpus, warmup, args.seconds,
                                  OUT / f"trace-{args.workload}-seed{args.seed}.json")
    else:
        metrics, run = timed_run(corpus, warmup, args.seconds)
    passes = run["passes"]
    failed = sum(p.failed for p in passes)
    result = {
        "correct": failed == 0,
        "attempted": len(corpus) * len(passes),
        "failed": failed,
        "metrics": metrics,
    }
    (OUT / f"result-{stem}.json").write_text(
        json.dumps({**result, "detail": run["detail"]}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
