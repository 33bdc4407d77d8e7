"""Run one benchmark workload against the dsvs sources in this checkout.

    python3 bench/run.py --workload relchain --seed 0 --seconds 35 --trace 0

The workload's inputs are generated from --seed into .bench_out/, the
program is imported from src/, and the run then

* times `import dsvs` plus `load_lexicon` in fresh interpreters (setup_s);
* with --trace 0, runs whole rounds of the workload for at least --seconds
  and reports the end-to-end metrics; the gated latencies are the median
  and the 90th percentile over a round's ops of each op's trimmed mean time
  across the rounds, scaled to a reference speed of the machine
  (speed_probe);
* with --trace 1, runs a fixed number of rounds untraced and then again
  with every public dsvs function wrapped (bench/spans.py), and reports the
  per-layer metrics and the tracing overhead;
* checks every output against the exact reference (bench/exact.py).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it name every metric with
its unit and sample count.  `failed` counts operations that raised, exited
non-zero or returned any root, score or ranking other than the reference's.
`correct` is false when a failure has any cause other than int64 wraparound
(the program's value equal to the exact one modulo 2**64), or when the
traced outputs differ from the untraced ones.
"""

from __future__ import annotations

import os

# the program's arithmetic is integer and never reaches BLAS; one thread per
# process keeps an idle BLAS pool from competing for a small machine's cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# fresh interpreters timed per run for setup_s and cli.import_ms
SETUP_REPEATS = 9
# fewest samples behind a gated latency, so p90 has ten beyond it
MIN_SAMPLES = 100
# statistics of the per-op typical latencies that BENCHMARK.json gates
GATED_STATS = ("p50", "p90")
# The shared host this benchmark was built on runs the same code up to 1.6x
# slower for minutes at a time, in CPU time as well as wall time, as other
# load on the machine comes and goes.  A run times speed_probe() every PROBE_EVERY_S
# between rounds, and the gated latencies are scaled by PROBE_REF_S over the
# run's trimmed mean probe time: milliseconds at the speed at which the probe
# takes PROBE_REF_S, about its time on that host under typical load.
PROBE_EVERY_S = 0.2
PROBE_REF_S = 0.005
# rounds replayed untraced and traced with --trace 1; fixed, so the work
# counts repeat exactly for a given seed
TRACE_ROUNDS = {"relchain": 8, "relchain-long": 2, "prefix": 6, "ambig": 2, "cli": 8}

SETUP_CODE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import dsvs\n"
    "dsvs.load_lexicon(sys.argv[1])\n"
    "print(time.perf_counter() - t)\n"
)
IMPORT_CLI_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import dsvs.cli\n"
    "print(time.perf_counter() - t)\n"
)


def fresh_times(code: str, repeats: int, *argv: str) -> list[float]:
    """The times fresh interpreters report for `code`, one per repeat."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        )
        times.append(float(proc.stdout))
    return times


def percentile(samples: list[float], q: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# checking


class Check:
    """Tallies operations against the exact reference."""

    def __init__(self, runner):
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.wrapped = 0
        self.unexplained: list[str] = []

    def item(self, item, outputs: list, raised: BaseException | None) -> None:
        expected = self.runner.expected(item)
        self.attempted += len(expected)
        for k, (kind, raw) in enumerate(expected):
            if k >= len(outputs):
                self.failed += 1
                self.unexplained.append(f"{kind}: raised {raised!r}")
                continue
            got_kind, got = outputs[k]
            if got_kind == kind and got == self.runner.finalize(kind, raw, False):
                continue
            self.failed += 1
            if got_kind == kind and got == self.runner.finalize(kind, raw, True):
                self.wrapped += 1
            else:
                self.unexplained.append(f"{kind} #{k} of {item!r}: got {got!r}")

    def items(self, done: list) -> None:
        for item, outputs, raised in done:
            self.item(item, outputs, raised)

    @property
    def correct(self) -> bool:
        return not self.unexplained


def run_items(runner, items, out_list) -> float:
    """Run items in order; returns the wall time.  Exceptions end an item."""
    t0 = perf_counter()
    for item in items:
        outputs: list = []
        raised = None
        try:
            runner.run(item, outputs)
        except Exception as e:  # an op that raises counts as failed
            raised = e
        out_list.append((item, outputs, raised))
    return perf_counter() - t0


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(runner, workload, seconds: float, check: Check) -> dict:
    """Whole rounds until `seconds` have passed and every gated latency has
    MIN_SAMPLES samples; e2e metrics.  Each round's outputs are checked as
    soon as the round ends, outside its timed calls, and then dropped, so
    memory does not grow with the number of rounds."""
    gc.collect()
    gc.freeze()
    t0 = perf_counter()
    k = 0
    rounds: list[dict[str, list[float]]] = []
    counts = {runner.primary: 0, runner.secondary: 0}
    probes = [speed_probe()]
    last_probe = perf_counter()
    # the sample floor may stretch a run, up to three times its length
    while perf_counter() - t0 < seconds or (
        min(counts.values()) < MIN_SAMPLES and perf_counter() - t0 < 3 * seconds
    ):
        runner.samples = {}
        done: list = []
        run_items(runner, workload.round(k), done)
        check.items(done)
        if perf_counter() - last_probe > PROBE_EVERY_S:
            probes.append(speed_probe())
            last_probe = perf_counter()
        rounds.append(runner.samples)
        for key in counts:
            counts[key] += len(runner.samples.get(key, ()))
        k += 1
    wall = perf_counter() - t0
    probes.append(speed_probe())
    rss = peak_rss_mb(children=workload.name == "cli")

    s: dict[str, list[float]] = {}
    for r in rounds:
        for key, values in r.items():
            s.setdefault(key, []).extend(values)
    (OUT / f"samples-{workload.name}-{workload.seed}.json").write_text(json.dumps(rounds))
    detail: dict[str, tuple[float, str, int]] = {}
    if runner.words:
        detail["words_per_s"] = (runner.words / sum(s["word"]), "1/s", runner.words)
    labels = {"word": "word", "rank": "rank", "expect": "expect", "cli": "cli", "main": "cli_main"}
    for key, label in labels.items():
        if key in s:
            for q in (50, 90):
                detail[f"{label}_ms_p{q}"] = (percentile(s[key], q) * 1e3, "ms", len(s[key]))
    detail["peak_rss_mb"] = (rss, "MB", 1)
    detail["rounds"] = (k, "count", k)
    probe = trimmed_mean(probes)
    detail["probe_ms"] = (probe * 1e3, "ms", len(probes))
    detail["wall_s"] = (wall, "s", 1)

    gated: dict[str, tuple[float, str]] = {"peak_rss_mb": (rss, "MB")}
    for role, key in (("primary", runner.primary), ("secondary", runner.secondary)):
        typical = typical_of_rounds(rounds, key)
        values = {
            "mean": statistics.fmean(typical),
            "p50": percentile(typical, 50),
            "p90": percentile(typical, 90),
        }
        for stat, value in values.items():
            name = f"{role}_ms_{stat}"
            at_ref = value * PROBE_REF_S / probe
            detail[name] = (at_ref * 1e3, "ms", len(typical))
            detail[f"{role}_raw_ms_{stat}"] = (value * 1e3, "ms", len(typical))
            if stat in GATED_STATS:
                gated[name] = (at_ref * 1e3, "ms")
    return {"gated": gated, "detail": detail}


def speed_probe() -> float:
    """Time a fixed piece of work in the style of the program's inner loops.

    Small int64 tensordots and dict and int arithmetic, none of it dsvs
    code, so no change to the program changes the work timed here.
    """
    a = np.arange(64, dtype=np.int64).reshape(8, 8)
    t0 = perf_counter()
    acc = 0
    for i in range(300):
        acc += int(np.tensordot(a, a[i % 8], axes=([1], [0]))[i % 8])
        acc += sum({j: j * i for j in range(24)}.values())
    return perf_counter() - t0


def trimmed_mean(times: list[float]) -> float:
    """The mean of `times` without their slowest tenth.

    On a host that switches between a fast and a slow state, a mean moves
    in proportion to the time spent in each, for the program's calls and the
    probe alike, so their quotient holds still; a median jumps from one
    state to the other.  Leaving out the slowest tenth drops lone stalls.
    """
    kept = sorted(times)[: max(1, len(times) - len(times) // 10)]
    return statistics.fmean(kept)


def typical_of_rounds(rounds: list[dict[str, list[float]]], key: str) -> list[float]:
    """Each op's trimmed mean time over the rounds, op by op in round order.

    Every round repeats the same op shapes, so op j costs the same work in
    each round.
    """
    n = max(len(r.get(key, ())) for r in rounds)
    return [
        trimmed_mean([r[key][j] for r in rounds if j < len(r.get(key, ()))])
        for j in range(n)
    ]


def traced(runner, workload, dsvs) -> tuple[dict, list]:
    """Fixed rounds untraced, then traced; per-layer metrics."""
    import spans

    items = [it for k in range(TRACE_ROUNDS[workload.name]) for it in workload.round(k)]
    run_items(runner, items[:1], [])  # warm-up, so neither pass pays first calls
    plain: list = []
    gc.collect()
    wall_plain = run_items(runner, items, plain)

    tracer = spans.Tracer()
    tracer.install(dsvs)
    try:
        for name, path in runner.paths.items():
            runner.lexicons[name] = dsvs.load_lexicon(path)
        traced_out: list = []
        gc.collect()
        t0 = perf_counter()
        for i, item in enumerate(items):
            tracer.op_id = i
            run_items(runner, [item], traced_out)
        wall_traced = perf_counter() - t0
    finally:
        tracer.uninstall()

    same = [p[1] for p in plain] == [t[1] for t in traced_out]
    metrics = spans.layer_metrics(spans.Spans(tracer))
    imports = fresh_times(IMPORT_CLI_CODE, SETUP_REPEATS)
    metrics["cli.import_ms"] = (statistics.median(imports) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "ratio")
    tracer.save(OUT / f"spans-{workload.name}-{workload.seed}.npz")
    return {"gated": metrics, "detail": {}, "same": same}, plain + traced_out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dsvs" / "__init__.py").is_file():
        print(f"bench: no dsvs sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import dsvs
    import dsvs.cli

    if Path(dsvs.__file__).resolve().parent != (src / "dsvs").resolve():
        print(f"bench: imported dsvs from {dsvs.__file__}, not {src}", file=sys.stderr)
        return 2

    import generate
    from workloads import RUNNERS

    if args.workload not in generate.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = generate.workload(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    paths = {}
    for name, doc in workload.lexicons.items():
        paths[name] = OUT / f"{args.workload}-{args.seed}-{name}.lexicon"
        paths[name].write_bytes(generate.lexicon_bytes(doc))

    kwargs = {"subprocesses": False} if args.trace and args.workload == "cli" else {}
    runner = RUNNERS[args.workload](dsvs, workload, paths, ROOT, **kwargs)

    check = Check(runner)
    if args.trace:
        result, done = traced(runner, workload, dsvs)
        check.items(done)
    else:
        # half the set-ups before the timed rounds and half after, so the
        # median spans the same stretch of machine time as the latencies
        lexicon = str(next(iter(paths.values())))
        setups = fresh_times(SETUP_CODE, SETUP_REPEATS // 2, lexicon)
        result = end_to_end(runner, workload, args.seconds, check)
        setups += fresh_times(SETUP_CODE, SETUP_REPEATS - len(setups), lexicon)
        setup_s = statistics.median(setups)
        result["gated"]["setup_s"] = (setup_s, "s")
        result["detail"]["setup_s"] = (setup_s, "s", len(setups))

    correct = check.correct and result.get("same", True)
    if check.attempted:
        result["detail"]["failed_ratio"] = (check.failed / check.attempted, "ratio", check.attempted)

    for name, (value, unit, n) in sorted(result["detail"].items()):
        print(f"{name:36s} {value:14.4f} {unit:6s} n={n}")
    if args.trace:
        for name, (value, unit) in sorted(result["gated"].items()):
            print(f"{name:36s} {value:14.4f} {unit}")
    if check.wrapped:
        print(f"{check.wrapped} of {check.failed} failed ops: int64 wraparound "
              f"(root equal to the exact value modulo 2**64)")
    for line in check.unexplained[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    if not result.get("same", True):
        print("FAILED traced outputs differ from untraced outputs", file=sys.stderr)

    line = {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in sorted(result["gated"].items())
        },
    }
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(line, indent=1) + "\n"
    )
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
