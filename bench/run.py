"""Run one workload of the jpegkit benchmark and print its metrics.

    python3 bench/run.py --workload tradeoff-sweep --seed 1 --seconds 50 --trace 0

Run from anywhere; the program under test is ``src/jpegkit`` of the
checkout this file sits in. One client in one process runs the workload's
items one after another (a closed loop), with every BLAS thread pool
pinned to one thread. The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the run alternates untraced and traced rounds for ``--seconds``, replays
the inner stage functions, and reports the per-layer metrics. Each run also
writes a result file with the environment it ran in, and traced runs write
their spans, under ``bench/results/<workload>/`` (see ``--results``).
"""

from __future__ import annotations

import os

# Pin before numpy loads its BLAS.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy  # noqa: E402
from stats import median, percentile, tail_percentile  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    REPLAYED_CALLS,
    TIMED_CALLS,
    WORKLOADS,
    Jpegkit,
    digest,
    load_natural_image,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_RUNS = 9
MAX_REPORTED_FAILURES = 3


@dataclass
class Measurement:
    """One closed-loop pass of whole rounds."""

    latencies: list = field(default_factory=list)  # seconds per item
    round_walls: list = field(default_factory=list)  # seconds per round
    failed: int = 0
    failures: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def items_per_s(self) -> float:
        """Throughput of the median round. A burst of host load that slows
        fewer than half the rounds leaves the median round unchanged but
        moves the mean. A slowdown lasting the whole run moves both."""
        return self.attempted / len(self.round_walls) / median(self.round_walls)


def measure(workload, seconds: float, tracers: list, reference: dict) -> list:
    """Run whole rounds until ``seconds`` have passed, round k under
    ``tracers[k % len(tracers)]``; return one Measurement per tracer.
    Alternating rounds puts the traced and untraced rounds of a traced
    run under the same host conditions.

    An item fails when it raises, when its own checks fail, or when its
    outputs differ from those of the same item in the first round ever run
    (``reference``, filled in by that round)."""
    ms = [Measurement() for _ in tracers]
    n = len(workload.items)
    start = perf_counter()
    rounds = 0
    while True:
        m, tracer = ms[rounds % len(tracers)], tracers[rounds % len(tracers)]
        round_start = perf_counter()
        for idx, item in enumerate(workload.items):
            tracer.begin_item(rounds * n + idx)
            t0 = perf_counter()
            try:
                ok, out = workload.run_item(item, tracer)
            except Exception:  # noqa: BLE001 - a failing item is counted, the run goes on
                ok, out = False, None
                if len(m.failures) < MAX_REPORTED_FAILURES:
                    m.failures.append(traceback.format_exc())
            finally:
                m.latencies.append(perf_counter() - t0)
                tracer.end_item()
            if not ok or reference.setdefault(idx, out) != out:
                m.failed += 1
        m.round_walls.append(perf_counter() - round_start)
        rounds += 1
        if perf_counter() - start >= seconds and rounds >= len(tracers):
            break
    return ms


def git_sha(root: Path) -> str:
    """HEAD's commit read from the .git directory, or "unknown" outside a
    git checkout (no subprocess is started)."""
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
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(m: Measurement, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics and the tail percentile's provenance."""
    p = tail_percentile(m.attempted)
    p = 100.0 if p is None else p
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (m.items_per_s, "1/s"),
        "item_ms_p50": (median(m.latencies) * 1e3, "ms"),
        "item_ms_tail": (percentile(m.latencies, p) * 1e3, "ms"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    tail = {"percentile": p, "samples": m.attempted, "beyond": m.attempted * (100.0 - p) / 100.0}
    return metrics, tail


def per_layer(tracer, replays: dict, untraced: Measurement, traced: Measurement) -> dict:
    """Every per-layer metric; a layer the workload does not run reads 0.

    Counts and busy times are per traced round, so they describe one
    round's work and do not grow with the number of rounds that fit in the
    run."""
    durations = tracer.durations_by_name()
    rounds = len(traced.round_walls)
    out = {}

    def per_round(name):
        return tracer.counts[name] / rounds

    def busy(name):
        return sum(durations.get(name, ()))

    def ratio(num, den):
        return num / den if den else 0.0

    for name in TIMED_CALLS:
        ds = durations.get(name, [])
        out[f"{name}.calls"] = (len(ds) / rounds, "count")
        out[f"{name}.busy_s"] = (sum(ds) / rounds, "s")
        out[f"{name}.ms_p50"] = (median(ds) * 1e3 if ds else 0.0, "ms")
    for name in REPLAYED_CALLS:
        calls_per_pass, ts = replays.get(name, (0, []))
        out[f"replay.{name}.calls"] = (calls_per_pass, "count")
        out[f"replay.{name}.busy_s"] = (ratio(sum(ts), len(ts)) * calls_per_pass, "s")
        out[f"replay.{name}.ms_p50"] = (median(ts) * 1e3 if ts else 0.0, "ms")

    out["jfif.bytes"] = (per_round("jfif.parsed_bytes"), "B")
    out["jfif.nonzero_coefs"] = (per_round("jfif.nonzero_coefs"), "count")
    out["jfif.write_jfif.ns_per_byte"] = (
        ratio(busy("jfif.write_jfif") * 1e9, tracer.counts["jfif.written_bytes"]), "ns/B")
    out["jfif.parse_jfif.ns_per_byte"] = (
        ratio(busy("jfif.parse_jfif") * 1e9, tracer.counts["jfif.parsed_bytes"]), "ns/B")
    out["codec.blocks"] = (per_round("codec.blocks"), "count")
    encode_s = busy("codec.compress") + busy("jfif.write_jfif")
    decode_s = busy("jfif.parse_jfif") + busy("codec.decompress")
    out["encode_mpix_per_s"] = (ratio(tracer.counts["pixels.encoded"] / 1e6, encode_s), "Mpix/s")
    out["decode_mpix_per_s"] = (ratio(tracer.counts["pixels.decoded"] / 1e6, decode_s), "Mpix/s")
    out["restorer.seed_steps"] = (per_round("restorer.seed_steps"), "count")
    out["restorer.us_per_seed_step"] = (
        ratio(busy("restorer.restore_with_history") * 1e6, tracer.counts["restorer.seed_steps"]), "us")
    out["restorer.diverged_frac"] = (
        ratio(tracer.counts["restorer.diverged"], tracer.counts["restorer.runs"]), "fraction")
    out["projection.consistent_frac"] = (
        ratio(tracer.counts["projection.consistent"], tracer.counts["projection.attempted"]), "fraction")
    out["metrics.singular_cov_warnings"] = (per_round("metrics.singular_cov_warnings"), "count")
    out["toy.states"] = (per_round("toy.states"), "count")
    out["toy.observations"] = (per_round("toy.observations"), "count")

    self_times = tracer.item_self_times()
    out["item.self_ms_p50"] = (median(self_times) * 1e3, "ms")
    out["trace.items_per_s_untraced"] = (untraced.items_per_s, "1/s")
    out["trace.items_per_s_traced"] = (traced.items_per_s, "1/s")
    out["trace.overhead_frac"] = (1.0 - traced.items_per_s / untraced.items_per_s, "fraction")
    return out


def program_missing() -> str | None:
    for rel in ("src/jpegkit/__init__.py", "tests/conftest.py"):
        if not (ROOT / rel).is_file():
            return f"{rel} not found under {ROOT}: run the benchmark from a jpegkit checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", type=Path, default=BENCH_DIR / "results",
                        help="directory for result files (default: bench/results)")
    args = parser.parse_args(argv)

    missing = program_missing()
    if missing:
        print(f"error: {missing}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Set-up: fresh jpegkit imports, fixture generation, untimed warm-up.
    # The last set-up's workload is the one measured; each earlier one is
    # freed before the next is built, so peak RSS holds one corpus at a time.
    setup_runs = []
    workload = None
    for _ in range(SETUP_RUNS):
        workload = None
        gc.collect()
        t0 = perf_counter()
        jk = Jpegkit()
        workload = WORKLOADS[args.workload](jk, load_natural_image(ROOT, jk), args.seed)
        for item in workload.warm_up_items():
            workload.run_item(item, NullTracer())
        setup_runs.append(perf_counter() - t0)
    src = (ROOT / "src").resolve()
    if src not in Path(jk.codec.__file__).resolve().parents:
        print(f"error: imported jpegkit from {jk.codec.__file__}, not {src}", file=sys.stderr)
        return 2
    setup_s = median(setup_runs)
    setup_rss_mib = peak_rss_mib()

    # A traced run alternates untraced and traced rounds, so it takes as
    # long as an untraced run and both halves see the same host conditions.
    tracers = [NullTracer(), Tracer()] if args.trace else [NullTracer()]
    reference = {}
    runs = measure(workload, args.seconds, tracers, reference)
    untraced = runs[0]
    metrics, tail = end_to_end(untraced, setup_s)
    outdir = args.results / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    extra = {}
    if args.trace:
        tracer, traced = tracers[1], runs[1]
        replays = workload.replay()
        traced_e2e, traced_tail = end_to_end(traced, setup_s)
        extra["untraced_metrics"] = {k: v for k, (v, _) in metrics.items()}
        extra["traced_metrics"] = {k: v for k, (v, _) in traced_e2e.items()}
        extra["traced_tail"] = traced_tail
        metrics = per_layer(tracer, replays, untraced, traced)
        spans_path = outdir / f"seed{args.seed}-spans.jsonl"
        tracer.write_jsonl(spans_path)
        extra["spans_file"] = str(spans_path)

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    output_digest = digest(*[reference[k] for k in sorted(reference)])
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(args.seed),
        "setup_runs_s": setup_runs,
        "peak_rss_after_setup_mib": setup_rss_mib,
        "round_walls_s": [r.round_walls for r in runs],
        "item_latencies_s": [r.latencies for r in runs],
        "items_per_round": len(workload.items),
        "tail": tail,
        "failed_frac": failed / attempted,
        "corpus_digest": workload.corpus_digest(),
        "output_digest": output_digest,
        "failures": [f for r in runs for f in r.failures],
        **extra,
        "result": result,
    }
    result_path = outdir / f"seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n")

    for failure in record["failures"]:
        print(failure, file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} items, {failed} failed, "
          f"tail p{tail['percentile']:g} over {tail['samples']} items")
    print(f"corpus_digest {record['corpus_digest']}")
    print(f"output_digest {output_digest}")
    print(f"result_file {result_path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
