"""thinset benchmark: one seeded workload, timed end to end or per layer.

    python3 perfbench/run.py --workload verdicts --seed 1 --seconds 25 --trace 0

The workload's fixed operation list (see gen.py) runs in passes, one client
in one thread, each operation starting when the previous one ends.  Each
pass runs on freshly parsed inputs and in a seeded order.  The number of
passes depends only on the workload and --seconds (see PASS_SECONDS), so two
commits always compare the same best-of-n.  Each operation's latency is its
fastest over the passes, and the metrics are taken over those latencies.
Every output is checked against oracle.py outside the timed region.

--trace 0 reports the end-to-end metrics; --trace 1 runs the list untraced
and then traced, and reports the per-layer metrics from the traced half.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import gen
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Nominal seconds of one pass per workload, as measured at the commit that
# defined the benchmark (Python 3.11, 2 cores).  A run makes
# round(--seconds / PASS_SECONDS) passes, at least one, whatever the speed of
# the code under test; it stops early only past PASS_CAP times --seconds.
PASS_SECONDS = {"verdicts": 3.0, "deep-exact": 4.0, "certify": 5.0}
PASS_CAP = 3
SETUP_PROBES = 15
COLD_START_RUNS = 3
TAIL_BEYOND = 10          # samples a tail percentile must have above it
LAYERS = ("sequences", "core", "ideals", "convergence", "witness", "cli")
NAMED_TIMES = {           # per-layer metric -> (layer, span name)
    "core.expand_s": ("core", "expand"),
    "core.reconstruct_s": ("core", "reconstruct"),
    "ideals.ideal_member_s": ("ideals", "ideal_member"),
    "convergence.classical_s": ("convergence", "classical"),
    "convergence.ideal_s": ("convergence", "ideal"),
    "convergence.nset_s": ("convergence", "nset"),
    "witness.plan_s": ("witness", "plan"),
    "witness.build_s": ("witness", "build"),
    "witness.verify_s": ("witness", "verify"),
    "witness.serialize_s": ("witness", "serialize"),
    "cli.main_s": ("cli", "main"),
}
PER_PASS_COUNTS = {"witness.terms_scanned": "count", "witness.refusals": "count",
                   "witness.cert_bytes": "B", "cli.exit_mismatch": "count"}


def import_thinset():
    """Import thinset from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    import thinset
    import thinset.cli  # noqa: F401
    if Path(thinset.__file__).resolve().parent != SRC / "thinset":
        raise ImportError(f"thinset imported from {thinset.__file__}, not {SRC}")


def setup_probe() -> float:
    """Seconds to import thinset and parse one pass of inputs, in this fresh
    process.  The operation specs arrive as JSON on stdin; loading the
    benchmark's own job module is left out."""
    ops = [gen.Op(i, job, params) for i, (job, params) in enumerate(json.load(sys.stdin))]
    start = time.perf_counter()
    import_thinset()
    imported = time.perf_counter()
    import jobs
    parse_start = time.perf_counter()
    for op in ops:
        jobs.JOBS[op.job].build(op)
    return (imported - start) + (time.perf_counter() - parse_start)


def setup_probes(specs: str, count: int) -> list[float]:
    """Set-up seconds of `count` fresh processes running setup_probe."""
    values = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            input=specs, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return values


def measure_cold_start() -> tuple[float, bool]:
    """Wall time of `thinset expand --x 5/8 --seq dyadic --depth 3` as a new
    process, median of a few runs, and whether its output was right."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-m", "thinset.cli", "expand", "--x", "5/8",
            "--seq", "dyadic", "--depth", "3"]
    times, ok = [], True
    for _ in range(COLD_START_RUNS):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=60)
        times.append(time.perf_counter() - start)
        ok = ok and done.returncode == 0 and json.loads(done.stdout)["digit_list"] == [1, 0, 1]
    return statistics.median(times), ok


class Passes:
    """Runs the operation list in passes and collects per-pass results."""

    def __init__(self, jobs, workload: str, seed: int, ops, expected, workdir: str):
        self.jobs = jobs
        self.workload = workload
        self.seed = seed
        self.ops = ops
        self.expected = expected
        self.workdir = workdir
        self.canon: dict[int, str] = {}
        self.notes: dict[str, int] = {}
        self.pass_count = 0

    def run(self, seconds: float, rec, before_pass=None) -> list[dict]:
        """The fixed number of passes for `seconds`, unless they overrun
        PASS_CAP times that; before_pass(i, count) is called before pass i."""
        ctx = self.jobs.Ctx(rec, self.workdir)
        count = max(1, round(seconds / PASS_SECONDS[self.workload]))
        results = []
        start = time.perf_counter()
        while len(results) < count and (
                not results or time.perf_counter() - start < PASS_CAP * seconds):
            if before_pass:
                before_pass(len(results), count)
            results.append(self._one_pass(ctx))
        return results

    def _one_pass(self, ctx) -> dict:
        jobs, ops = self.jobs.JOBS, self.ops
        inputs = [jobs[op.job].build(op) for op in ops]
        order = list(range(len(ops)))
        random.Random(f"{self.workload}:{self.seed}:pass{self.pass_count}").shuffle(order)
        self.pass_count += 1
        gc.collect()
        latency = [0.0] * len(ops)
        status = [""] * len(ops)
        for i in order:
            op = ops[i]
            start = time.perf_counter()
            try:
                out = jobs[op.job].run(op, inputs[i], ctx)
                error = None
            except Exception as exc:   # an undocumented exception fails the operation
                error = f"{type(exc).__name__}: {exc}"[:200]
            latency[i] = time.perf_counter() - start
            status[i] = self._judge(op, None if error else out, error, ctx)
        return {"latency": latency, "status": status}

    def _judge(self, op, out, error, ctx) -> str:
        if error is None:
            try:
                state, note, canon = self.jobs.JOBS[op.job].judge(
                    op, out, self.expected[op.index], ctx)
            except Exception as exc:   # a malformed output fails the operation
                state, note, canon = "failed", f"judge: {type(exc).__name__}: {exc}", None
        else:
            state, note, canon = "failed", error, None
        if state != "failed":
            h = oracle.digest(canon)
            if self.canon.setdefault(op.index, h) != h:
                state, note = "failed", "output differs from an earlier pass"
        key = f"{op.job}/{state}/{note}"
        self.notes[key] = self.notes.get(key, 0) + 1
        return state

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.canon):
            h.update(f"{index}:{self.canon[index]}\n".encode())
        return h.hexdigest()


def pass_stats(results: list[dict]) -> dict:
    """Throughput and latency percentiles of one pass of the list, where each
    operation's latency is its fastest over the passes run.  Other processes
    on the machine only ever add time, so the fastest run is the steadiest
    estimate of what the operation costs."""
    lat = sorted(min(r["latency"][i] for r in results)
                 for i in range(len(results[0]["latency"])))
    n = len(lat)
    return {"ops_per_s": n / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": lat[n - TAIL_BEYOND - 1],
            "tail_percentile": round(100 * (n - TAIL_BEYOND) / n, 3),
            "samples_per_pass": n}


def tally(results: list[dict]) -> tuple[int, int, int]:
    statuses = [s for r in results for s in r["status"]]
    return len(statuses), statuses.count("failed"), statuses.count("decided")


def end_to_end(args, passes: Passes) -> tuple[dict, dict]:
    specs = json.dumps([[op.job, op.params] for op in passes.ops])
    setup: list[float] = []

    def probe(i: int, count: int) -> None:
        # The probes are spread over the run: the machine switches between a
        # fast and a slow state every second or so, and probes taken in one
        # burst would all see the same state.
        k = SETUP_PROBES * (i + 1) // count - SETUP_PROBES * i // count
        setup.extend(setup_probes(specs, max(k, 1 if i == 0 else 0)))

    results = passes.run(args.seconds, spans.Recorder(traced=False), probe)
    setup_s = statistics.median(setup)
    stats = pass_stats(results)
    attempted, failed, decided = tally(results)
    metrics = {
        "ops_per_s": (stats["ops_per_s"], "1/s"),
        "latency_p50_s": (stats["latency_p50_s"], "s"),
        "latency_tail_s": (stats["latency_tail_s"], "s"),
        "decided_share": (decided / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    info = {"passes": len(results), "tail_percentile": stats["tail_percentile"],
            "tail_samples_beyond": TAIL_BEYOND, "samples_per_pass": stats["samples_per_pass"],
            "failed_share": failed / attempted, "attempted": attempted, "failed": failed}
    return metrics, info


def per_layer(args, passes: Passes) -> tuple[dict, dict]:
    plain = passes.run(args.seconds / 2, spans.Recorder(traced=False))
    rec = spans.Recorder(traced=True)
    traced = passes.run(args.seconds / 2, rec)
    cold_start_s, cold_ok = measure_cold_start()
    n = len(traced)
    wall = sum(sum(r["latency"]) for r in traced)
    busy, calls, named = spans.layer_times(rec.spans)
    c = rec.counters
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = (busy[layer] / n, "s")
        # nothing inside src/thinset records spans yet, so self time is busy time
        metrics[f"{layer}.self_s"] = (busy[layer] / n, "s")
        metrics[f"{layer}.calls"] = (calls[layer] / n, "count")
        metrics[f"{layer}.share"] = (busy[layer] / wall, "share")
    for name, key in NAMED_TIMES.items():
        metrics[name] = (named[key] / n, "s")
    for name, unit in PER_PASS_COUNTS.items():
        metrics[name] = (c[name] / n, unit)
    metrics["sequences.max_bits"] = (c["sequences.max_bits"], "bit")
    metrics["ideals.union_parts_max"] = (c["ideals.union_parts_max"], "count")
    expand_s = named["core", "expand"]
    metrics["core.digits_per_s"] = (c["core.digits"] / expand_s if expand_s else 0.0, "1/s")
    conv = busy["convergence"]
    metrics["convergence.terms_per_s"] = (
        c["convergence.depth_walked"] / conv if conv else 0.0, "1/s")
    metrics["convergence.decided_share"] = (
        c["convergence.decided"] / c["convergence.verdicts"]
        if c["convergence.verdicts"] else 0.0, "share")
    metrics["cli.cold_start_s"] = (cold_start_s, "s")
    plain_rate = pass_stats(plain)["ops_per_s"]
    metrics["trace.overhead_share"] = (plain_rate / pass_stats(traced)["ops_per_s"] - 1, "share")
    results = plain + traced
    attempted, failed, decided = tally(results)
    failed += not cold_ok
    info = {"passes_untraced": len(plain), "passes_traced": n, "attempted": attempted,
            "failed": failed, "cold_start_ok": cold_ok}
    return metrics, info


def source_identity() -> dict:
    h = hashlib.sha256()
    for path in sorted((SRC / "thinset").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    return {"commit": commit, "source_sha256": h.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_probe:
        print(repr(setup_probe()))
        return 0
    if args.workload is None or args.seed is None:
        parser.error("--workload and --seed are required")
    try:
        import_thinset()
    except ImportError as exc:
        print(f"error: cannot import thinset from {SRC}: {exc}", file=sys.stderr)
        return 2
    import jobs
    ops = gen.WORKLOADS[args.workload](args.seed)
    expected = {op.index: jobs.JOBS[op.job].expect(op) for op in ops}
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        passes = Passes(jobs, args.workload, args.seed, ops, expected, workdir)
        measure = per_layer if args.trace else end_to_end
        metrics, info = measure(args, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, python=platform.python_version(),
                nproc=os.cpu_count(), digest=passes.digest(), outcomes=passes.notes,
                **source_identity())
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    if not args.trace:   # 0 at the parent commit, so it is not a bounded metric
        print(f"{'failed_share':32s} {info['failed_share']:.6g} share")
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
