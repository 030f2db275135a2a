"""Run one cvqec benchmark workload and print its metrics.

    python3 benchmark/run.py --workload b5-cycle --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports the package from ``src/`` next
to this directory and nothing else.  ``--trace 0`` measures in a few fresh
worker processes, one after another, each of which sets up once and then runs
ops for its share of ``--seconds`` with one closed-loop client,
``CVQEC_THREADS=1`` and BLAS threads pinned to 1; pooling several processes
averages out what differs from one interpreter to the next.  Times are scaled
to a nominal machine speed by a reference kernel read during each worker's
run (see ``reference.py``); the raw wall times are in the record.

``--trace 1`` runs in this process and prints the per-layer metrics from spans
around each public stage call.  The last line of standard output is the
result object; the line before it holds the run's environment record and
output digests.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here, before numpy or cvqec load

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import traceback
import tracemalloc
from pathlib import Path

PINNED_THREADS = ("CVQEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
MEMORY_MARGIN_MB = 1024
WORKER_TIMEOUT_S = 170
OP_STRIDE = 100_000  # op indices per worker; a multiple of every workload's op cycle
TAIL_ABOVE = 10  # the tail is the highest percentile with this many samples above it
READING_EVERY_S = 0.5  # least time between two reference readings in a run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    p.add_argument("--worker-seconds", type=float, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields[:8])


def host_load(ticks_before, cpu_before: float, wall: float) -> dict:
    """How much of the machine the measured window got: this process's CPU
    seconds per wall second, and the hypervisor's steal share of all CPUs.
    Both explain run-to-run noise that does not come from the program."""
    out = {"cpu_over_wall": (time.process_time() - cpu_before) / wall}
    after = cpu_ticks()
    if ticks_before is not None and after is not None and after[1] > ticks_before[1]:
        out["steal_share"] = (after[0] - ticks_before[0]) / (after[1] - ticks_before[1])
    return out


def cache_sizes() -> dict:
    """Unified L2 and L3 sizes of CPU 0, in bytes, from sysfs."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Unified" and size.endswith("K"):
            out[f"L{level}_bytes"] = int(size[:-1]) * 1024
    return out


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(wl, args) -> dict:
    import numpy as np

    caches = cache_sizes()
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "git_commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        **caches,
        "threads": {k: os.environ[k] for k in PINNED_THREADS},
        "state_bytes": wl.state_bytes(),
        "state_over_llc": wl.state_bytes() / caches["L3_bytes"] if "L3_bytes" in caches else None,
        "mem_available_mb": mem_available_mb(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that has TAIL_ABOVE
    samples above it; the maximum when there are too few samples."""
    s = sorted(samples)
    k = len(s) - TAIL_ABOVE - 1
    if k < 0:
        return s[-1], 100.0
    return s[k], 100.0 * (k + 1) / len(s)


def run_checked(wl, i: int):
    """One timed op and its oracle: (output or None, op seconds, failed inputs)."""
    start = time.perf_counter()
    try:
        out = wl.run_op(i)
    except Exception:
        traceback.print_exc()
        return None, time.perf_counter() - start, wl.per_op
    elapsed = time.perf_counter() - start
    try:
        failed = wl.check(i, out)
    except Exception:
        traceback.print_exc()
        failed = wl.per_op
    return out, elapsed, failed


def set_up(wl, tracer):
    """Build, encode, plan and one warm-up op that fills the lazy caches."""
    wl.setup(tracer)
    out, _, failed = run_checked(wl, 0)
    if out is None or failed:
        raise RuntimeError(f"{wl.name}: warm-up op failed its oracle")
    return out


def timed_setup(wl, start: float) -> tuple[float, object]:
    """Set-up wall seconds counted from ``start``, and the warm-up output."""
    from tracing import NullTracer

    warm = set_up(wl, NullTracer())
    return time.perf_counter() - start, warm


def digest(chunks) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def worker(wl, args) -> dict:
    """One fresh process's share of a timed run: set up, then closed-loop ops
    for ``args.worker_seconds``, starting at op ``1 + args.worker *
    OP_STRIDE``.  The reference kernel is read before the first op and after
    any op that ends ``READING_EVERY_S`` or more after the last reading.
    Times are raw; the parent scales them."""
    from reference import Reference

    setup_s, warm = timed_setup(wl, _T0)
    with Reference() as ref:
        times_ms, chunks = [], [wl.digest_bytes(warm)]
        attempted = failed = 0
        ticks, cpu = cpu_ticks(), time.process_time()
        start = time.perf_counter()
        readings = [ref.reading()]
        last_reading = reading_s = time.perf_counter() - start
        i = 1 + args.worker * OP_STRIDE
        while True:
            out, elapsed, bad = run_checked(wl, i)
            attempted += wl.per_op
            failed += bad
            times_ms.append(1e3 * elapsed / wl.per_op)
            if out is not None:
                chunks.append(wl.digest_bytes(out))
            i += 1
            now = time.perf_counter() - start
            done = now >= args.worker_seconds
            if done or now - last_reading >= READING_EVERY_S:
                readings.append(ref.reading())
                last_reading = time.perf_counter() - start
                reading_s += last_reading - now
            if done:
                break
        window = time.perf_counter() - start
    finish_ok = wl.finish()
    return {
        "setup_s": setup_s,
        "readings": readings,
        "times_ms": times_ms,
        "attempted": attempted,
        "failed": attempted if not finish_ok else failed,
        "run_oracle_ok": finish_ok,
        "busy_s": window - reading_s,
        "peak_rss_mb": peak_rss_mb(),
        "warmup_digest": digest(chunks[:1]),
        "output_digest": digest(chunks),
        "output_digest_ops": len(chunks),
        **host_load(ticks, cpu, window),
    }


def run_worker(k: int, seconds: float) -> dict:
    """Run worker ``k`` in a fresh interpreter and return its report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:],
           "--worker", str(k), "--worker-seconds", repr(seconds)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
                          check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {k} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(wl, args) -> tuple[dict, dict]:
    """``wl.processes`` workers, one after another, each measuring an equal
    share of ``args.seconds``.  The metrics pool the samples of all workers
    and scale every time by ``reference.scale`` of the median of all their
    reference readings."""
    import reference

    reports = [run_worker(k, args.seconds / wl.processes) for k in range(wl.processes)]
    readings = [x for r in reports for x in r["readings"]]
    scale = reference.scale(statistics.median(readings))
    raw_setups = [r["setup_s"] for r in reports]
    raw_ms = [t for r in reports for t in r["times_ms"]]
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    busy = sum(r["busy_s"] for r in reports)
    warmups_agree = len({r["warmup_digest"] for r in reports}) == 1
    raw_tail, tail_pct = tail(raw_ms)
    record = {
        "raw_setup_s_samples": raw_setups,
        "reference_ms_p50": statistics.median(readings),
        "reference_ms_per_worker": [statistics.median(r["readings"]) for r in reports],
        "reference_readings": len(readings),
        "scale": scale,
        "raw_op_ms_p50": statistics.median(raw_ms),
        "raw_op_ms_tail": raw_tail,
        "raw_ops_per_s": (attempted - failed) / busy,
        "op_samples": len(raw_ms),
        "op_ms_tail_percentile": tail_pct,
        "failed_ratio": failed / attempted,
        "run_oracle_ok": all(r["run_oracle_ok"] for r in reports),
        "warmups_agree": warmups_agree,
        "warmup_digest": reports[0]["warmup_digest"],
        "output_digest": digest(r["output_digest"].encode() for r in reports),
        "output_digest_ops": sum(r["output_digest_ops"] for r in reports),
        "cpu_over_wall": [r["cpu_over_wall"] for r in reports],
        "steal_share": [r.get("steal_share") for r in reports],
    }
    metrics = {
        "setup_s": {"value": statistics.median(raw_setups) * scale, "unit": "s"},
        "op_ms_p50": {"value": statistics.median(raw_ms) * scale, "unit": "ms"},
        "op_ms_tail": {"value": raw_tail * scale, "unit": "ms"},
        "ops_per_s": {"value": (attempted - failed) / busy / scale, "unit": "1/s"},
        "peak_rss_mb": {"value": max(r["peak_rss_mb"] for r in reports), "unit": "MB"},
    }
    correct = failed == 0 and warmups_agree
    return record, {"correct": correct, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def replay_pass(wl, i: int, ref, tracer, memory: bool) -> tuple[float, bool]:
    """Replay op ``i`` under spans: (seconds the replay took, whether it and
    the traced public call reproduce the untraced output ``ref``)."""
    tracer.memory = memory
    if memory:
        tracemalloc.start()
    try:
        match = ref is not None
        if wl.public_span is not None:
            with tracer.span(wl.public_span):
                again = wl.run_op(i)
            match = match and wl.same(ref, again)
        start = time.perf_counter()
        replayed = wl.replay(i, tracer)
        elapsed = time.perf_counter() - start
        return elapsed, match and wl.same(ref, replayed)
    except Exception:
        traceback.print_exc()
        return float("nan"), False
    finally:
        if memory:
            tracemalloc.stop()
        tracer.memory = False


def traced_run(wl, args) -> tuple[dict, dict]:
    """Setup and every op run as timing passes; setup and the workload's
    ``memory_ops`` run once more as memory passes.  The first setup is the
    process's first, so it builds the code cold."""
    from tracing import Tracer
    from workloads import NO_PEAK, OUTCOMES, SPANS

    tracer = Tracer()
    set_up(wl, tracer)
    tracer.memory = True
    tracemalloc.start()
    try:
        wl.setup(tracer)
    finally:
        tracemalloc.stop()
        tracer.memory = False

    untraced_ms, traced_ms = [], []
    attempted = failed = 0
    match = True
    start = time.perf_counter()
    i = 1
    while True:
        ref, elapsed, bad = run_checked(wl, i)
        attempted += wl.per_op
        failed += bad
        untraced_ms.append(1e3 * elapsed / wl.per_op)
        if i in wl.memory_ops:
            _, ok = replay_pass(wl, i, ref, tracer, memory=True)
            match = match and ok
        elapsed, ok = replay_pass(wl, i, ref, tracer, memory=False)
        match = match and ok
        if ok:
            traced_ms.append(1e3 * elapsed / wl.per_op)
        i += 1
        if time.perf_counter() - start >= args.seconds:
            break
    if not wl.finish():
        failed = attempted

    metrics = tracer.span_metrics(SPANS, NO_PEAK)
    corrections = sum(tracer.counts.get(f"syndrome.correct.{o}", 0) for o in OUTCOMES)
    for outcome in OUTCOMES:
        name = f"syndrome.correct.{outcome}"
        metrics[name] = {"value": tracer.counts.get(name, 0), "unit": "count"}
    applied = tracer.counts.get("syndrome.correct.applied", 0)
    metrics["syndrome.correct.applied_ratio"] = {
        "value": applied / corrections if corrections else 0.0, "unit": "ratio"}
    traced_p50 = statistics.median(traced_ms) if traced_ms else math.nan
    overhead = traced_p50 / statistics.median(untraced_ms)
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.replay_match"] = {"value": int(match), "unit": "bool"}
    metrics["trace.ops"] = {"value": len(untraced_ms), "unit": "count"}
    if not match:
        print(f"{wl.name}: the stage replay no longer reproduces the public op; "
              "per-layer numbers do not describe it", file=sys.stderr)
    record = {"failed_ratio": failed / attempted,
              "untraced_op_ms_p50": statistics.median(untraced_ms),
              "traced_op_ms_p50": traced_p50,
              "peak_rss_mb": peak_rss_mb()}
    return record, {"correct": failed == 0, "attempted": attempted, "failed": failed,
                    "metrics": metrics}


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # Linux: KiB


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    for var in PINNED_THREADS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    if not (SRC / "cvqec" / "__init__.py").is_file():
        print(f"error: no cvqec package at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cvqec
    import workloads

    if Path(cvqec.__file__).resolve().parent != (SRC / "cvqec").resolve():
        print(f"error: cvqec imported from {cvqec.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)

    available = mem_available_mb()
    need = wl.peak_mb + MEMORY_MARGIN_MB
    if available is not None and available < need:
        print(f"error: {wl.name} peaks near {wl.peak_mb:.0f} MB; MemAvailable is "
              f"{available:.0f} MB, below the {need:.0f} MB it needs with margin. "
              "Not starting.", file=sys.stderr)
        return 3

    if args.worker is not None:
        print(json.dumps(worker(wl, args)))
        return 0

    env = environment(wl, args)
    if args.trace:
        record, result = traced_run(wl, args)
    else:
        record, result = timed_run(wl, args)
    print(json.dumps({"record": {**env, **record}}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
