#!/usr/bin/env python3
"""branchnet benchmark: run one workload and print its metrics.

    python3 bnbench/run.py --workload {solve,cascade,certify} --seed N --seconds S --trace {0,1}

Run it from the root of a branchnet checkout; it imports the library from
that checkout's ``src/`` and nowhere else, and keeps its scratch files in
``.bench_work/`` there, removed on exit.  One invocation is one
single-threaded process: one client in a closed loop, BLAS pinned to one
thread before numpy loads.

Set-up draws the workload's pool of instances from ``--seed``, writes them
through ``branchnet.io``, and times ``SETUP_TRIALS`` fresh interpreters
that import branchnet and load those files (``load_inputs.py``).  The
process then loads the files itself, warms up, and loops over the pool
until ``--seconds`` have passed and every instance has run at least twice.
Every result is checked by ``workloads.py`` without calling the code under
test.  Every time is scaled to a reference machine speed by the
calibration kernel run next to it (``calibration.py``), because a shared
host can run the same work 2x slower for minutes at a time.  An instance's
latency is the least of its scaled repeats, and every instance weighs the
same in the metrics however often it ran.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` runs untraced for half of ``--seconds`` (two passes at
least), then installs the wrappers of ``tracing.py``, repeats set-up's
writes and loads, and runs one traced pass of the pool.  It reports the per-layer metrics and the
tracing overhead, and counts as failed every instance whose traced result
is not bit-identical to its untraced one.

The last line of standard output is the result
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``;
the line before it records the machine, versions and workload parameters.
"""

import os

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("solve", "cascade", "certify")
SETUP_TRIALS = 5
MIN_PASSES = 2  # every instance runs at least twice, so its least time can drop a contended run
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
SETUP_TIMEOUT_S = 120


def parse_args(argv):
    def nonneg_int(text):
        val = int(text)
        if val < 0:
            raise argparse.ArgumentTypeError("must be >= 0")
        return val

    def positive(text):
        val = float(text)
        if not val > 0:
            raise argparse.ArgumentTypeError("must be > 0")
        return val

    ap = argparse.ArgumentParser(description="branchnet benchmark (one workload per process)")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", required=True, type=nonneg_int)
    ap.add_argument("--seconds", required=True, type=positive)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Pass:
    """Samples of a closed-loop measurement over a pool of instances.

    Each operation is preceded by one calibration kernel run; its wall and
    CPU times are scaled to the reference speed by the kernel times around
    it (see calibration.py).  An instance's time is the least of its scaled
    repeats: contention on a shared host only ever adds time.
    """

    def __init__(self, size: int):
        self.size = size
        self.ops: list[tuple[int, float, float]] = []  # (instance, wall s, cpu s) in run order
        self.kernel: list[float] = []  # calibration kernel time before each operation
        self.first = [None] * size  # first checked Result of each instance
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def per_instance(self, first_pass: bool = False) -> tuple[list[float], list[float]]:
        """Least scaled wall and CPU time of each instance (of its first run only, if asked)."""
        wall = [[] for _ in range(self.size)]
        cpu = [[] for _ in range(self.size)]
        for (k, w, c), f in zip(self.ops, calibration.scales(self.kernel)):
            if not (first_pass and wall[k]):
                wall[k].append(w * f)
                cpu[k].append(c * f)
        return [min(x) for x in wall], [min(x) for x in cpu]

    def latency_stats(self) -> dict:
        lat, cpu = self.per_instance()
        ordered = sorted(lat)
        n = len(ordered)
        beyond = min(TAIL_BEYOND, n - 1)
        return {
            "ops_per_s": n / sum(lat),
            "latency_p50_s": statistics.median(lat),
            "latency_tail_s": ordered[n - 1 - beyond],
            "tail_percentile": 100.0 * (n - beyond) / n,
            "samples": n,
            "cpu_per_op_s": statistics.fmean(cpu),
            "speed_scale": statistics.median(calibration.scales(self.kernel)),
            "raw_op_time_s": sum(w for _, w, _ in self.ops),
        }

    def energy_ratio(self):
        ok = [r for r in self.first if r is not None and r.ok]
        denom = sum(r.competitor for r in ok)
        return sum(r.energy for r in ok) / denom if denom > 0 else None


def measure(wl, pool, loaded, seconds: float, passes: int = MIN_PASSES, clock=time.perf_counter) -> Pass:
    """Closed loop until ``seconds`` have passed and ``passes`` passes over the pool are done."""
    from workloads import Result

    res = Pass(len(pool))
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(pool) * passes or time.perf_counter() < deadline:
        k = i % len(pool)
        i += 1
        res.kernel.append(calibration.sample())
        error = None
        c0, t0 = time.process_time(), clock()
        try:
            out = wl.run(loaded[k])
        except Exception as exc:  # a raising operation is a counted failure, not a crash
            error = exc
        t1, c1 = clock(), time.process_time()
        res.attempted += 1
        res.ops.append((k, t1 - t0, c1 - c0))
        result = Result(None, False, f"instance {k} raised {error!r}") if error else wl.check(pool[k], out)
        if res.first[k] is None:
            res.first[k] = result
        elif result.signature != res.first[k].signature:
            result = Result(result.signature, False, f"instance {k} gave a different result on a repeat")
        if not result.ok:
            res.fail(f"instance {k}: {result.reason}")
    return res


def setup_trials(manifest: Path) -> list[dict]:
    """Import branchnet and load the inputs in fresh interpreters.

    Each trial's times are scaled by the calibration kernel run just before it.
    """
    trials = []
    for _ in range(SETUP_TRIALS):
        scale = calibration.REF_S / statistics.median(calibration.sample() for _ in range(5))
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "load_inputs.py"), str(SRC), str(manifest)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up trial failed: {proc.stderr.strip()}")
        raw = json.loads(proc.stdout.strip().splitlines()[-1])
        trials.append({"import_s": raw["import_s"] * scale, "load_s": raw["load_s"] * scale,
                       "raw_s": raw["import_s"] + raw["load_s"]})
    return trials


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(timed: Pass, trials: list[dict]) -> tuple[dict, dict]:
    st = timed.latency_stats()
    metrics = {
        "setup_s": metric(statistics.median(t["import_s"] + t["load_s"] for t in trials), "s"),
        "ops_per_s": metric(st["ops_per_s"], "1/s"),
        "latency_p50_s": metric(st["latency_p50_s"], "s"),
        "latency_tail_s": metric(st["latency_tail_s"], "s"),
        "cpu_per_op_s": metric(st["cpu_per_op_s"], "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": metric((timed.attempted - timed.failed) / timed.attempted, "ratio"),
        "energy_ratio": metric(timed.energy_ratio(), "ratio"),
    }
    info = {"latency_tail": {"percentile": st["tail_percentile"], "samples": st["samples"],
                             "beyond": min(TAIL_BEYOND, st["samples"] - 1)},
            "fail_ratio": timed.failed / timed.attempted,
            "speed_scale": st["speed_scale"], "raw_op_time_s": st["raw_op_time_s"],
            "raw_setup_s": statistics.median(t["raw_s"] for t in trials)}
    return metrics, info


def traced_run(wl, pool, loaded, stems, seconds: float, trials: list[dict]) -> tuple[dict, Pass, Pass, dict]:
    import tracing

    base = measure(wl, pool, loaded, seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        files_t = [wl.write(spec, stem) for spec, stem in zip(pool, stems)]
        loaded_t = [wl.load(spec, fs) for spec, fs in zip(pool, files_t)]
        traced = measure(wl, pool, loaded_t, 0.0, passes=1, clock=tracer.clock)
    finally:
        tracer.uninstall()

    # tracing must not change what it measures
    for k, (a, b) in enumerate(zip(base.first, traced.first)):
        if a.signature != b.signature:
            traced.fail(f"instance {k}: traced result differs from the untraced one")

    metrics = tracer.metrics()
    traced_st = traced.latency_stats()
    for name, m in metrics.items():
        if name.endswith(".self_s") and m["value"] is not None:
            m["value"] *= traced_st["speed_scale"]
    metrics["setup.import_s"] = metric(statistics.median(t["import_s"] for t in trials), "s")
    metrics["setup.load_s"] = metric(statistics.median(t["load_s"] for t in trials), "s")
    # one run of each instance on both sides, so the least-of-repeats rule favours neither
    untraced_s, traced_s = sum(base.per_instance(first_pass=True)[0]), sum(traced.per_instance()[0])
    metrics["trace.overhead_ratio"] = metric(traced_s / untraced_s - 1.0, "ratio")
    info = {"traced_op_time_s": traced_s, "raw_traced_op_time_s": traced_st["raw_op_time_s"],
            "speed_scale": traced_st["speed_scale"], "untraced_op_time_s": untraced_s,
            "notes": {"self_s": "scaled by the traced pass's median calibration factor (speed_scale)",
                      "chains.segment_interactions.pairs": "computed as sum of E(E-1)/2 over calls",
                      "optimize.local_search.hit_max_iters": "searches whose sweep count reached max_iters",
                      "per-layer counts": "traced set-up (io.save, io.load) plus one traced pass of the pool"}}
    return metrics, base, traced, info


def expected_metrics(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def environment(np, scipy) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": BLAS_THREADS,
        "platform": platform.platform(),
    }


def run(args, work: Path) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import branchnet

    if Path(branchnet.__file__).resolve().parent != SRC / "branchnet":
        print(f"error: imported branchnet from {branchnet.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    expected = expected_metrics(args.trace)

    pool = wl.generate(args.seed)
    stems = [work / f"i{i:03d}" for i in range(len(pool))]
    files = [wl.write(spec, stem) for spec, stem in zip(pool, stems)]
    manifest = work / "manifest.json"
    manifest.write_text(json.dumps([f for fs in files for f in fs]))
    trials = setup_trials(manifest)
    loaded = [wl.load(spec, fs) for spec, fs in zip(pool, files)]
    for k in range(wl.warmup):
        wl.run(loaded[k % len(loaded)])

    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "params": wl.params, "pool": len(pool), "setup_trials": SETUP_TRIALS,
              "closed_loop_clients": 1}
    if args.trace:
        metrics, base, traced, info = traced_run(wl, pool, loaded, stems, args.seconds, trials)
        passes = (base, traced)
    else:
        timed = measure(wl, pool, loaded, args.seconds)
        metrics, info = end_to_end(timed, trials)
        passes = (timed,)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    record.update(info, ops=attempted, passes=round(attempted / len(pool), 2),
                  failures=[r for p in passes for r in p.reasons])

    got = {k: v["unit"] for k, v in metrics.items()}
    if got != expected:
        print(f"error: metrics {sorted(set(got) ^ set(expected))} or their units disagree with BENCHMARK.json",
              file=sys.stderr)
        return 3
    print(json.dumps({"environment": environment(np, scipy), "run": record}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "branchnet" / "__init__.py").is_file():
        print(f"error: no branchnet sources at {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
