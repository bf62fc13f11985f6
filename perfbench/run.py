"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload group-campaign --seed 0 \\
        --seconds 30 --trace 0

A run imports the program from ``src/``, warms the workload up once,
then repeats it from the same seed until ``--seconds`` have passed
(at least twice).  With ``--trace 0`` it reports the end-to-end
metrics as medians over the repetitions; with ``--trace 1`` it runs
one untraced repetition followed by traced ones and reports the
per-layer ledger instead.  The correctness gate runs after the timed
repetitions and before anything is printed; the last stdout line is
the result object ``{"correct", "attempted", "failed", "metrics"}``.
Spans of a traced run are written to ``.perfbench_out/``.
"""

import os

# Pinned before NumPy loads, so BLAS/OpenMP never spawn threads
# behind the benchmark's back (service workers inherit this).
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS"):
    os.environ[_name] = "1"
# Temporary files (the service's socket directory) go to the current
# directory, which main() sets to a work directory in the checkout.
# The path stays relative, so a long checkout path cannot overflow
# the unix-socket path limit.
os.environ["TMPDIR"] = "."

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
from statistics import median  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
MIN_REPS = 2

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "devices_per_s": "1/s",
    "queries_per_s": "1/s", "first_chunk_s": "s",
    "queries_per_device": "count", "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "grouping.attack_pack_s": "s", "grouping.finalize_pack_s": "s",
    "grouping.pack_calls": "count",
    "ecc.kernel_s": "s", "ecc.kernel_calls": "count",
    "ecc.kernel_rows": "count", "ecc.rows_per_call": "rows/call",
    "keygen.evaluator_build_s": "s", "keygen.evaluator_builds": "count",
    "keygen.plan_s": "s", "dedup.s": "s", "dedup.rows_in": "count",
    "dedup.unique_frac": "ratio", "keygen.finalize_s": "s",
    "keygen.rowwise_s": "s", "puf.noise_s": "s",
    "puf.noise_rows": "count", "core.lockstep_s": "s",
    "core.rounds": "count", "core.rows_per_round": "rows/round",
    "core.attack_s": "s", "service.dispatch_s": "s",
    "service.shard_busy_s": "s", "service.worker_idle_frac": "ratio",
    "service.retries": "count", "service.registry_load_s": "s",
    "fleet.enroll_s": "s", "service.registry_write_s": "s",
    "warehouse.record_s": "s", "unattributed_frac": "ratio",
    "trace_overhead_frac": "ratio",
}


def source_digest() -> str:
    """SHA-256 over ``src/`` (the checkout is not a git repository)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def end_to_end(import_s, warmup_s, reps, failed, attempted, rss_kb):
    """The untraced metrics: medians over the repetitions."""
    return {
        "setup_s": import_s + warmup_s + median(
            rep.setup_s for rep in reps),
        "wall_s": median(rep.wall_s for rep in reps),
        "devices_per_s": median(rep.devices / rep.wall_s
                                for rep in reps),
        "queries_per_s": median(rep.queries / rep.wall_s
                                for rep in reps),
        "first_chunk_s": median(rep.first_chunk_s for rep in reps),
        "queries_per_device": reps[0].queries / reps[0].devices,
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(reference, reps, tracer):
    """The traced metrics: per-repetition means of the span ledger."""
    from spans import LAYERS, WORKER_LAYERS, ledger

    totals = {}
    attributed = 0.0
    measured = 0.0
    service = {"dispatch": 0.0, "busy": 0.0, "idle": 0.0,
               "retries": 0}
    for rep in reps:
        table = ledger(tracer.spans, rep.start, rep.end)
        for name, entry in table.items():
            into = totals.setdefault(name, dict.fromkeys(entry, 0.0))
            for key, value in entry.items():
                into[key] += value
        if rep.service is None:
            measured += rep.total_s
            attributed += sum(entry["self_s"]
                              for name, entry in table.items()
                              if name in LAYERS)
            continue
        # Service: the main process waits while workers compute.  The
        # busiest worker's shard time is the critical path; the rest
        # of the post-submit window is dispatch (spawn, IPC, skew).
        busy = rep.service["busy"]
        critical = max(busy.values())
        window = rep.wall_s - rep.service["submit_s"]
        dispatch = window - critical
        shard_s = sum(busy.values())
        # Worker layers are credited with their share of the
        # critical path; main-process layers with their own self time.
        sweep = ledger(tracer.spans, rep.service["sweep_start"],
                       rep.end)
        local = sum(entry["self_s"] for name, entry in sweep.items()
                    if name in LAYERS and name not in WORKER_LAYERS)
        in_shards = sum(entry["self_s"] for name, entry in sweep.items()
                        if name in WORKER_LAYERS)
        measured += rep.wall_s
        attributed += local + dispatch + critical * in_shards / shard_s
        service["dispatch"] += dispatch
        service["busy"] += shard_s
        service["idle"] += 1.0 - shard_s / (len(busy) * window)
        service["retries"] += rep.service["retries"]
    count = len(reps)

    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0) / count

    def calls(name):
        return totals.get(name, {}).get("calls", 0) / count

    def rows(name, key="rows_in"):
        return totals.get(name, {}).get(key, 0) / count

    kernel_calls = rows("ecc.kernel", "rows_out")
    kernel_rows = rows("ecc.kernel")
    dedup_in = rows("dedup")
    rounds = calls("core.lockstep")
    return {
        "grouping.attack_pack_s": self_s("grouping.attack_pack"),
        "grouping.finalize_pack_s": self_s("grouping.finalize_pack"),
        "grouping.pack_calls": (calls("grouping.attack_pack")
                                + calls("grouping.finalize_pack")
                                + calls("grouping.pack")),
        "ecc.kernel_s": self_s("ecc.kernel"),
        "ecc.kernel_calls": kernel_calls,
        "ecc.kernel_rows": kernel_rows,
        "ecc.rows_per_call": (kernel_rows / kernel_calls
                              if kernel_calls else 0.0),
        "keygen.evaluator_build_s": self_s("keygen.evaluator_build"),
        "keygen.evaluator_builds": calls("keygen.evaluator_build"),
        "keygen.plan_s": self_s("keygen.plan"),
        "dedup.s": self_s("dedup"),
        "dedup.rows_in": dedup_in,
        "dedup.unique_frac": (rows("dedup", "rows_out") / dedup_in
                              if dedup_in else 0.0),
        "keygen.finalize_s": self_s("keygen.finalize"),
        "keygen.rowwise_s": self_s("keygen.rowwise"),
        "puf.noise_s": self_s("puf.noise"),
        "puf.noise_rows": rows("puf.noise"),
        "core.lockstep_s": self_s("core.lockstep"),
        "core.rounds": rounds,
        "core.rows_per_round": (rows("core.lockstep") / rounds
                                if rounds else 0.0),
        "core.attack_s": self_s("core.attack"),
        "service.dispatch_s": service["dispatch"] / count,
        "service.shard_busy_s": service["busy"] / count,
        "service.worker_idle_frac": service["idle"] / count,
        "service.retries": service["retries"] / count,
        "service.registry_load_s": self_s("service.registry_load"),
        "fleet.enroll_s": self_s("fleet.enroll"),
        "service.registry_write_s": self_s("service.registry_write"),
        "warehouse.record_s": self_s("warehouse.record"),
        "unattributed_frac": 1.0 - attributed / measured,
        "trace_overhead_frac": (median(rep.total_s for rep in reps)
                                / reference.total_s - 1.0),
    }


def count_problems(reps, tracer):
    """Traced repetitions must repeat every span count exactly."""
    from spans import ledger

    signatures = [
        {name: (entry["calls"], entry["rows_in"], entry["rows_out"])
         for name, entry in ledger(tracer.spans, rep.start,
                                   rep.end).items()}
        for rep in reps]
    return [f"traced repetition {index} span counts differ from "
            f"repetition 0"
            for index, signature in enumerate(signatures[1:], start=1)
            if signature != signatures[0]]


def write_trace(name, seed, meta, tracer) -> Path:
    """Write a traced run's spans (kept in memory until now)."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{name}-seed{seed}.json"
    path.write_text(json.dumps({
        "meta": meta,
        "fields": ["name", "start", "end", "parent", "rows_in",
                   "rows_out", "pid"],
        "spans": tracer.spans}))
    return path


def bench(args, import_s, workdir: Path):
    """Warm up, measure, check; returns ``(meta, result, problems)``."""
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    begin = time.perf_counter()
    workload.warm_up(args.seed, workdir)
    warmup_s = time.perf_counter() - begin

    tracer = reference = None
    reps = []
    start = time.perf_counter()
    if args.trace:
        reference = workload.rep(args.seed, workdir)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            while (len(reps) < 1
                   or time.perf_counter() - start < args.seconds):
                reps.append(workload.rep(args.seed, workdir, tracer))
    else:
        while (len(reps) < MIN_REPS
               or time.perf_counter() - start < args.seconds):
            reps.append(workload.rep(args.seed, workdir))
    # Peak memory of the workload itself, read before the gate runs
    # its own reference computation in this process.
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    # Correctness gate, outside the timed region.
    compared = reps if reference is None else [reference] + reps
    problems = (workloads.check_reps(compared)
                + workload.check(args.seed, compared))
    attempted, failed = workloads.run_accounting(compared)
    if args.trace:
        problems += count_problems(reps, tracer)
        metrics = per_layer(reference, reps, tracer)
        units = PER_LAYER
    else:
        metrics = end_to_end(import_s, warmup_s, reps, failed,
                             attempted, rss_kb)
        units = END_TO_END
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": len(compared), "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "source_sha256": source_digest(),
    }
    if tracer is not None:
        meta["trace_file"] = str(write_trace(
            args.workload, args.seed, meta, tracer).relative_to(ROOT))
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return meta, result, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="group-campaign",
                        choices=("group-campaign", "pairing-campaign",
                                 "service-sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    begin = time.perf_counter()
    import workloads  # noqa: F401  (imports the program)
    import_s = time.perf_counter() - begin

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    try:
        meta, result, problems = bench(args, import_s, workdir)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"perfbench: correctness gate failed: {problem}",
              file=sys.stderr)
    print("# " + json.dumps(meta, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"# {name:28s} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
