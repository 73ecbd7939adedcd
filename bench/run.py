"""Run one dknn benchmark workload; the last stdout line is its result.

    python3 bench/run.py --workload serve --seed 1 --seconds 25 --trace 0

``--trace 0`` reports the end-to-end metrics listed in BENCHMARK.json.
``--trace 1`` runs the workload twice on half the time each, untraced and
then with every layer wrapped by the span tracer doing the same work, and
reports the per-layer metrics. Both modes write a run record (metrics,
output digests, measured traffic, environment, failed checks) to
``.bench_out/`` and print it as one JSON line before the result line; a
traced run also writes its spans there. See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

# One closed-loop caller and no pools: pin BLAS and the experiment harness
# to one thread each before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "DKNN_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("serve", "ablate")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, when numpy ships one."""
    import numpy

    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        try:
            getter = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        except OSError:
            continue
        if getter is not None:
            getter.restype = ctypes.c_int
            return int(getter())
    return None


def environment() -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=60)
        sha = done.stdout.strip() if done.returncode == 0 else None
    source = hashlib.blake2b(digest_size=16)
    for path in sorted((ROOT / "src" / "dknn").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = blas_threads()
    return {
        "git_sha": sha,
        "source_digest": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas,
        "dknn_threads": int(os.environ["DKNN_THREADS"]),
        # the caller is one of BLAS's threads; DKNN_THREADS=1 starts no pool
        "load_threads": blas if blas is not None else 1,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_end_to_end(args, body, workdir, ledger) -> tuple[dict, dict]:
    import workloads

    p = workloads.Pass(args.seed, args.seconds, workdir, ledger)
    body(p)
    values = dict(p.values, peak_rss_mb=peak_rss_mb())
    record = {"digests": p.digests, "traffic": p.traffic, "samples": p.samples,
              "unit_s": p.unit_s, "phase_s": p.phase_s, "host_probe_s": p.probe_s}
    return values, record


def run_traced(args, body, workdir, ledger) -> tuple[dict, dict]:
    import layers
    import selftest
    import workloads
    from tracer import Tracer

    found = selftest.problems()
    ledger.check(not found, "tracer self-test: " + "; ".join(found))
    half = args.seconds / 2.0
    plain = workloads.Pass(args.seed, half, workdir / "plain", ledger, end_to_end=False)
    body(plain)
    tracer = Tracer()
    with tracer.installed(layers.targets()):
        traced = workloads.Pass(args.seed, half, workdir / "traced", ledger,
                                end_to_end=False, tracer=tracer, replay=plain.unit_s)
        body(traced)
    ledger.check(traced.digests == plain.digests, "wrapping changed the output digests")
    found = tracer.problems(traced.wall_s)
    ledger.check(not found, "span invariants: " + "; ".join(found[:5]))
    values = layers.per_layer(tracer, traced.wall_s, plain.wall_s)
    spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.tsv"
    tracer.write(spans_path)
    traffic = dict(traced.traffic, transform_calls_per_distinct_text=(
        tracer.counters["featurize.texts"] / max(1, len(tracer.seen))))
    record = {
        "digests": traced.digests, "traffic": traffic,
        "units": {name: len(walls) for name, walls in traced.unit_s.items()},
        "phase_s": {"untraced": plain.phase_s, "traced": traced.phase_s},
        "spans_file": str(spans_path.relative_to(ROOT)), "span_count": len(tracer.spans),
        "per_phase": {phase: {name: entry for name, entry in
                              tracer.summary(layers.SPANS, phase).items() if entry["calls"]}
                      for phase in traced.phase_s},
    }
    return values, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "dknn" / "__init__.py").is_file():
        print(f"error: dknn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    ledger = workloads.Ledger()
    env = environment()
    ledger.check(env["load_threads"] <= env["nproc"],
                 f"load uses {env['load_threads']} threads on {env['nproc']} cpus")
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    run = run_traced if args.trace else run_end_to_end
    try:
        values, record = run(args, workloads.WORKLOADS[args.workload], workdir, ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    for m in wanted:
        value = float(values[m["name"]])
        if not ledger.check(math.isfinite(value), f"{m['name']} is not finite"):
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "metrics": metrics, **record, "environment": env,
              "failures": ledger.failures}
    record_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps(record))
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
