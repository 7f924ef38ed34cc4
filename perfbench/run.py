"""Wall-clock benchmark of the attention serving stack: one workload per run.

Run from the root of a checkout::

    python3 perfbench/run.py --workload longctx --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrumentation: the
stack is set up several times (the median is ``setup_s``), then one pass
drives the workload for ``--seconds`` of work, repeating one unit of work,
and every output is verified outside the timed region.  Rates and
percentiles are medians over the pass's units.  ``--trace 1`` runs the
same pass twice on fresh stacks, the second time with every layer wrapped
by ``tracer.Tracer``, and reports the per-layer metrics plus the tracing
overhead; the spans are written to ``.perfbench/trace-<workload>.npz``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
record the environment and the sample counts.  Workloads and per-layer
metrics are described in ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".perfbench"
#: BLAS/OpenMP pools stay single-threaded: with the serial server and router
#: the process never runs more compute threads than the 2-core target has
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 9


def _commit() -> str:
    """The checked-out commit, read from ``.git`` when the checkout has one."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text(encoding="ascii").strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text(encoding="ascii").strip() if target.is_file() else "unknown"


def gaps(record) -> list:
    """Inter-token gaps of one request; a one-shot request's is seconds per row."""
    import numpy as np

    if record.one_shot:
        return [(record.times[-1] - record.sent) / record.tokens]
    return list(np.diff(record.times[record.first :]))


def _unit_metrics(records, seconds: float) -> dict:
    """Rates and percentiles of the requests of one measured unit."""
    import numpy as np

    latencies = [r.times[-1] - r.sent for r in records]
    ttfts = [r.times[r.first] - r.sent for r in records]
    itls = [gap for r in records for gap in gaps(r)]
    return {
        "tokens_per_s": sum(r.tokens for r in records) / seconds,
        "edges_per_s": sum(r.edges for r in records) / seconds,
        "latency_p50_ms": np.percentile(latencies, 50) * 1e3,
        "latency_p90_ms": np.percentile(latencies, 90) * 1e3,
        "ttft_p50_ms": np.percentile(ttfts, 50) * 1e3,
        "ttft_p90_ms": np.percentile(ttfts, 90) * 1e3,
        "itl_p50_ms": np.percentile(itls, 50) * 1e3,
        "itl_p99_ms": np.percentile(itls, 99) * 1e3,
    }


#: per-unit metrics and their units
PER_UNIT = {
    "tokens_per_s": "tok/s",
    "edges_per_s": "edges/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ttft_p50_ms": "ms",
    "ttft_p90_ms": "ms",
    "itl_p50_ms": "ms",
    "itl_p99_ms": "ms",
}


def end_to_end(result, setup_s: float, slo) -> dict:
    """Every end-to-end metric of ``BENCHMARK.json`` from one measured pass.

    A pass repeats one unit of work (an epoch, a job, a session) until its
    time is up, and every unit sends the same requests.  Rates and
    percentiles are taken per unit and each is reported as the median over
    the units.  SLO attainment counts every request sent, and a failed or
    refused request misses it.
    """
    done = [r for r in result.records if r.tokens]
    per_unit = [
        _unit_metrics([r for r in done if r.unit == unit], seconds)
        for unit, seconds in enumerate(result.unit_s)
        if any(r.unit == unit for r in done)
    ]
    ttft_limit, itl_limit = slo
    attained = sum(
        1
        for r in done
        if not r.failed
        and r.times[r.first] - r.sent <= ttft_limit
        and (len(gaps(r)) == 0 or statistics.fmean(gaps(r)) <= itl_limit)
    )
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for name, unit in PER_UNIT.items():
        value = statistics.median(float(m[name]) for m in per_unit)
        metrics[name] = {"value": value, "unit": unit}
    metrics["slo_attain_frac"] = {"value": attained / len(result.records), "unit": "ratio"}
    metrics["rss_peak_mib"] = {"value": result.rss_mib, "unit": "MiB"}
    samples = {
        "requests": len(result.records),
        "completed": len(done),
        "units": len(per_unit),
        "itl_gaps": sum(len(gaps(r)) for r in done),
    }
    return metrics, samples


def measure(workload, seconds: float):
    """Set up ``SETUP_REPEATS`` times, measure one pass on the last stack, verify."""
    setups = []
    for repeat in range(SETUP_REPEATS):
        started = time.perf_counter()
        stack = workload.setup()
        setups.append(time.perf_counter() - started)
        if repeat < SETUP_REPEATS - 1:
            workload.close(stack)
    try:
        result = workload.run(stack, seconds=seconds)
    finally:
        workload.close(stack)
    failed = workload.verify(result)
    metrics, samples = end_to_end(result, statistics.median(setups), workload.SLO)
    samples["setup_repeats"] = SETUP_REPEATS
    return metrics, samples, len(result.records), failed


def traced(workload, seconds: float, env: dict):
    """An untraced pass, then the same work traced on a fresh stack."""
    from layers import PER_LAYER
    from tracer import Tracer

    stack = workload.setup()
    try:
        base = workload.run(stack, seconds=seconds)
    finally:
        workload.close(stack)
    stack = workload.setup()
    tracer = Tracer()
    tracer.install()
    try:
        result = workload.run(stack, units=base.units, tracer=tracer)
    finally:
        tracer.uninstall()
        workload.close(stack)
    context = dict(result.context)
    context["overhead_frac"] = result.busy_s / base.busy_s - 1.0
    context.setdefault("useful_edges", 0)
    values = tracer.layer_metrics(context)
    SCRATCH.mkdir(exist_ok=True)
    tracer.dump(
        SCRATCH / f"trace-{workload.name}.npz",
        {"env": env, "metrics": values, "units": base.units},
    )
    tracer.check(workload.name)
    failed = workload.verify(base) + workload.verify(result)
    units = {entry["name"]: entry["unit"] for entry in PER_LAYER}
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    samples = {"spans": len(tracer.starts), "units": base.units}
    return metrics, samples, len(base.records) + len(result.records), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    for var in THREAD_VARS:
        os.environ[var] = "1"
    # the compiled backend builds under the temporary directory: keep it
    # inside the checkout, and remove it when the run ends
    tmp = SCRATCH / f"tmp-{os.getpid()}"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy as np

        import workloads
        from repro.core import compiled
    except ImportError as exc:
        print(f"perfbench: cannot import the program under {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")

    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.prepare()
        env = {
            "commit": _commit(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
        }
        if args.trace:
            metrics, samples, attempted, failed = traced(workload, args.seconds, env)
        else:
            metrics, samples, attempted, failed = measure(workload, args.seconds)
        env["compiled_backend"] = compiled.backend()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print("env " + json.dumps(env, sort_keys=True))
    print("samples " + json.dumps(samples, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
