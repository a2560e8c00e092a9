"""Benchmark of the extraction-to-serving pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metrics are declared in ``BENCHMARK.json`` at the repository
root; each workload's module says why it exists and which layers it
isolates.  ``--trace 0`` measures the end-to-end metrics with no wrapper
installed (and fails if one is); ``--trace 1`` installs the per-layer
wrappers of ``tracing.py`` and reports the per-layer metrics, a layer the
workload never reaches reading 0.  Spans are written to
``perfbench/_work/<workload>-seed<N>.trace.json`` when a traced run ends.

Every workload reports every end-to-end metric, each on the workload's own
unit of work (a pass of the extraction flow, an online request, a bulk
``serve`` call):

=================  ==================  ====================  ===================
metric             extract_buffer      serve_online          bulk_offline
=================  ==================  ====================  ===================
setup_s            imports + circuit   registry load, server, workers, gateway
                   build (fresh        and warm-up (median of repeats)
                   interpreters)
peak_rss_mb        this process plus its largest reaped child
success_rate       1 - error_rate: operations that failed or were wrong, over
                   operations attempted (kept off zero, unlike error_rate)
extract_s          one extraction      rebuilding the served model from the
                   pass, median        fixture (from_dict + compile_model)
validate_rel_rmse  max relative RMSE against the engine on held-out sines,
                   checked against its recorded value every run:
                   validate_model      the fixture's held-out stimuli, served
latency_p50_ms     median fit: TFT,    median request,       median 512-row
                   RVF and compile     from its due time     call
samples_per_s      samples simulated   output samples served per CPU-second
                   per second of       of the process tree (this process and
                   simulation (sweep   its shard worker)
                   and validation)     raw CPU-seconds       reference-speed
=================  ==================  ====================  ===================

CPU-bound timings (every time on ``extract_buffer``, the ``bulk_offline``
calls, ``setup_s`` and ``extract_s`` everywhere) are reported in
reference-speed seconds: wall (or CPU) time scaled by a machine-speed
yardstick sampled just before and just after each operation
(``harness.Yardstick``), because a shared two-core VM runs such work up to
1.6x slower for minutes at a time.  The raw times and the scale factors are
on the detail line.  Online latencies are raw wall-clock: the coalescing
window dominates them, and they hold steadier unscaled.  Serving throughput
counts CPU-seconds (``harness.cpu_seconds``), to which time the process
spends descheduled by its neighbours does not add; online they are raw,
because the yardstick cannot be sampled inside an open-loop window without
delaying its requests.
The online p99 is a per-layer figure of the traced run
(``loadgen.latency_p99_ms``), not a gated one: on two shared cores it moved
2x between runs with the machine's speed.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it carries the machine fingerprint, the raw
populations behind the medians and the share of the machine's CPU time the
hypervisor stole during the run.  ``--quick`` shrinks every workload for
the self-test (``test_selftest.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

from harness import (ROOT, SRC, WORK, cpu_jiffies, dump, fingerprint,
                     stop_children)

WORKLOADS = ("extract_buffer", "serve_online", "bulk_offline")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes, for the self-test")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    import tracing                       # captures the unwrapped entry points
    if args.workload == "extract_buffer":
        from extract_buffer import run
    else:
        import serving
        run = getattr(serving, args.workload)

    steal, total = cpu_jiffies()
    try:
        outcome = run(args.seed, args.seconds, bool(args.trace), args.quick)
        now_steal, now_total = cpu_jiffies()
        outcome.detail["host_steal_share"] = (now_steal - steal) / max(now_total - total, 1)
    finally:
        shutil.rmtree(os.path.join(WORK, f"{args.workload}-{os.getpid()}"),
                      ignore_errors=True)
    if not args.trace and tracing.installed():
        print(f"untraced run left wrappers installed: {tracing.installed()}",
              file=sys.stderr)
        return 3

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for entry in declared:
        value, unit = outcome.metrics.get(entry["name"], (None, entry["unit"]))
        if value is None:
            if not args.trace:
                raise RuntimeError(f"{args.workload} did not measure {entry['name']}")
            value = 0.0                  # the workload never reaches this layer
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']} measured in {unit}, "
                               f"declared in {entry['unit']}")
        metrics[entry["name"]] = {"value": value, "unit": unit}

    if outcome.spans is not None:
        dump(os.path.join(WORK, f"{args.workload}-seed{args.seed}.trace.json"),
             outcome.spans.as_json())
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "fingerprint": fingerprint(),
                      "checks": outcome.checks, "detail": outcome.detail}))
    print(json.dumps({"correct": outcome.correct,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()                  # on every way out, a failure too
    sys.exit(code)
