"""Workloads ``serve_online`` and ``bulk_offline``: the extracted model in service.

Both serve the paper's buffer model, rebuilt from the committed fixture
``buffer_model.json`` (``HammersteinModel.from_dict`` -> ``compile_model``),
so extraction changes cannot move serving numbers.  Both use
the same :data:`POLICY`: ``ServePolicy(max_batch=64, max_wait=10e-3)`` with
one shard worker.

``serve_online`` is an open loop: Poisson arrivals at 100 req/s of
256-sample stimuli, sent by one ``AsyncGatewayClient`` thread over one TCP
connection to a ``Gateway`` -> ``ModelServer`` in this process, with a live
``MetricsAggregator`` subscribed as an operator's dashboard would be.
Latency runs from each request's *due* time, so a stall also charges the
requests queued behind it.  It exercises ``gateway``, ``telemetry``, the
coalescing window and the kernel at tiny shapes (1-4 rows x 256).  Served
req/s is not reported: under an open loop it equals the offered rate.  Its
``samples_per_s`` is instead the served output samples per CPU-second the
whole serving process tree (server, gateway, aggregator, load generator and
shard worker) spent over the window: the cost of serving the offered load,
which every layer on the path can move.

``bulk_offline`` calls ``ModelServer.serve(key, stimuli)`` in-process, 512
rows at a time, cycling through 4096 x 1024 stimuli, with no gateway and no
telemetry subscriber: the kernel runs batches of up to 64 x 1024 and large
payloads cross the shared-memory dataplane, while ``gateway`` and
``telemetry`` do nothing.  Its calls are CPU-bound, so they are reported
in reference-speed seconds (see ``harness.Yardstick``, sampled just before
and just after every call): ``latency_p50_ms`` is the median call's wall
time, ``samples_per_s`` output samples per CPU-second of the process tree
(this process and the shard worker).

Every served row must be bitwise-equal to an in-process
``CompiledModel.evaluate`` of the same stimulus (float64 wire); a row that
is not counts as failed.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

import repro.runtime as runtime
from repro.analysis import batched_waveform_errors
from repro.exceptions import GatewayError
from repro.gateway import AsyncGatewayClient, Gateway
from repro.runtime import ModelRegistry, evaluate_batch, shard_slices
from repro.rvf import HammersteinModel
from repro.serve import ModelServer, ServePolicy
from repro.telemetry import MetricsAggregator

from extract_buffer import OFFSET, VALIDATE_LIMIT
from harness import (SETUP_REPEATS, Outcome, Yardstick, cpu_seconds,
                     load_fixture, median, now, peak_rss_mb, percentile,
                     success_rate, work_dir)
from tracing import Spans, Wrappers, stimulus_id

#: One shard worker.  The kernel's cost is its per-step loop more than its
#: rows, so on two cores a second worker only doubles the per-batch CPU
#: online (1-4 rows) and gains 10% in bulk (64 rows), while the worker, the
#: main process and the machine's neighbours then fight over both cores:
#: over ten runs straddling slow stretches of the shared machine, the online
#: median latency spread 25% with two workers and 17% with one, and the
#: bulk call time spread 27% with two.
POLICY = ServePolicy(max_batch=64, max_wait=10e-3, n_workers=1)
#: Model rebuilds timed for ``extract_s`` on each side of the timed window;
#: one takes a few milliseconds, so many are timed for a steady median (at
#: 50 a side the figure spread 10-16% over ten runs).
BUILD_REPEATS = 200
#: Offered load.  At 200 req/s the serving process (gateway, batcher,
#: aggregator and load generator under one interpreter lock) used two
#: thirds of a core, and in a slow stretch of the shared machine the median
#: latency doubled as requests queued (17 -> 31 ms).  At 100 req/s the
#: whole process tree uses under half a core.
ONLINE_RATE = 100.0
ONLINE_STEPS = 256
#: The load generator itself must keep to its schedule: a run whose sends
#: ran later than this at p99 (twice the coalescing window) offered less
#: than the stated load, so it is invalid.  On two cores it measures 2-5 ms,
#: and 10-20 ms in the shared machine's slowest stretches.
LATE_LIMIT_MS = 20.0
#: How long after the last due time every reply must be in; anything still
#: missing then is a backlog and makes the run invalid.
DRAIN_S = 2.0
#: Requests per p99 window: ten lie beyond each window's p99.
P99_WINDOW = 1000
BULK_ROWS = 4096
#: Rows per ``serve`` call (eight full batches), cycling through the
#: stimuli.  Whole 4096-row calls take 3-6 s each, and the neighbours' bursts
#: on a shared two-core machine land in every one of them: over ten runs the
#: median call spread 27%.  Many short calls let the median step round them.
CALL_ROWS = 512
BULK_STEPS = 1024
WARM_ROWS = 2 * POLICY.max_batch
#: Batches replayed in-process for ``runtime.kernel_ms``.
KERNEL_BATCHES = 32
FUTURE_TIMEOUT = 60.0
#: Served rows are bitwise those of the in-process kernel, so the held-out
#: RMSE may differ from the fixture's only by summation-order noise.
HELD_OUT_RTOL = 1e-9


def sine_stimuli(rng, n_rows: int, n_steps: int, dt: float) -> np.ndarray:
    """Random sines inside the model's training excursion, on its grid."""
    t = dt * np.arange(n_steps)
    amplitude = rng.uniform(0.1, 0.45, (n_rows, 1))
    frequency = rng.uniform(1e6, 8e6, (n_rows, 1))
    phase = rng.uniform(0.0, 2.0 * np.pi, (n_rows, 1))
    return OFFSET + amplitude * np.sin(2.0 * np.pi * frequency * t + phase)


def build_model(fixture: dict):
    model = HammersteinModel.from_dict(fixture["model"])
    return runtime.compile_model(model, dt=fixture["dt"],
                                 input_range=tuple(fixture["input_range"]))


def time_builds(fixture: dict, builds: list, stick: Yardstick):
    """Rebuild the served model :data:`BUILD_REPEATS` times in blocks of
    ten, sampling ``stick`` around each block, and append each rebuild's
    time in reference-speed seconds (CPU-bound work, like every time of
    ``extract_buffer``; see harness.Yardstick) to ``builds``.  The last
    model built is returned."""
    before = stick.sample()
    for _ in range(BUILD_REPEATS // 10):
        block = []
        for _ in range(10):
            start = now()
            compiled = build_model(fixture)
            block.append(now() - start)
        after = stick.sample()
        builds.extend(t * stick.factor(before, after) for t in block)
        before = after
    return compiled


def put_extract_s(out: Outcome, builds: list, stick: Yardstick) -> None:
    out.put("extract_s", median(builds), "s")
    out.detail["build_speed_scale"] = stick.scale()


def prepare(tag: str):
    """Rebuild the served model from the fixture and register it.  Input
    generation, so not part of ``setup_s``; the rebuilds are timed for
    ``extract_s``, half here and half after the timed window, so that one
    slow stretch of the machine cannot set the median."""
    fixture = load_fixture()
    builds, stick = [], Yardstick()
    compiled = time_builds(fixture, builds, stick)
    registry = ModelRegistry(work_dir(tag))
    key = registry.save(compiled)
    return fixture, compiled, registry.root, key, (builds, stick)


def reference_outputs(compiled, stimuli: np.ndarray) -> np.ndarray:
    """In-process ``CompiledModel.evaluate`` of every stimulus, one batch
    shape at a time so the reference's workspace does not set the peak RSS
    (the kernel is bitwise chunk-invariant)."""
    step = POLICY.max_batch
    return np.vstack([compiled.evaluate(stimuli[i:i + step])
                      for i in range(0, len(stimuli), step)])


def check_held_out(out: Outcome, fixture: dict, compiled, served) -> None:
    """The fixture's held-out stimuli, served: bitwise against the in-process
    kernel, and against the engine's response with the maximum relative RMSE
    the fixture recorded (to floating-point noise).  One operation, failed
    if any check is."""
    held = fixture["held_out"]
    stimuli = np.asarray(held["stimuli"])
    errors = batched_waveform_errors(np.asarray(held["reference"]), served)
    rmse = float(errors.relative_rmse.max())
    expected = held["max_relative_rmse"]
    ok = (out.check("held_out_bitwise",
                    np.array_equal(served, compiled.evaluate(stimuli)))
          & out.check("validate_within_limit", rmse <= VALIDATE_LIMIT)
          & out.check("validate_rel_rmse_expected",
                      abs(rmse - expected) <= HELD_OUT_RTOL * expected))
    out.attempted += 1
    out.failed += not ok
    out.put("validate_rel_rmse", rmse, "ratio")


def _setup_repeats(start_one, quick: bool):
    """Run ``start_one`` (returns ``(handle, close)``) several times, closing
    all but the last; returns the kept handle and the median set-up time in
    reference-speed seconds (set-up is CPU-bound work, see
    harness.Yardstick), with the raw times."""
    times, kept, stick = [], None, Yardstick()
    for _ in range(1 if quick else SETUP_REPEATS):
        if kept is not None:
            kept[1]()
        stick.sample()
        start = now()
        kept = start_one()
        times.append(now() - start)
        stick.sample()
    return kept, stick.scale() * median(times), times


def _serve_stats(server) -> tuple[int, int]:
    stats = server.stats()
    return stats.n_batches, round(stats.mean_batch_size * stats.n_batches)


def _put_serve_layers(out: Outcome, spans: Spans, mark: int, server,
                      before: tuple, compiled, rows: np.ndarray) -> None:
    """Per-layer metrics of one traced window (spans recorded since ``mark``).

    Self times subtract linked spans: the gateway's is the client request
    span minus the server span of the same trace id, the server's wait is
    its span minus the shard span of the batch that carried it.
    """
    requests = spans.linked("serve.request", mark)
    clients = spans.linked("loadgen.request", mark)
    batches = [(link, d) for n, s, e, link in spans.records[mark:]
               if n == "serve.shards.evaluate" for d in [e - s]]
    shard_of = {t: d for link, d in batches for t in link}
    out.put("serve.request_ms", 1e3 * median(requests.values()), "ms")
    out.put("serve.shards.evaluate_ms", 1e3 * median(d for _, d in batches), "ms")
    out.put("serve.wait_ms", 1e3 * median(d - shard_of[t] for t, d in requests.items()
                                          if t in shard_of), "ms")
    out.put("serve.submit_us", 1e6 * median(spans.durations("serve.submit", mark)), "us")
    n_batches, n_rows = _serve_stats(server)
    out.put("serve.rows_per_batch",
            (n_rows - before[1]) / max(n_batches - before[0], 1), "count")
    if clients:
        out.put("loadgen.request_ms", 1e3 * median(clients.values()), "ms")
        out.put("gateway.self_ms", 1e3 * median(
            d - requests[t] for t, d in clients.items() if t in requests), "ms")
    pool = server.stats().pool
    out.put("serve.shards.respawns", pool["respawns"], "count")
    out.put("serve.shards.retried_jobs", pool["retried_jobs"], "count")

    # Workers are out of the wrappers' reach: replay the window's own batch
    # shapes, sharded as the pool shards them, through the kernel here.
    kernel, stage_out = [], []
    for shape in spans.batch_shapes[-KERNEL_BATCHES:]:
        for part in shard_slices(shape[0], server.policy.n_workers):
            timings = {}
            evaluate_batch(compiled, rows[part.start:part.stop, :shape[1]],
                           out=np.empty((part.stop - part.start, shape[1])),
                           timings=timings)
            kernel.append(timings["eval_s"])
            stage_out.append(timings["stage_out_s"])
    out.put("runtime.kernel_ms", 1e3 * median(kernel), "ms")
    out.put("runtime.stage_out_ms", 1e3 * median(stage_out), "ms")


def _put_setup_layers(out: Outcome, spans: Spans) -> None:
    for metric, span in (("runtime.registry_load_s", "runtime.registry_load"),
                         ("serve.start_s", "serve.start"),
                         ("gateway.start_s", "gateway.start")):
        out.put(metric, median(spans.durations(span)), "s")


# ------------------------------------------------------------ serve_online
def windowed_p99(latency_ms: np.ndarray) -> float:
    """Median over consecutive windows of at least :data:`P99_WINDOW`
    requests of each window's p99 (ten or more requests lie beyond it).  A
    short slow stretch of the shared machine moves one window, not the
    figure; a tail the server makes everywhere moves every window."""
    windows = np.array_split(latency_ms, max(1, len(latency_ms) // P99_WINDOW))
    return median(percentile(w[np.isfinite(w)], 99) for w in windows)


class LoadClient:
    """One ``AsyncGatewayClient`` on its own event-loop thread."""

    def __init__(self, address) -> None:
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       name="perfbench-client", daemon=True)
        self.thread.start()
        self.client = self.call(AsyncGatewayClient.connect(*address))

    def call(self, coro, timeout: float = FUTURE_TIMEOUT):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    def close(self) -> None:
        try:
            self.call(self.client.close())
        finally:
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(10.0)
            self.loop.close()

    async def open_loop(self, key: str, stimuli: np.ndarray,
                        offsets: np.ndarray, spans: Spans | None = None) -> dict:
        """Send ``stimuli[i]`` at ``offsets[i]`` seconds from now, whatever
        the replies do; returns per-request timings and outputs.  With
        ``spans``, each request's send-to-reply span is recorded under the
        server trace id of its stimulus."""
        n = len(offsets)
        late = np.zeros(n)
        latency = np.full(n, np.nan)
        outputs: list = [None] * n
        loop = asyncio.get_running_loop()

        async def one(i: int, due: float) -> None:
            sent = now()
            try:
                outputs[i] = await self.client.submit(key, stimuli[i])
            except GatewayError:
                return
            done = now()
            latency[i] = done - due
            if spans is not None:
                spans.add("loadgen.request", sent, done,
                          spans.trace_of.get(stimulus_id(stimuli[i])))

        t0 = now() + 0.05
        tasks = []
        for i in range(n):
            due = t0 + offsets[i]
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            late[i] = now() - due
            tasks.append(loop.create_task(one(i, due)))
        _, pending = await asyncio.wait(tasks, timeout=DRAIN_S)
        for task in pending:
            task.cancel()
        await asyncio.gather(*pending, return_exceptions=True)
        return {"late": late, "latency": latency, "outputs": outputs,
                "backlog": len(pending)}


def serve_online(seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    out = Outcome()
    fixture, compiled, root, key, (builds, stick) = prepare("serve_online")
    rng = np.random.default_rng(seed)
    n = max(1, int(ONLINE_RATE * seconds))
    offsets = np.cumsum(rng.exponential(1.0 / ONLINE_RATE, n))
    stimuli = sine_stimuli(rng, n, ONLINE_STEPS, compiled.dt)
    expected = reference_outputs(compiled, stimuli)
    warm = sine_stimuli(rng, POLICY.max_batch, ONLINE_STEPS, compiled.dt)

    spans = Spans()
    wrappers = Wrappers(spans)

    def start_one():
        registry = ModelRegistry(root)
        registry.load(key)
        server = ModelServer(registry, POLICY)
        aggregator = MetricsAggregator(server.telemetry,
                                       max_batch=POLICY.max_batch)
        gateway = Gateway(server).start()
        client = LoadClient(gateway.address)
        client.call(client.client.submit_many([(key, row) for row in warm]))

        def close():
            client.close()
            gateway.close()
            aggregator.close()
            server.close()
        return (server, aggregator, client), close

    if trace:
        wrappers.install()
    try:
        ((server, aggregator, client), close), setup_s, setup = \
            _setup_repeats(start_one, quick)
    finally:
        wrappers.remove()
    try:
        # Traced runs split the schedule: the first half untraced, the
        # second traced, so the two halves give the tracing overhead.
        halves = [slice(0, n // 2), slice(n // 2, n)] if trace else [slice(0, n)]
        results, layer_window = [], None
        for index, part in enumerate(halves):
            traced = trace and index == 1
            if traced:
                wrappers.install()
                layer_window = (spans.mark(), _serve_stats(server),
                                server.telemetry.n_published)
            cpu = cpu_seconds()
            try:
                result = client.call(client.open_loop(
                    key, stimuli[part], offsets[part] - offsets[part][0],
                    spans if traced else None), timeout=seconds + 60.0)
            finally:
                if traced:
                    wrappers.remove()
            result["cpu_s"] = cpu_seconds() - cpu
            results.append(result)
        held = np.vstack(client.call(client.client.submit_many(
            [(key, row) for row in np.asarray(fixture["held_out"]["stimuli"])])))
    finally:
        close()
    time_builds(fixture, builds, stick)

    outputs = [o for r in results for o in r["outputs"]]
    late_ms = 1e3 * np.concatenate([r["late"] for r in results])
    latency_ms = 1e3 * np.concatenate([r["latency"] for r in results])
    served = sum(o is not None for o in outputs)
    wrong = sum(o is not None and not np.array_equal(o, expected[i])
                for i, o in enumerate(outputs))
    out.attempted, out.failed = n, (n - served) + wrong
    out.check("served_bitwise", wrong == 0)
    out.check("no_backlog", served == n)
    out.check("loadgen_on_schedule", percentile(late_ms, 99) <= LATE_LIMIT_MS)
    out.check("no_telemetry_drops", aggregator.n_dropped == 0)
    check_held_out(out, fixture, compiled, held)
    out.detail = {"requests": n, "served": served, "setup_seconds": setup,
                  "late_p99_ms": percentile(late_ms, 99),
                  "cpu_seconds": [r["cpu_s"] for r in results],
                  "backlog": [r["backlog"] for r in results]}
    put_extract_s(out, builds, stick)

    if not trace:
        ok = latency_ms[np.isfinite(latency_ms)]
        out.put("setup_s", setup_s, "s")
        out.put("latency_p50_ms", median(ok), "ms")
        out.put("samples_per_s", served * ONLINE_STEPS / results[0]["cpu_s"], "1/s")
    else:
        _put_setup_layers(out, spans)
        mark, before, published = layer_window
        traced_requests = int(np.isfinite(results[1]["latency"]).sum())
        _put_serve_layers(out, spans, mark, server, before, compiled, stimuli)
        out.put("telemetry.events_per_request",
                (server.telemetry.n_published - published) / max(traced_requests, 1),
                "count")
        out.put("telemetry.dropped", aggregator.n_dropped, "count")
        out.put("loadgen.late_p99_ms", percentile(late_ms, 99), "ms")
        # The tail is reported here, ungated: on two shared cores it swings
        # 2x with the machine's speed from one run to the next.  Measured on
        # the untraced half.
        out.put("loadgen.latency_p99_ms",
                windowed_p99(1e3 * results[0]["latency"]), "ms")
        halves_p50 = [median(r["latency"][np.isfinite(r["latency"])]) for r in results]
        out.put("trace.overhead_ratio", halves_p50[1] / halves_p50[0], "ratio")
        out.spans = spans
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.put("success_rate", success_rate(out.attempted, out.failed), "ratio")
    return out


# ------------------------------------------------------------ bulk_offline
def bulk_offline(seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    out = Outcome()
    fixture, compiled, root, key, (builds, stick) = prepare("bulk_offline")
    rng = np.random.default_rng(seed)
    rows = BULK_ROWS // 8 if quick else BULK_ROWS
    stimuli = sine_stimuli(rng, rows, BULK_STEPS, compiled.dt)
    expected = reference_outputs(compiled, stimuli)

    spans = Spans()
    wrappers = Wrappers(spans)

    def start_one():
        registry = ModelRegistry(root)
        registry.load(key)
        server = ModelServer(registry, POLICY)
        server.serve(key, stimuli[:WARM_ROWS])
        return server, server.close

    if trace:
        wrappers.install()
    try:
        (server, close), setup_s, setup = _setup_repeats(start_one, quick)
    finally:
        wrappers.remove()
    calls, call_stick = [], Yardstick()
    try:
        start = now()
        while now() - start < seconds or len(calls) < (4 if trace else 2):
            traced = trace and len(calls) % 2 == 1
            if traced:
                wrappers.install()
                layer_window = (spans.mark(), _serve_stats(server))
            first = len(calls) * CALL_ROWS % rows
            part = slice(first, first + CALL_ROWS)
            before = call_stick.sample()
            cpu, t0 = cpu_seconds(), now()
            try:
                served = server.serve(key, stimuli[part])
                elapsed = now() - t0
                cpu = cpu_seconds() - cpu
            finally:
                if traced:
                    wrappers.remove()
            factor = call_stick.factor(before, call_stick.sample())
            wrong = int((~(served == expected[part]).all(axis=1)).sum())
            out.attempted += len(served)
            out.failed += wrong
            calls.append((elapsed, traced, cpu, factor))
        held = server.serve(key, np.asarray(fixture["held_out"]["stimuli"]))
        if trace:
            mark, before = layer_window     # the last traced call
            _put_serve_layers(out, spans, mark, server, before, compiled,
                              stimuli)
    finally:
        close()
    time_builds(fixture, builds, stick)

    out.check("served_bitwise", out.failed == 0)
    check_held_out(out, fixture, compiled, held)
    plain = [(s, c, f) for s, traced, c, f in calls if not traced]
    out.detail = {"calls": len(calls), "call_seconds": [s for s, *_ in calls],
                  "call_cpu_seconds": [c for _, _, c, _ in calls],
                  "call_speed_factors": [f for *_, f in calls],
                  "rows_per_call": CALL_ROWS, "setup_seconds": setup}
    put_extract_s(out, builds, stick)
    if not trace:
        # Each call in reference-speed seconds, scaled by its own yardstick
        # samples: its wall time for the latency, the CPU time of the process
        # tree for the throughput.
        out.put("setup_s", setup_s, "s")
        out.put("latency_p50_ms", 1e3 * median(s * f for s, _, f in plain), "ms")
        out.put("samples_per_s", len(plain) * CALL_ROWS * BULK_STEPS
                / sum(c * f for _, c, f in plain), "1/s")
    else:
        _put_setup_layers(out, spans)
        out.put("trace.overhead_ratio",
                median(s for s, traced, *_ in calls if traced)
                / median(s for s, _, _ in plain), "ratio")
        out.spans = spans
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.put("success_rate", success_rate(out.attempted, out.failed), "ratio")
    return out
