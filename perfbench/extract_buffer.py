"""Workload ``extract_buffer``: the paper's extraction flow on the output buffer.

One *pass* is the whole flow: an in-process sine sweep of the buffer at
three training amplitudes (the ROADMAP quickstart), combined TFT, RVF at
``error_bound=1e-3``, ``compile_model``, then ``validate_model`` against the
engine on two held-out sine amplitudes.  The engine (``circuit``),
``sweep``, ``tft``, ``vectfit``, ``rvf`` and the ``runtime`` compile and
validation do all the work; ``serve``, ``gateway`` and ``telemetry`` do
none.  The sweep runs in-process: two worker processes were no faster on a
two-core box, and in-process every layer stays visible to the wrappers.

The seed draws one held-out amplitude from [0.15, 0.40].  The other is
fixed at 0.45: validation error grows with amplitude over the training
range, so the reported maximum is the 0.45 probe's on every seed and
``validate_rel_rmse`` is a deterministic number: every pass must reproduce
:data:`EXPECTED_REL_RMSE` and :data:`EXPECTED_POLES`, or it counts as failed.

The three timed figures are distinct stages of a pass: ``extract_s`` is the
whole pass, ``latency_p50_ms`` the fit (simulated sweep to compiled model:
TFT, RVF and ``compile_model``) and ``samples_per_s`` the samples simulated
(the training sweep's accepted time steps and the validation grid) per
second of simulation (the training sweep and the validation replay).
"""

from __future__ import annotations

import numpy as np

import repro.runtime as runtime
import repro.sweep as sweep
from repro.circuit import Sine, TransientOptions
from repro.circuits import build_output_buffer
from repro.rvf import RVFOptions, extract_rvf_model

from harness import (SETUP_REPEATS, Outcome, Yardstick, median, now,
                     peak_rss_mb, success_rate, timed_child)
from tracing import Spans, Wrappers

OFFSET = 0.9
FREQUENCY = 2e6
TRAINING_AMPLITUDES = (0.1, 0.25, 0.5)
PROBE_AMPLITUDE = 0.45
TRANSIENT = TransientOptions(t_stop=5e-7, dt=3.3e-9)
ERROR_BOUND = 1e-3
MAX_SNAPSHOTS = 100
#: A held-out relative RMSE above ten times the extraction bound means the
#: model no longer stands in for the circuit (it measures 0.0083).
VALIDATE_LIMIT = 10 * ERROR_BOUND
#: What every pass must reproduce: the held-out maximum relative RMSE (to
#: floating-point noise) and the (frequency, state) pole counts.
EXPECTED_REL_RMSE = 0.00829951775009448
EXPECTED_POLES = (4, 16)
RMSE_RTOL = 1e-6
MIN_PASSES = 4

#: What a user pays before the first extraction: imports and circuit build.
SETUP_CODE = """
import repro.circuit, repro.circuits, repro.rvf, repro.runtime, repro.sweep
from repro.circuit import Sine
from repro.circuits import build_output_buffer
build_output_buffer(input_waveform=Sine(0.9, 0.5, 2e6)).build()
"""


def held_out_amplitudes(seed: int) -> tuple[float, float]:
    rng = np.random.default_rng(seed)
    return (float(rng.uniform(0.15, 0.40)), PROBE_AMPLITUDE)


def scenarios(amplitudes, prefix: str):
    return sweep.waveform_sweep(
        build_output_buffer,
        [Sine(OFFSET, a, FREQUENCY) for a in amplitudes],
        transient=TRANSIENT, prefix=prefix)


def extraction_pass(training, held_out):
    """Sweep -> TFT -> RVF -> compile -> validate; every call goes through
    the public entry points the tracing wrappers replace.  The last item
    returned holds the wall times of the fit (``fit_s``: TFT, RVF, compile)
    and of the rest, which is simulation (``simulate_s``: the training sweep
    and the validation replay)."""
    t0 = now()
    result = sweep.run_sweep(training, sweep.SweepOptions(n_workers=1))
    t1 = now()
    dataset = result.extract_combined_tft(max_snapshots=MAX_SNAPSHOTS)
    extraction = extract_rvf_model(dataset, RVFOptions(error_bound=ERROR_BOUND))
    states = dataset.state_axis()
    compiled = runtime.compile_model(
        extraction.model, dt=TRANSIENT.dt,
        input_range=(float(states.min()), float(states.max())))
    t2 = now()
    report = runtime.validate_model(compiled, held_out)
    return result, extraction, compiled, report, {
        "fit_s": t2 - t1, "simulate_s": (t1 - t0) + (now() - t2)}


def run(seed: int, seconds: float, trace: bool, quick: bool = False) -> Outcome:
    out = Outcome()
    training = scenarios(TRAINING_AMPLITUDES, "train")
    held_out = scenarios(held_out_amplitudes(seed), "held")

    setup, setup_stick = [], Yardstick()
    for _ in range(1 if quick else SETUP_REPEATS):
        setup_stick.sample()
        setup.append(timed_child(SETUP_CODE))
        setup_stick.sample()
    extraction_pass(training, held_out)     # lazy imports and first-call caches

    spans = Spans()
    wrappers = Wrappers(spans)
    passes = []
    stick = Yardstick()
    start = now()
    while now() - start < seconds or len(passes) < MIN_PASSES:
        before = stick.sample()
        traced = trace and len(passes) % 2 == 1
        mark, n_transients = spans.mark(), len(spans.transients)
        if traced:
            wrappers.install()
        t0 = now()
        try:
            result, extraction, _, report, stages = extraction_pass(training,
                                                                    held_out)
            elapsed = now() - t0
        finally:
            if traced:
                wrappers.remove()
        factor = stick.factor(before, stick.sample())
        out.attempted += 1
        rmse = report.max_relative_rmse
        poles = (extraction.n_frequency_poles, extraction.n_state_poles)
        ok = (out.check("validate_within_limit", rmse <= VALIDATE_LIMIT)
              & out.check("validate_rel_rmse_expected",
                          abs(rmse - EXPECTED_REL_RMSE) <= RMSE_RTOL * EXPECTED_REL_RMSE)
              & out.check("poles_expected", poles == EXPECTED_POLES))
        out.failed += not ok
        samples = (sum(r.transient.accepted_steps for r in result.results)
                   + sum(row.n_steps for row in report.rows))
        passes.append({"seconds": elapsed, "traced": traced, "factor": factor,
                       **stages,
                       "samples": samples, "rmse": rmse, "mark": mark,
                       "transients": (n_transients, len(spans.transients)),
                       "n_frequency_poles": extraction.n_frequency_poles,
                       "n_state_poles": extraction.n_state_poles})

    plain = [p for p in passes if not p["traced"]]
    plain_s = [p["seconds"] for p in plain]
    out.detail = {"passes": len(passes), "pass_seconds": [p["seconds"] for p in passes],
                  "fit_seconds": [p["fit_s"] for p in passes],
                  "simulate_seconds": [p["simulate_s"] for p in passes],
                  "rel_rmse": [p["rmse"] for p in passes],
                  "speed_factors": [p["factor"] for p in passes],
                  "setup_seconds": setup, "held_out": held_out_amplitudes(seed),
                  "setup_speed_scale": setup_stick.scale()}
    if not trace:
        # Every figure here is CPU-bound work: reported in reference-speed
        # seconds (see harness.Yardstick), each pass scaled by its own
        # samples; set-up runs in child interpreters, which per-child
        # samples in this process track worse than their median does.  The
        # raw times are in the detail.
        out.put("setup_s", setup_stick.scale() * median(setup), "s")
        out.put("extract_s", median(p["seconds"] * p["factor"] for p in plain), "s")
        out.put("validate_rel_rmse", max(p["rmse"] for p in passes), "ratio")
        out.put("latency_p50_ms",
                1e3 * median(p["fit_s"] * p["factor"] for p in plain), "ms")
        out.put("samples_per_s",
                median(p["samples"] / (p["simulate_s"] * p["factor"]) for p in plain),
                "1/s")
    else:
        _per_layer(out, spans, [p for p in passes if p["traced"]], plain_s)
    out.put("peak_rss_mb", peak_rss_mb(), "MB")
    out.put("success_rate", success_rate(out.attempted, out.failed), "ratio")
    out.spans = spans if trace else None
    return out


def _per_layer(out: Outcome, spans: Spans, traced: list, plain_s: list) -> None:
    def per_pass(name):
        return median(sum(spans.durations(name, p["mark"], nxt))
                      for p, nxt in zip(traced, [q["mark"] for q in traced[1:]] + [None]))

    for metric, span in (("sweep.run_s", "sweep.run"),
                         ("circuit.transient_s", "circuit.transient"),
                         ("tft.extract_s", "tft.extract"),
                         ("vectfit.frequency_fit_s", "vectfit.frequency_fit"),
                         ("rvf.state_fit_s", "rvf.state_fit"),
                         ("runtime.compile_s", "runtime.compile"),
                         ("runtime.validate_sim_s", "runtime.validate_sim"),
                         ("runtime.validate_model_s", "runtime.validate_model")):
        out.put(metric, per_pass(span), "s")

    # Engine counters of one pass (training sweep plus validation replay);
    # deterministic, so any traced pass gives the same numbers.
    first, last = traced[0]["transients"]
    counters = spans.transients[first:last]
    total = {k: sum(c[k] for c in counters) for k in counters[0]}
    out.put("circuit.newton_iters", total["newton_iterations"], "count")
    out.put("circuit.steps_accepted", total["accepted_steps"], "count")
    out.put("circuit.steps_rejected", total["rejected_steps"], "count")
    out.put("circuit.factorizations", total["cache_factorizations"], "count")
    out.put("circuit.lu_reuse_ratio",
            total["cache_reuses"] / max(total["cache_solves"], 1), "ratio")
    out.put("rvf.n_frequency_poles", traced[0]["n_frequency_poles"], "count")
    out.put("rvf.n_state_poles", traced[0]["n_state_poles"], "count")
    out.put("trace.overhead_ratio",
            median(p["seconds"] for p in traced) / median(plain_s), "ratio")
