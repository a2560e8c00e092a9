"""Per-layer spans for the traced run, recorded from outside the program.

:class:`Wrappers` swaps each layer's public entry point (a module or class
attribute) for a timing wrapper and puts the original back afterwards;
nothing under ``src/`` changes.  Spans go to an in-memory :class:`Spans`
recorder and are written to disk once, when the run ends.

Wrapped entry points, by layer:

* ``circuit``: ``transient_analysis`` as bound in ``repro.sweep.runner``
  (every scenario of a sweep runs through it), plus the exact counters of
  the ``TransientResult`` it returns;
* ``sweep``: ``repro.sweep.run_sweep``;
* ``tft``: ``SweepResult.extract_combined_tft``;
* ``vectfit`` / ``rvf``: ``fit_auto_order`` / ``fit_residue_trajectories``
  as bound in ``repro.rvf.extract``;
* ``runtime``: ``repro.runtime.compile_model``, ``run_sweep`` as bound in
  ``repro.runtime.validate`` (the simulator half of a validation),
  ``CompiledModel.evaluate`` (its model half) and ``ModelRegistry.load``;
* ``serve``: ``ModelServer.__init__`` (server and worker start),
  ``ModelServer.submit`` (a span from submit to its future resolving,
  keyed by ``future.trace_id``) and ``ShardPool.evaluate`` (one span per
  batch, carrying the batch's ``trace_ids``);
* ``gateway``: ``Gateway.start``.  Client request spans are recorded by
  the load generator itself.
"""

from __future__ import annotations

import functools
import time

import repro.rvf.extract as rvf_extract
import repro.runtime as runtime_pkg
import repro.runtime.validate as runtime_validate
import repro.sweep as sweep_pkg
import repro.sweep.runner as sweep_runner
from repro.gateway import Gateway
from repro.runtime import CompiledModel, ModelRegistry
from repro.serve import ModelServer, ShardPool
from repro.sweep.runner import SweepResult

now = time.perf_counter


def stimulus_id(samples) -> int:
    """Links a client request to the server-side trace id of its stimulus."""
    return hash(samples.tobytes())


class Spans:
    """In-memory span store: ``(name, start, end, link)`` tuples.

    ``list.append`` is atomic under the interpreter lock, so lane, gateway
    and client threads record without a lock of their own.
    """

    def __init__(self) -> None:
        self.records: list[tuple] = []
        #: stimulus_id -> server trace id (filled by the submit wrapper).
        self.trace_of: dict[int, int] = {}
        #: Counters of every TransientResult seen, in call order.
        self.transients: list[dict] = []
        #: (rows, n_steps) of every ShardPool batch.
        self.batch_shapes: list[tuple] = []

    def add(self, name: str, start: float, end: float, link=None) -> None:
        self.records.append((name, start, end, link))

    def mark(self) -> int:
        """Position to slice from, so a caller can attribute spans to one
        pass or window."""
        return len(self.records)

    def durations(self, name: str, since: int = 0, until: int | None = None) -> list:
        return [end - start for n, start, end, _ in self.records[since:until]
                if n == name]

    def linked(self, name: str, since: int = 0) -> dict:
        """``{link: duration}`` of the named spans recorded since ``since``."""
        return {link: end - start for n, start, end, link
                in self.records[since:] if n == name}

    def as_json(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e,
                           "link": list(k) if isinstance(k, tuple) else k}
                          for n, s, e, k in self.records],
                "transients": self.transients,
                "batch_shapes": self.batch_shapes}


def _timed(spans: Spans, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = now()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.add(name, start, now())
    return wrapper


def _transient(spans: Spans, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = now()
        result = fn(*args, **kwargs)
        spans.add("circuit.transient", start, now())
        spans.transients.append({
            "newton_iterations": result.newton_iterations,
            "accepted_steps": result.accepted_steps,
            "rejected_steps": result.rejected_steps,
            "cache_factorizations": result.cache_factorizations,
            "cache_reuses": result.cache_reuses,
            "cache_solves": result.cache_solves})
        return result
    return wrapper


def _submit(spans: Spans, fn):
    @functools.wraps(fn)
    def wrapper(self, key, samples):
        start = now()
        future = fn(self, key, samples)
        spans.add("serve.submit", start, now())
        trace_id = future.trace_id
        spans.trace_of[stimulus_id(samples)] = trace_id
        future.add_done_callback(
            lambda _: spans.add("serve.request", start, now(), trace_id))
        return future
    return wrapper


def _shard_evaluate(spans: Spans, fn):
    @functools.wraps(fn)
    def wrapper(self, key, inputs, *args, **kwargs):
        start = now()
        try:
            return fn(self, key, inputs, *args, **kwargs)
        finally:
            spans.add("serve.shards.evaluate", start, now(),
                      tuple(kwargs.get("trace_ids") or ()))
            spans.batch_shapes.append(tuple(inputs.shape))
    return wrapper


#: (owner, attribute, wrapper factory) of every wrapped entry point.
TARGETS = (
    (sweep_runner, "transient_analysis", _transient),
    (sweep_pkg, "run_sweep", lambda s, f: _timed(s, "sweep.run", f)),
    (SweepResult, "extract_combined_tft",
     lambda s, f: _timed(s, "tft.extract", f)),
    (rvf_extract, "fit_auto_order",
     lambda s, f: _timed(s, "vectfit.frequency_fit", f)),
    (rvf_extract, "fit_residue_trajectories",
     lambda s, f: _timed(s, "rvf.state_fit", f)),
    (runtime_pkg, "compile_model", lambda s, f: _timed(s, "runtime.compile", f)),
    (runtime_validate, "run_sweep",
     lambda s, f: _timed(s, "runtime.validate_sim", f)),
    (CompiledModel, "evaluate",
     lambda s, f: _timed(s, "runtime.validate_model", f)),
    (ModelRegistry, "load", lambda s, f: _timed(s, "runtime.registry_load", f)),
    (ModelServer, "__init__", lambda s, f: _timed(s, "serve.start", f)),
    (ModelServer, "submit", _submit),
    (ShardPool, "evaluate", _shard_evaluate),
    (Gateway, "start", lambda s, f: _timed(s, "gateway.start", f)),
)

#: The entry points as imported, before any wrapper could be installed.
ORIGINALS = tuple(owner.__dict__[attr] for owner, attr, _ in TARGETS)


class Wrappers:
    """Installs and removes the timing wrappers of :data:`TARGETS`."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans

    def install(self) -> None:
        for (owner, attr, factory), original in zip(TARGETS, ORIGINALS):
            setattr(owner, attr, factory(self.spans, original))

    def remove(self) -> None:
        for (owner, attr, _), original in zip(TARGETS, ORIGINALS):
            setattr(owner, attr, original)


def installed() -> list[str]:
    """Names of the entry points that are not their original right now."""
    return [f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr, _), original in zip(TARGETS, ORIGINALS)
            if owner.__dict__[attr] is not original]
