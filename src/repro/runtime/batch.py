"""Lock-step batched evaluation of compiled Hammerstein models.

This is the serving hot path: thousands of stimuli stacked into one
``(n_stimuli, n_steps)`` array and evaluated by a fixed, short sequence of
whole-array NumPy operations.  No Python runs per stimulus or per time step,
which is what buys the orders-of-magnitude margin over re-simulating each
stimulus through the full transient engine (the paper's reported speed-up,
multiplied across the batch axis).  The kernel has two phases:

* **lookup** -- one gather per sample from the model's folded
  :attr:`~repro.runtime.compiled.CompiledModel.drive_table` plus one
  multiply-add interpolate the static output and every branch's one-sample
  drive ``q_n`` at once; the drives land in a complex
  ``(n_branches, chunk, n_steps)`` array whose column 0 holds the
  equilibrium start ``z_0``.
* **scan** -- each branch's recurrence ``z_{n+1} = E z_n + q_n`` is an
  inclusive linear prefix scan, run in log steps (Hillis & Steele; Blelloch,
  "Prefix sums and their applications", 1990): pass ``s = 1, 2, 4, ...``
  adds ``E**s`` times the array shifted ``s`` samples along time (never
  across rows).  Once every ``E**s`` has underflowed to exactly zero the
  remaining passes would add exact zeros, so they are skipped: a model whose
  poles settle within a few samples needs a few passes at any length.  The
  output adds each branch's real part to the static row, branches in a fixed
  order.

Every operation is element-wise along the batch axis -- no reduction and no
matrix product crosses rows -- so a row's result does not depend on the batch
it rides in.  The batch axis is memory-chunked the same way
:func:`repro.circuit.linalg.batched_transfer` chunks its frequency axis: the
per-chunk workspace (interpolated maps, complex drives and the scan's shifted
copy) is kept below ``max_chunk_bytes``.  Chunking therefore never changes
results: the same batch evaluated with any chunk size is bitwise identical.
"""

from __future__ import annotations

import time

import numpy as np

from ..exceptions import ModelError

__all__ = ["evaluate_batch", "shard_slices", "stack_stimuli"]

#: Default bound on one call's kernel workspace.  A workspace of a few MiB
#: stays in cache and the allocator keeps reusing its pages; a far larger one
#: is mapped from the system and faulted in afresh by every call (on the
#: paper's buffer a 1000 x 256 batch took 22 ms with its whole 53 MB
#: workspace at once and 14 ms in 4 MiB blocks).
DEFAULT_CHUNK_BYTES = 4 << 20


def shard_slices(n_rows: int, n_shards: int) -> list[slice]:
    """Deterministic contiguous partition of a batch axis into shards.

    The canonical split used by the shard pool (:mod:`repro.serve.shards`):
    rows stay in order, the first ``n_rows % n_shards`` shards take one extra
    row (``np.array_split`` semantics), and empty trailing shards are
    dropped.  Because :func:`evaluate_batch` is element-wise along the batch
    axis and bitwise chunk-invariant, evaluating the slices independently and
    concatenating reproduces the single-process result bit for bit.
    """
    n_rows = int(n_rows)
    n_shards = max(1, min(int(n_shards), n_rows if n_rows else 1))
    base, extra = divmod(n_rows, n_shards)
    slices: list[slice] = []
    start = 0
    for i in range(n_shards):
        size = base + (1 if i < extra else 0)
        if size == 0:
            break
        slices.append(slice(start, start + size))
        start += size
    return slices


def stack_stimuli(waveforms, times: np.ndarray) -> np.ndarray:
    """Sample a collection of waveforms onto one time grid, shape ``(B, K)``.

    ``waveforms`` is an iterable of :class:`repro.circuit.waveforms.Waveform`
    (or plain callables); ``times`` the uniform serving grid, typically
    :meth:`CompiledModel.time_axis <repro.runtime.compiled.CompiledModel.
    time_axis>`.
    """
    times = np.asarray(times, dtype=float).ravel()
    rows = []
    for waveform in waveforms:
        sample = getattr(waveform, "sample", None)
        if callable(sample):
            rows.append(np.asarray(sample(times), dtype=float))
        else:
            rows.append(np.array([float(waveform(t)) for t in times]))
    if not rows:
        raise ModelError("stack_stimuli needs at least one waveform")
    return np.vstack(rows)


def evaluate_batch(model, inputs: np.ndarray,
                   max_chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                   out: np.ndarray | None = None,
                   timings: dict | None = None) -> np.ndarray:
    """Evaluate a :class:`~repro.runtime.compiled.CompiledModel` on a batch.

    Parameters
    ----------
    model:
        The compiled model (fixed ``dt``).
    inputs:
        Input samples on the model's uniform time grid: ``(B, K)`` for a batch
        of ``B`` stimuli, or 1-D ``(K,)`` for a single stimulus (returned
        shape matches the input shape).  Values outside the compiled
        ``[u_min, u_max]`` table span are clamped to the edges.
    max_chunk_bytes:
        Bound on the kernel's workspace, allocated once per call; the batch
        axis is split into blocks that fit it.
    out:
        Optional pre-allocated float64 output array of the same shape as
        ``inputs``; results are written into it and it is returned.  This is
        the zero-copy path of the shared-memory shard dataplane
        (:mod:`repro.serve.shards`): workers evaluate straight into their
        shared segment instead of materialising a result to pickle.
    timings:
        Optional dict the call **adds** its per-phase wall time into:
        ``lookup_s`` (table interpolation and drive layout), ``scan_s``
        (the recurrence scan and output sum), ``eval_s`` (their sum, the
        whole kernel) and ``stage_out_s`` (copying chunk results into
        ``outputs`` — for the shm dataplane, the write into the shared
        segment).  This is how shard workers attribute their stage timings
        without touching the tracer: the stamps ride the reply descriptor
        and the parent materialises the spans.
    """
    inputs = np.asarray(inputs, dtype=float)
    single = inputs.ndim == 1
    if single:
        inputs = inputs[None, :]
    if inputs.ndim != 2:
        raise ModelError(f"inputs must be (n_stimuli, n_steps); got {inputs.shape}")
    if out is not None:
        if out.shape != (inputs.shape[0], inputs.shape[1]) and not (
                single and out.shape == (inputs.shape[1],)):
            raise ModelError(
                f"out array shape {out.shape} does not match input shape "
                f"{inputs.shape[1:] if single else inputs.shape}")
        if out.dtype != np.float64:
            raise ModelError(f"out array must be float64; got {out.dtype}")
    n_batch, n_steps = inputs.shape
    if n_steps < 1:
        raise ModelError("need at least one time sample")
    if not np.isfinite(inputs).all():
        # NaN/Inf would sail through np.clip and the intp cast into undefined
        # table indices, silently producing garbage outputs for the whole row.
        finite = np.isfinite(inputs)
        bad_rows = np.flatnonzero(~finite.all(axis=1))
        first_row = int(bad_rows[0])
        first_step = int(np.flatnonzero(~finite[first_row])[0])
        raise ModelError(
            f"stimulus batch contains non-finite samples: {bad_rows.size} of "
            f"{n_batch} row(s) affected, first at row {first_row} (stimulus "
            f"{first_row}), step {first_step} "
            f"(value {inputs[first_row, first_step]!r})")

    # Every block is carved out of one buffer allocated per call: the kernel
    # then allocates nothing proportional to the batch, and the allocator
    # hands the same pages back call after call instead of returning them to
    # the system and faulting them in again (on the paper's buffer, per-
    # operation temporaries cost 2176 page faults and 7.6 ms per 64 x 1024
    # call; the one buffer, none and 2.3 ms).
    rows = sum(_workspace_layout(model.n_branches))
    chunk = max(1, int(max_chunk_bytes // (8 * n_steps * rows)))
    workspace = np.empty(min(chunk, n_batch) * n_steps * rows)

    if out is None:
        outputs = np.empty_like(inputs)
    else:
        outputs = out[None, :] if out.ndim == 1 else out
    spent = np.zeros(3)
    for start in range(0, n_batch, chunk):
        spent += _evaluate_block(model, inputs[start:start + chunk],
                                 outputs[start:start + chunk], workspace)
    if timings is not None:
        lookup_s, scan_s, stage_out_s = spent.tolist()
        for name, seconds in (("lookup_s", lookup_s), ("scan_s", scan_s),
                              ("eval_s", lookup_s + scan_s),
                              ("stage_out_s", stage_out_s)):
            timings[name] = timings.get(name, 0.0) + seconds
    return outputs[0] if single else outputs


def _workspace_layout(n_branches: int) -> tuple[int, int, int]:
    """Float64 slots per sample of the kernel workspace, for P branches: the
    gathered table rows with their slopes (2 * (1 + 2P)), the complex drives
    (2P) and scratch, holding the interpolation position and index during
    the lookup and the scan's shifted copy of the drives during the scan."""
    return 2 * (1 + 2 * n_branches), 2 * n_branches, max(2, 2 * n_branches)


def _evaluate_block(model, u: np.ndarray, out: np.ndarray,
                    workspace: np.ndarray) -> tuple[float, float, float]:
    """Evaluate one ``(n, K)`` block into ``out``, working in the front of
    ``workspace``; returns the seconds spent in lookup, scan and the copy
    into ``out``."""
    n_maps, n_drives, n_scratch = _workspace_layout(model.n_branches)
    taken, drives, scratch = np.split(
        workspace[:u.size * (n_maps + n_drives + n_scratch)],
        [u.size * n_maps, u.size * (n_maps + n_drives)])
    taken = taken.reshape(n_maps, *u.shape)
    drives = drives.view(complex).reshape(model.n_branches, *u.shape)
    t0 = time.monotonic()
    static = _lookup(model, u, taken, drives, scratch)
    t1 = time.monotonic()
    _scan(model, static, drives, scratch)
    t2 = time.monotonic()
    out[...] = static
    return t1 - t0, t2 - t1, time.monotonic() - t2


def _lookup(model, u: np.ndarray, taken: np.ndarray, drives: np.ndarray,
            scratch: np.ndarray) -> np.ndarray:
    """Interpolate the folded tables at every sample of a ``(n, K)`` block.

    Gathers :attr:`~repro.runtime.compiled.CompiledModel.drive_table`'s
    ``[values; slopes]`` rows into ``taken`` and interpolates them in
    place; lays the complex drives out in ``drives`` ``(P, n, K)``: column 0
    holds each branch's equilibrium start ``z_0``, column ``k + 1`` the
    drive ``q_k`` of step ``k``.  Returns the static output rows ``(n, K)``.
    """
    n_branches = model.n_branches
    frac = scratch[:u.size].reshape(u.shape)
    idx = scratch[u.size:2 * u.size].view(np.int64).reshape(u.shape)
    np.clip(u, model.u_min, model.u_max, out=frac)
    frac -= model.u_min
    frac /= (model.u_max - model.u_min) / (model.n_table - 1)
    np.copyto(idx, frac, casting="unsafe")          # truncates: frac >= 0
    np.minimum(idx, model.n_table - 2, out=idx)
    frac -= idx
    # The indices are in range; mode="clip" only spares take() the
    # buffered copy it makes of ``out`` to undo a failed bounds check.
    np.take(model.drive_table, idx, axis=1, out=taken, mode="clip")
    maps = taken[len(taken) // 2:]
    maps *= frac
    maps += taken[:len(taken) // 2]                  # (1 + 2P, n, K)
    drives.real[:, :, 1:] = maps[1:1 + n_branches, :, :-1]
    drives.imag[:, :, 1:] = maps[1 + n_branches:, :, :-1]
    i0, f0 = idx[:, 0], frac[:, 0]
    v0 = [table[:, i0] * (1.0 - f0) + table[:, i0 + 1] * f0
          for table in (model.branch_vr, model.branch_vi)]         # (P, n)
    drives[:, :, 0] = model.start_weights[:, None] * (v0[0] + 1j * v0[1])
    return maps[0]


def _scan(model, static: np.ndarray, drives: np.ndarray,
          scratch: np.ndarray) -> None:
    """Run every branch's recurrence over ``drives`` in place (log-step
    prefix scan) and add the states' real parts into ``static``.

    Each pass works on the rows laid end to end, so every operand is one
    contiguous run per branch; the terms a pass would carry from the end of
    one row into the first ``span`` samples of the next are zeroed first,
    so every row sees the same operations whatever its neighbours.
    """
    n_branches, n_rows, n_steps = drives.shape
    flat = drives.reshape(n_branches, n_rows * n_steps)
    carry = scratch[:2 * flat.size].view(complex).reshape(flat.shape)
    shifted = carry.reshape(drives.shape)
    power = model.step_poles[:, None]
    span = 1
    while span < n_steps and power.any():
        np.multiply(power, flat[:, :-span], out=carry[:, span:])
        shifted[:, :, :span] = 0.0
        flat += carry
        power = power * power
        span *= 2
    for states in drives.real:
        static += states
