"""Tests of the compiled-model batch kernel (:mod:`repro.runtime.batch`).

The kernel folds each model's tables once (``CompiledModel`` construction)
and replaces the recurrence's time loop by a log-step prefix scan.  These
tests pin it against a plain per-step loop over the registry-format arrays,
and check the bitwise guarantees the serving layer relies on: a row does not
depend on its batch or on the chunking, and skipping the all-zero scan
passes changes nothing.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime import CompiledModel, evaluate_batch
from repro.runtime import batch as kernel


def reference_evaluate(model: CompiledModel, u: np.ndarray) -> np.ndarray:
    """Per-time-step evaluation of the registry-format recurrence.

    ``S' = A S + b0 v_n + b1 (v_{n+1} - v_n)`` on the real 2x2 state blocks,
    one Python iteration per step, with the branch drives and the static
    path interpolated from their tables.
    """
    u = np.atleast_2d(np.asarray(u, dtype=float))
    n_block, n_steps = u.shape
    du = (model.u_max - model.u_min) / (model.n_table - 1)
    pos = (np.clip(u, model.u_min, model.u_max) - model.u_min) / du
    idx = np.minimum(pos.astype(np.intp), model.n_table - 2)
    frac = pos - idx

    def lookup(table):
        return table[..., idx] * (1.0 - frac) + table[..., idx + 1] * frac

    static = lookup(model.static_table)
    if model.n_branches == 0:
        return static
    vr = lookup(model.branch_vr)[model.state_branch]           # (S, B, K)
    vi = lookup(model.branch_vi)[model.state_branch]
    state = (model.init_vr[:, None] * vr[:, :, 0]
             + model.init_vi[:, None] * vi[:, :, 0])
    outputs = np.empty((n_block, n_steps))
    outputs[:, 0] = static[:, 0] + model.c_out @ state
    for n in range(n_steps - 1):
        drive = (model.b0r[:, None] * vr[:, :, n] + model.b0i[:, None] * vi[:, :, n]
                 + model.b1r[:, None] * (vr[:, :, n + 1] - vr[:, :, n])
                 + model.b1i[:, None] * (vi[:, :, n + 1] - vi[:, :, n]))
        state = (model.a_diag[:, None] * state
                 + model.a_off[:, None] * state[model.partner] + drive)
        outputs[:, n + 1] = static[:, n + 1] + model.c_out @ state
    return outputs


def random_model(rng: np.random.Generator, n_branches: int, max_decay: float,
                 table_size: int = 33) -> CompiledModel:
    """A compiled model with random tables and weights, in the layout
    :func:`repro.runtime.compile_model` produces.  Branch 0 has
    ``|E| = max_decay``; odd branches are real poles (real ``E``, weights
    and drive), even ones complex pairs."""
    n_states = 2 * n_branches
    arrays = {name: np.zeros(n_states) for name in
              ("a_diag", "a_off", "b0r", "b0i", "b1r", "b1i",
               "init_vr", "init_vi", "c_out")}
    branch_vr = rng.standard_normal((n_branches, table_size))
    branch_vi = rng.standard_normal((n_branches, table_size))
    for j in range(n_branches):
        re, im = 2 * j, 2 * j + 1
        real_pole = j % 2 == 1
        magnitude = max_decay if j == 0 else rng.uniform(0.0, max_decay)
        angle = 0.0 if real_pole else rng.uniform(-np.pi, np.pi)
        decay = magnitude * np.exp(1j * angle)
        w0, w1, w_init = (complex(*rng.standard_normal(2)) for _ in range(3))
        if real_pole:
            w0, w1, w_init = w0.real, w1.real, w_init.real
            branch_vi[j] = 0.0
        w0, w1, w_init = complex(w0), complex(w1), complex(w_init)
        arrays["a_diag"][re] = arrays["a_diag"][im] = decay.real
        arrays["a_off"][re], arrays["a_off"][im] = -decay.imag, decay.imag
        for prefix, w in (("b0", w0), ("b1", w1), ("init_v", w_init)):
            arrays[prefix + "r"][re], arrays[prefix + "i"][re] = w.real, -w.imag
            arrays[prefix + "r"][im], arrays[prefix + "i"][im] = w.imag, w.real
        arrays["c_out"][re] = 1.0 if real_pole else 2.0
    partner = np.arange(n_states) ^ 1
    return CompiledModel(
        dt=1e-9, u_min=-1.0, u_max=1.0,
        static_table=rng.standard_normal(table_size),
        branch_vr=branch_vr, branch_vi=branch_vi,
        partner=partner, state_branch=np.arange(n_states) // 2, **arrays)


def random_stimuli(rng: np.random.Generator, n_rows: int, n_steps: int) -> np.ndarray:
    """Smooth random stimuli that also overshoot the table span (clamping)."""
    t = np.arange(n_steps)
    return 1.1 * np.sin(rng.uniform(0.0, 0.2, (n_rows, 1)) * t
                        + rng.uniform(0.0, 2 * np.pi, (n_rows, 1)))


def full_scan(model: CompiledModel, static: np.ndarray,
              drives: np.ndarray) -> np.ndarray:
    """The log-step scan, row by row and without early stopping: every pass
    up to ``K``."""
    power = model.step_poles[:, None, None]
    span = 1
    while span < drives.shape[-1]:
        drives[..., span:] += power * drives[..., :-span]
        power = power * power
        span *= 2
    for states in drives.real:
        static += states
    return static


@pytest.fixture(scope="module")
def fast_model():
    """Poles that settle within a few samples, like the extracted buffer."""
    model = random_model(np.random.default_rng(3), 3, 1e-60)
    power = model.step_poles
    for _ in range(3):
        power = power * power
    assert not power.any()
    return model


class TestAgainstPerStepLoop:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n_branches=st.integers(0, 4),
           n_rows=st.integers(1, 3),
           n_steps=st.one_of(st.integers(1, 64), st.integers(65, 4096)),
           max_decay=st.sampled_from([0.0, 1e-60, 0.3, 0.9, 0.999, 0.9999]),
           table_size=st.integers(2, 65))
    def test_matches_reference_loop(self, seed, n_branches, n_rows, n_steps,
                                    max_decay, table_size):
        rng = np.random.default_rng(seed)
        model = random_model(rng, n_branches, max_decay, table_size)
        u = random_stimuli(rng, n_rows, n_steps)
        reference = reference_evaluate(model, u)
        served = model.evaluate(u)
        scale = max(float(np.max(np.abs(reference))), 1e-300)
        assert np.max(np.abs(served - reference)) <= 1e-12 * scale

    def test_single_stimulus_and_single_step(self, fast_model):
        u = np.array([0.25])
        np.testing.assert_allclose(fast_model.evaluate(u),
                                   reference_evaluate(fast_model, u)[0],
                                   rtol=1e-13, atol=0.0)


class TestBitwiseGuarantees:
    @pytest.mark.parametrize("max_decay", [1e-60, 0.9999])
    def test_row_alone_equals_row_in_64_row_batch(self, max_decay):
        rng = np.random.default_rng(11)
        model = random_model(rng, 3, max_decay)
        stimuli = random_stimuli(rng, 64, 300)
        batch = model.evaluate(stimuli)
        for row in (0, 17, 63):
            np.testing.assert_array_equal(model.evaluate(stimuli[row]), batch[row])
            np.testing.assert_array_equal(model.evaluate(stimuli[row:row + 5])[0],
                                          batch[row])

    def test_chunk_sizes_are_bitwise_identical(self, fast_model):
        stimuli = random_stimuli(np.random.default_rng(5), 37, 200)
        full = fast_model.evaluate(stimuli)
        per_row = 8 * 200 * (2 + 8 * fast_model.n_branches)
        for max_chunk_bytes in (1, per_row, 3 * per_row, 10 * per_row, 1 << 30):
            np.testing.assert_array_equal(
                fast_model.evaluate(stimuli, max_chunk_bytes=max_chunk_bytes), full)

    @pytest.mark.parametrize("max_decay", [1e-60, 0.5, 0.9999])
    def test_early_stopping_scan_equals_full_scan(self, max_decay):
        rng = np.random.default_rng(2)
        model = random_model(rng, 3, max_decay)
        u = random_stimuli(rng, 4, 1500)
        n_branches = model.n_branches
        taken = np.empty((2 * (1 + 2 * n_branches), *u.shape))
        drives = np.empty((n_branches, *u.shape), dtype=complex)
        scratch = np.empty(2 * n_branches * u.size)
        static = kernel._lookup(model, u, taken, drives, scratch)
        np.testing.assert_array_equal(model.evaluate(u),
                                      full_scan(model, static, drives))


class TestWorkspaceAndTimings:
    def test_peak_workspace_within_chunk_bound(self, fast_model):
        n_rows, n_steps, rows_per_chunk = 23, 512, 5
        stimuli = random_stimuli(np.random.default_rng(9), n_rows, n_steps)
        out = np.empty_like(stimuli)
        per_row = 8 * n_steps * (2 + 8 * fast_model.n_branches)
        bound = rows_per_chunk * per_row
        evaluate_batch(fast_model, stimuli, max_chunk_bytes=bound, out=out)
        tracemalloc.start()
        try:
            evaluate_batch(fast_model, stimuli, max_chunk_bytes=bound, out=out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # On top of the per-sample workspace ride per-row and per-call
        # scalars (the equilibrium start, the pole powers) and one
        # ufunc casting buffer of np.getbufsize() elements.
        assert peak <= bound + 8 * np.getbufsize() + 16384
        # The estimate is the kernel's real workspace, not a loose cap.
        assert peak >= 0.9 * bound

    def test_phase_timings_add_up(self, fast_model):
        stimuli = random_stimuli(np.random.default_rng(1), 8, 128)
        timings = {"eval_s": 1.0}
        evaluate_batch(fast_model, stimuli, max_chunk_bytes=1, timings=timings)
        assert set(timings) == {"lookup_s", "scan_s", "eval_s", "stage_out_s"}
        assert all(value >= 0.0 for value in timings.values())
        assert timings["eval_s"] == pytest.approx(
            1.0 + timings["lookup_s"] + timings["scan_s"], abs=1e-12)

    def test_nbytes_charges_the_folded_tables(self, fast_model):
        registry_bytes = sum(a.nbytes for a in fast_model.arrays().values())
        folded = (fast_model.drive_table.nbytes + fast_model.step_poles.nbytes
                  + fast_model.start_weights.nbytes)
        assert fast_model.nbytes == registry_bytes + folded
