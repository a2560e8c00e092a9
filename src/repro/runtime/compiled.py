"""Compilation of extracted Hammerstein models into discrete-time kernels.

The analytical model of :mod:`repro.rvf` is the paper's *deployable artifact*:
a cheap surrogate standing in for the full nonlinear circuit.  Evaluating it
through the analytical path, however, still walks Python objects — one
partial-fraction evaluation per branch per sample, one complex scalar
recurrence per branch.  :func:`compile_model` removes every remaining Python
indirection by freezing the model at a fixed sample interval ``dt``:

* each branch's first-order filter is folded into **recurrence
  coefficients**.  The exact exponential update
  ``y_{n+1} = E y_n + W0 v_n + W1 (v_{n+1}-v_n)`` (see
  :mod:`repro.rvf.timedomain`) with complex ``E = exp(a dt)`` is stored as a
  real 2x2 rotation-scaling block per branch (the registry format);
* each branch's **static nonlinear map** ``f_p(u)`` (and the static path
  ``F_0(u)``) is tabulated on a uniform input grid, so serving never touches
  the analytical partial-fraction objects;
* everything lands in a plain :class:`CompiledModel` of NumPy arrays, which
  folds those arrays once more into the serving tables of the batch kernel
  (:mod:`repro.runtime.batch`) and serialises losslessly through the model
  registry (:mod:`repro.runtime.registry`).

The compiled kernel reproduces :func:`repro.rvf.timedomain.
simulate_hammerstein` exactly up to the static-table interpolation error,
which shrinks quadratically with ``table_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ModelError
from ..rvf.hammerstein import HammersteinModel, _evaluate_state_function
from .batch import DEFAULT_CHUNK_BYTES, evaluate_batch

__all__ = ["CompiledModel", "compile_model"]

#: Serialisation format tag stored with every registry entry.
FORMAT = "compiled-hammerstein-v1"

#: Default number of static-table samples.  4097 = 2**12 + 1 keeps the
#: interpolation error of smooth partial-fraction maps far below the
#: extraction error bounds used in the paper (1e-3).
DEFAULT_TABLE_SIZE = 4097


@dataclass
class CompiledModel:
    """A Hammerstein model frozen at a fixed sample rate, as plain arrays.

    The dynamic part is ``n_states = 2 * n_branches`` real states advanced by

    .. math::

        S'_i = A^{diag}_i S_i + A^{off}_i S_{partner(i)}
               + b^{0r}_i v^r_{\\beta(i)} + b^{0i}_i v^i_{\\beta(i)}
               + b^{1r}_i \\Delta v^r_{\\beta(i)} + b^{1i}_i \\Delta v^i_{\\beta(i)}

    where ``beta(i) = state_branch[i]`` maps states to branches and
    ``v^r/v^i`` are the tabulated real/imaginary parts of the branch drive
    ``f_p(u)``.  The output is ``F_0(u_n) + c^T S_n``.  These fields are the
    registry format; none are mutated at serve time.

    Construction folds them into the tables the batch kernel reads.  Per
    branch, the state pair is one complex state ``y`` scaled by its output
    weight ``c``, with drive ``G(u_n) + H(u_{n+1})`` where
    ``G = c (W0 - W1) f_p`` and ``H = c W1 f_p``.  Shifting the state to
    ``z = y - H(u)`` leaves a one-sample drive,

    .. math::

        z_{n+1} = E z_n + Q(u_n), \\quad Q = G + E H, \\qquad
        y_n = F_0(u_n) + \\sum_p \\mathrm{Re}\\,H_p(u_n)
              + \\sum_p \\mathrm{Re}\\,z_{p,n},

    so :attr:`drive_table` holds ``F_0 + Re sum H`` and each branch's
    ``Re Q`` / ``Im Q`` on the input grid, followed by their per-interval
    slopes: linear interpolation is linear in the table values, so one
    gather per sample and one multiply-add evaluate every map.  The
    equilibrium start ``z_0 = c (-1/a - W1) f_p(u_0)`` is needed at the
    first sample only, so it is :attr:`start_weights` times the branch
    tables there; :attr:`step_poles` holds the complex ``E`` per branch.
    """

    #: Fixed sample interval the recurrence was folded at.
    dt: float
    #: Static-table grid: ``u_grid = u_min + du * arange(n_table)``.
    u_min: float
    u_max: float
    #: Tabulated static path ``F_0(u)``, shape ``(n_table,)``.
    static_table: np.ndarray
    #: Tabulated branch drives ``Re f_p(u)`` / ``Im f_p(u)``,
    #: shape ``(n_branches, n_table)``.
    branch_vr: np.ndarray
    branch_vi: np.ndarray
    #: Real recurrence: diagonal and partner (off-diagonal) coefficients,
    #: partner index and owning branch per state, all shape ``(n_states,)``.
    a_diag: np.ndarray
    a_off: np.ndarray
    partner: np.ndarray
    state_branch: np.ndarray
    #: Input weights of the recurrence (see class docstring).
    b0r: np.ndarray
    b0i: np.ndarray
    b1r: np.ndarray
    b1i: np.ndarray
    #: Equilibrium initialisation ``S_0 = init_vr * v^r_0 + init_vi * v^i_0``.
    init_vr: np.ndarray
    init_vi: np.ndarray
    #: Output weights ``c`` (2 for the real part of complex pairs, 1 for real
    #: poles, 0 for imaginary parts).
    c_out: np.ndarray
    #: Book-keeping: names, extraction metadata, provenance.
    input_name: str = "u"
    output_name: str = "y"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        re, im = slice(0, None, 2), slice(1, None, 2)
        c = self.c_out[re]
        w1 = c * (self.b1r[re] + 1j * self.b1r[im])
        #: Complex per-step multiplier ``E = exp(a dt)`` of each branch.
        self.step_poles = self.a_diag[re] + 1j * self.a_off[im]
        #: Weight of ``f_p(u_0)`` in each branch's start ``z_0``.
        self.start_weights = c * (self.init_vr[re] + 1j * self.init_vr[im]) - w1
        q = c * (self.b0r[re] + 1j * self.b0r[im]) + (self.step_poles - 1.0) * w1
        vr, vi = self.branch_vr, self.branch_vi
        n_branches, n_table = vr.shape
        #: ``[F_0 + Re sum H, Re Q, Im Q]`` rows over their per-interval
        #: slopes (the last column's slope is never read), shape
        #: ``(2 * (1 + 2 * n_branches), n_table)``.
        self.drive_table = np.zeros((2 * (1 + 2 * n_branches), n_table))
        values, slopes = np.split(self.drive_table, 2)
        values[0] = self.static_table + (w1.real[:, None] * vr
                                         - w1.imag[:, None] * vi).sum(axis=0)
        qr, qi = q.real[:, None], q.imag[:, None]
        values[1:1 + n_branches] = qr * vr - qi * vi
        values[1 + n_branches:] = qi * vr + qr * vi
        np.subtract(values[:, 1:], values[:, :-1], out=slopes[:, :-1])

    # ------------------------------------------------------------------ shape
    @property
    def n_branches(self) -> int:
        return int(self.branch_vr.shape[0])

    @property
    def n_states(self) -> int:
        return int(self.a_diag.size)

    @property
    def n_table(self) -> int:
        return int(self.static_table.size)

    @property
    def sample_rate(self) -> float:
        return 1.0 / self.dt

    @property
    def nbytes(self) -> int:
        """In-memory footprint of the array payload (cache-budget accounting).

        This is what the serving layer's byte-budget LRU cache
        (:class:`repro.serve.cache.ModelCache`) charges per resident model;
        the static tables and the serving tables folded from them dominate
        for any realistic ``table_size``.
        """
        folded = (self.drive_table, self.step_poles, self.start_weights)
        return int(sum(array.nbytes for array in self.arrays().values())
                   + sum(array.nbytes for array in folded))

    @property
    def error_bound(self) -> float | None:
        """Extraction error bound recorded at compile time (if any)."""
        bound = self.metadata.get("error_bound")
        return None if bound is None else float(bound)

    # ------------------------------------------------------------- evaluation
    def evaluate(self, inputs: np.ndarray,
                 max_chunk_bytes: int = DEFAULT_CHUNK_BYTES,
                 out: np.ndarray | None = None) -> np.ndarray:
        """Batched evaluation; delegates to :func:`repro.runtime.batch.evaluate_batch`.

        ``inputs`` is ``(n_stimuli, n_steps)`` (or 1-D for a single stimulus)
        sampled at this model's ``dt``; returns outputs of the same shape.
        ``out`` optionally receives the results in place (the shard
        dataplane's zero-copy path — see :func:`~repro.runtime.batch.
        evaluate_batch`).
        """
        return evaluate_batch(self, inputs, max_chunk_bytes=max_chunk_bytes,
                              out=out)

    def time_axis(self, n_steps: int, t_start: float = 0.0) -> np.ndarray:
        """The uniform time grid of an ``n_steps``-sample evaluation."""
        return t_start + self.dt * np.arange(int(n_steps))

    # ----------------------------------------------------------- serialization
    _ARRAY_FIELDS = ("static_table", "branch_vr", "branch_vi", "a_diag", "a_off",
                     "partner", "state_branch", "b0r", "b0i", "b1r", "b1i",
                     "init_vr", "init_vi", "c_out")
    _SCALAR_FIELDS = ("dt", "u_min", "u_max")

    def arrays(self) -> dict[str, np.ndarray]:
        """The array payload (registry ``npz`` content), in canonical order."""
        return {name: getattr(self, name) for name in self._ARRAY_FIELDS}

    def scalars(self) -> dict[str, float | str]:
        """The scalar payload (registry metadata JSON content)."""
        return {"format": FORMAT,
                "dt": self.dt, "u_min": self.u_min, "u_max": self.u_max,
                "input_name": self.input_name, "output_name": self.output_name}

    def describe(self) -> str:
        return (f"compiled model: {self.n_branches} branches / {self.n_states} "
                f"real states, dt={self.dt:.3e}s, static tables of "
                f"{self.n_table} samples on [{self.u_min:.3f}, {self.u_max:.3f}]")


def compile_model(model: HammersteinModel, dt: float,
                  input_range: tuple[float, float],
                  table_size: int = DEFAULT_TABLE_SIZE,
                  metadata: dict | None = None) -> CompiledModel:
    """Fold an extracted Hammerstein model into a :class:`CompiledModel`.

    Parameters
    ----------
    model:
        The analytical model produced by :func:`repro.rvf.extract_rvf_model`.
        Only one-dimensional state estimators (``x = u(t)``, the paper's
        demonstrated configuration) can be compiled: with input delays the
        static maps would need multi-dimensional tables.
    dt:
        Fixed sample interval of the compiled recurrence.  Stimuli served
        through the compiled model must be sampled on this grid.
    input_range:
        ``(u_min, u_max)`` span of the static tables — normally the training
        excursion of the sweep the model was extracted from.  Inputs outside
        the span are clamped to the table edges at serve time (the analytical
        model would extrapolate; a served surrogate should not).
    table_size:
        Number of uniform samples per static table (at least 2).
    metadata:
        Optional extra provenance merged into the compiled model's metadata
        (the extraction's :class:`~repro.rvf.hammerstein.ModelMetadata` is
        always recorded).
    """
    if model.state_dimension != 1:
        raise ModelError(
            "compile_model supports one-dimensional state estimators "
            f"(x = u(t)); got dimension {model.state_dimension}")
    if dt <= 0.0:
        raise ModelError("compile_model: dt must be positive")
    u_min, u_max = float(input_range[0]), float(input_range[1])
    if not np.isfinite(u_min) or not np.isfinite(u_max) or u_max <= u_min:
        raise ModelError(f"invalid input_range ({u_min}, {u_max})")
    table_size = int(table_size)
    if table_size < 2:
        raise ModelError("table_size must be at least 2")

    u_grid = np.linspace(u_min, u_max, table_size)

    # ------------------------------------------------------- static tables
    static_table = np.asarray(model.static_output(u_grid), dtype=float)
    n_branches = model.n_branches
    branch_vr = np.empty((n_branches, table_size))
    branch_vi = np.empty((n_branches, table_size))
    for j, branch in enumerate(model.branches):
        v = _evaluate_state_function(branch.static_function, u_grid)
        branch_vr[j] = v.real
        branch_vi[j] = v.imag

    # -------------------------------------------------- recurrence folding
    n_states = 2 * n_branches
    a_diag = np.empty(n_states)
    a_off = np.empty(n_states)
    partner = np.empty(n_states, dtype=np.intp)
    state_branch = np.empty(n_states, dtype=np.intp)
    b0r = np.empty(n_states)
    b0i = np.empty(n_states)
    b1r = np.empty(n_states)
    b1i = np.empty(n_states)
    init_vr = np.empty(n_states)
    init_vi = np.empty(n_states)
    c_out = np.zeros(n_states)

    for j, branch in enumerate(model.branches):
        expz, w0, w1 = branch.recurrence(dt)
        re, im = 2 * j, 2 * j + 1
        state_branch[re] = state_branch[im] = j
        partner[re], partner[im] = im, re
        a_diag[re] = a_diag[im] = expz.real
        a_off[re], a_off[im] = -expz.imag, expz.imag
        # Re(W v) = Wr vr - Wi vi ; Im(W v) = Wi vr + Wr vi.
        b0r[re], b0i[re] = w0.real, -w0.imag
        b0r[im], b0i[im] = w0.imag, w0.real
        b1r[re], b1i[re] = w1.real, -w1.imag
        b1r[im], b1i[im] = w1.imag, w1.real
        # Equilibrium start y_0 = -v_0 / a.
        w_init = -1.0 / branch.pole
        init_vr[re], init_vi[re] = w_init.real, -w_init.imag
        init_vr[im], init_vi[im] = w_init.imag, w_init.real
        c_out[re] = 2.0 if branch.is_complex_pair else 1.0

    from dataclasses import asdict

    meta: dict = {"extraction": _jsonable_metadata(asdict(model.metadata)),
                  "error_bound": _none_if_nan(model.metadata.error_bound),
                  "dynamic_order": model.dynamic_order,
                  "dc_input": model.dc_input,
                  "dc_output": model.dc_output,
                  "table_size": table_size}
    if metadata:
        meta.update(metadata)

    return CompiledModel(
        dt=float(dt), u_min=u_min, u_max=u_max,
        static_table=static_table, branch_vr=branch_vr, branch_vi=branch_vi,
        a_diag=a_diag, a_off=a_off, partner=partner, state_branch=state_branch,
        b0r=b0r, b0i=b0i, b1r=b1r, b1i=b1i,
        init_vr=init_vr, init_vi=init_vi, c_out=c_out,
        input_name=model.input_name, output_name=model.output_name,
        metadata=meta,
    )


def _none_if_nan(value: float) -> float | None:
    return None if value is None or (isinstance(value, float) and np.isnan(value)) \
        else float(value)


def _jsonable_metadata(metadata: dict) -> dict:
    out = {}
    for key, value in metadata.items():
        if isinstance(value, float):
            out[key] = _none_if_nan(value)
        elif isinstance(value, (bool, int, str, dict, list)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out
