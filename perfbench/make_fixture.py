"""Regenerate ``buffer_model.json``, the model the serving workloads serve.

The serving workloads load the buffer model from this committed file
instead of extracting it, so a change to extraction cannot move serving
numbers.  It is written by ``extract_buffer``'s own code path and holds:

* the extracted ``HammersteinModel.to_dict()`` and the ``compile_model``
  arguments (``dt``, ``input_range``);
* two held-out sine stimuli on the compiled model's grid, the engine's
  response to them, and the model's maximum relative RMSE against it —
  the serving workloads push the stimuli through the server and must
  reproduce that figure.

Run from the repository root:  python3 perfbench/make_fixture.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import extract_buffer as eb  # noqa: E402
from harness import FIXTURE  # noqa: E402
from repro.sweep import SweepOptions, run_sweep  # noqa: E402

HELD_OUT = (0.30, eb.PROBE_AMPLITUDE)


def main() -> None:
    training = eb.scenarios(eb.TRAINING_AMPLITUDES, "train")
    held_out = eb.scenarios(HELD_OUT, "held")
    _, extraction, compiled, report, _ = eb.extraction_pass(training, held_out)

    # The comparison validate_model makes, kept as arrays: both waveforms
    # interpolated onto the compiled model's uniform grid.
    reference = run_sweep(held_out, SweepOptions(capture_snapshots=False))
    times = compiled.time_axis(report.rows[0].n_steps)
    stimuli = [np.interp(times, r.transient.times, r.transient.inputs[:, 0])
               for r in reference.results]
    outputs = [r.transient.resample(times) for r in reference.results]

    fixture = {
        "format": "perfbench-buffer-model-v1",
        "model": extraction.model.to_dict(),
        "dt": compiled.dt,
        "input_range": [compiled.u_min, compiled.u_max],
        "held_out": {"amplitudes": list(HELD_OUT),
                     "stimuli": [s.tolist() for s in stimuli],
                     "reference": [o.tolist() for o in outputs],
                     "max_relative_rmse": report.max_relative_rmse},
    }
    with open(FIXTURE, "w") as fh:
        json.dump(fixture, fh, indent=1)
    print(f"wrote {FIXTURE}: {extraction.summary()}; held-out max relative "
          f"RMSE {report.max_relative_rmse:.4g}")


if __name__ == "__main__":
    main()
