"""Experiment harness: scale presets, the CLI runner and text reports.

The experiments layer is a thin veneer over :mod:`repro.api`:

* :mod:`~repro.experiments.config` — :class:`ExperimentScale` presets
  (``quick`` for CI & benchmarks, ``standard`` for meaningful shapes,
  ``paper`` for the full 500k-timestep schedule), referenced by every
  scenario spec's training axis;
* :mod:`~repro.experiments.runner` — the CLI
  (``run``/``sweep``/``serve``/``list``/``describe``);
* :mod:`~repro.experiments.reporting` — plain-text result rendering.

The paper's figures are registered scenarios (:mod:`repro.api.presets`).
Run them from the command line::

    python -m repro.experiments.runner run fig6 --preset standard --seed 0
    python -m repro.experiments.runner list scenarios
"""

from repro.experiments.config import (
    ExperimentScale,
    PRESETS,
    get_preset,
    scale_field_names,
    scaled,
)

__all__ = [
    "ExperimentScale",
    "PRESETS",
    "get_preset",
    "scaled",
    "scale_field_names",
]
