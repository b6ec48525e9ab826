"""Experiment harness: configs, the end-to-end runner, and figure drivers.

* :mod:`repro.experiments.config` — :class:`ExperimentConfig`, the single
  knob surface for every evaluation run (§VI-A settings are the defaults).
* :mod:`repro.experiments.runner` — build cluster + HDFS + workload +
  manager from a config, replay the common submission trace, return
  :class:`ExperimentResult`.
* :mod:`repro.experiments.persistence` — JSON save/load of results and
  timelines.
* :mod:`repro.experiments.figures` — one function per paper figure
  (Fig. 7–10), producing the rows the benchmarks print.
* :mod:`repro.experiments.scenarios` — the paper's worked micro-examples
  (Fig. 1, 3, 4/5) as runnable scenarios with exact expected numbers.
* :mod:`repro.experiments.sweeps` / :mod:`repro.experiments.parallel` —
  config-grid sweeps and their process-pool fan-out.

The allocation control-plane benchmark harness runs the production Custody
manager against its test oracle, so it lives beside that oracle in
``tests/allocbench.py``.  The package re-exports nothing: importing a
submodule loads only what that submodule needs, so a run never pays for
the figure or sweep drivers.
"""
