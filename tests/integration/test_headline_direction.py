"""The paper's headline direction at paper scale.

§VI-A's configuration (wordcount, 100 nodes, 4 applications × 30 jobs) is
``ExperimentConfig()``'s default.  Custody must reach higher input locality
and a lower mean job completion time than Spark's standalone manager on it.
"""

from __future__ import annotations

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment


def test_custody_beats_standalone_at_paper_scale():
    custody = run_experiment(ExperimentConfig(manager="custody", seed=1)).metrics
    standalone = run_experiment(ExperimentConfig(manager="standalone", seed=1)).metrics
    assert custody.unfinished_jobs == 0 and standalone.unfinished_jobs == 0
    assert custody.locality_mean > standalone.locality_mean
    assert custody.avg_jct < standalone.avg_jct
