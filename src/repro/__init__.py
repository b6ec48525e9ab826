"""Custody reproduction: data-aware resource sharing for big-data clusters.

A full Python reproduction of *"Custody: Towards Data-Aware Resource Sharing
in Cloud-Based Big Data Processing"* (Ma, Jiang, Li & Li, IEEE CLUSTER
2016), built on an in-package discrete-event cluster simulator.

Quick start::

    from repro import ExperimentConfig, run_experiment

    spark = run_experiment(ExperimentConfig(manager="standalone",
                                            workload="wordcount",
                                            num_nodes=25, jobs_per_app=5))
    custody = run_experiment(ExperimentConfig(manager="custody",
                                              workload="wordcount",
                                              num_nodes=25, jobs_per_app=5))
    print(custody.metrics.locality_mean, "vs", spark.metrics.locality_mean)

Subpackages
-----------
``repro.core``
    The paper's contribution: Algorithms 1 & 2 and fairness predicates; the
    flow-network theory and matching solvers sit beside them, imported by
    full path only, so a run never loads scipy or networkx.
``repro.managers``
    Cluster managers: Custody plus the Standalone / YARN / Mesos baselines.
``repro.simulation`` / ``repro.cluster`` / ``repro.network`` / ``repro.hdfs``
    The substrate: deterministic DES engine, worker/executor model,
    flow-level network, simulated HDFS.
``repro.workload`` / ``repro.scheduling``
    PageRank / WordCount / Sort generators, submission traces, delay
    scheduling, the application driver.
``repro.metrics`` / ``repro.experiments``
    Figure metrics and the end-to-end experiment harness (import
    submodules directly; the package re-exports nothing).
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentResult, run_experiment

__version__ = "1.0.0"

__all__ = ["ExperimentConfig", "ExperimentResult", "run_experiment", "__version__"]
