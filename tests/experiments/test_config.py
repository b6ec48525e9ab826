"""ExperimentConfig validation and conveniences."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import GB, GBPS, MB
from repro.experiments.config import ExperimentConfig


def test_paper_defaults():
    c = ExperimentConfig()
    assert c.num_nodes == 100
    assert c.num_apps == 4
    assert c.jobs_per_app == 30
    assert c.mean_interarrival == 14.0
    assert c.block_size == 128 * MB
    assert c.replication == 3
    assert c.uplink == 2 * GBPS
    assert c.downlink == 40 * GBPS
    assert c.scheduler == "delay"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"manager": "kubernetes"},
        {"scheduler": "magic"},
        {"placement": "best"},
        {"workload": "teragen"},
        {"num_apps": 0},
        {"jobs_per_app": 0},
        {"replication": 0},
        {"uplink": 0.0},
        {"downlink": -1.0},
        {"uplink": float("inf")},
        {"downlink": float("inf")},
        {"uplink": float("nan")},
    ],
)
def test_invalid_configs(kwargs):
    with pytest.raises(ConfigurationError):
        ExperimentConfig(**kwargs)


def test_app_ids_deterministic():
    c = ExperimentConfig(num_apps=3)
    assert c.app_ids == ("app-00", "app-01", "app-02")


def test_with_manager_preserves_everything_else():
    c = ExperimentConfig(workload="sort", seed=9)
    d = c.with_manager("standalone")
    assert d.manager == "standalone"
    assert d.workload == "sort"
    assert d.seed == 9


def test_scaled():
    c = ExperimentConfig(jobs_per_app=30)
    assert c.scaled(0.1).jobs_per_app == 3
    assert c.scaled(0.001).jobs_per_app == 1  # floor of one job
    with pytest.raises(ConfigurationError):
        c.scaled(0.0)


def test_frozen():
    c = ExperimentConfig()
    with pytest.raises(Exception):
        c.manager = "other"


def test_infinite_nics_rejected_before_the_run():
    # Infinite NICs used to build a world whose every transfer was rated
    # 0.0: the run returned with all jobs unfinished and no error.
    with pytest.raises(ConfigurationError, match="uplink must be positive and finite"):
        ExperimentConfig(
            seed=1, num_nodes=10, num_apps=2, jobs_per_app=2, workload="sort",
            uplink=float("inf"), downlink=float("inf"),
        )
