import copy

import pytest

from clcoherence.config import ScenarioConfig
from clcoherence.estate import auto_cutoff

import workloads

SEEDS = range(1, 21)
# The only values a seed may move; everything else fixes the amount of work.
PHYSICAL = (
    ("modulation", "beta_abs"),
    ("propagation", "distance_mm"),
    ("coupling", "v_group_ratio"),
    ("detection", "seed"),
    ("detection", "reference", "phase_rad"),
)


def _without_physical(config: dict) -> dict:
    out = copy.deepcopy(config)
    for path in PHYSICAL:
        node = out
        for key in path[:-1]:
            node = node.get(key, {})
        node.pop(path[-1], None)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_configs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)


@pytest.mark.parametrize("workload", ["spectral", "heterodyne"])
def test_seed_moves_physical_values(workload):
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_sizes_do_not_depend_on_seed(workload):
    reference = [(inv["id"], _without_physical(inv["config"]))
                 for inv in workloads.generate(workload, 0)]
    for seed in SEEDS:
        plan = workloads.generate(workload, seed)
        assert [(inv["id"], _without_physical(inv["config"])) for inv in plan] == reference


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_configs_validate_without_thread_knob(workload):
    for seed in SEEDS:
        for inv in workloads.generate(workload, seed):
            assert "threads" not in inv["config"]
            ScenarioConfig.from_mapping(inv["scenario"], inv["config"])
            beta = inv["config"].get("modulation", {}).get("beta_abs")
            if beta is not None:
                assert 3.5 <= beta <= 4.5


def test_doc_map_harmonic_count_fixed_over_beta_range():
    # doc-map writes min(n_harmonics, 2 * cutoff) + 1 rows per distance
    assert 2 * auto_cutoff(3.5) >= workloads.DOC_MAP_SCAN["n_harmonics"]
