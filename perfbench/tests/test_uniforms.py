"""randcore.uniforms_per_drop: the structural formula against a count of
the uniforms RandomStream actually draws."""

import pytest

import layers
from tcslsim import randcore
from tcslsim.generate import generate_drop
from tcslsim.scenario import Scenario, SimConfig, resolved_params

from workloads import SCENARIOS


@pytest.mark.parametrize("distance", [10.0, (5.0, 45.0)], ids=["fixed", "range"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_formula_matches_counted_uniforms(monkeypatch, scenario, distance):
    drawn = []
    original = randcore.RandomStream.uniform

    def counting(self, size=None):
        drawn.append(1 if size is None else int(size))
        return original(self, size)

    monkeypatch.setattr(randcore.RandomStream, "uniform", counting)
    config = SimConfig(scenario=Scenario.parse(scenario), distance_m=distance, master_seed=7)
    params = resolved_params(config)
    for idx in range(12):
        drawn.clear()
        drop = generate_drop(config, params, idx)
        expected = layers.uniforms_for_drop(
            drop.num_clusters, drop.num_subpaths, len(drop.aod_lobes), len(drop.aoa_lobes),
            isinstance(distance, tuple))
        assert sum(drawn) == expected
