"""``SparkSimulator.run_batch`` must equal the ``run()`` loop.

``run_batch`` is a loop over the scalar simulation, so these tests pin
its argument contract (empty stages, generator count, an int seed split
with ``spawn``) and check, per workload, that it passes every argument
through: statuses, durations, failure reasons and per-stage metrics are
compared with ``==`` against ``run`` under identically-spawned
generators.
"""

import numpy as np
import pytest

from repro.space import spark_space
from repro.sparksim import SparkSimulator
from repro.utils.rng import spawn
from repro.workloads import get_workload

SPACE = spark_space()
SIM = SparkSimulator()


def assert_batch_matches_scalar(sim, stages, confs, seed,
                                time_limit_s=480.0):
    """The core contract: spawn the same rngs, compare bit-for-bit."""
    rngs_scalar = spawn(np.random.default_rng(seed), len(confs))
    rngs_batch = spawn(np.random.default_rng(seed), len(confs))
    scalar = [sim.run(stages, c, rng=r, time_limit_s=time_limit_s)
              for c, r in zip(confs, rngs_scalar)]
    batch = sim.run_batch(stages, confs, rngs=rngs_batch,
                          time_limit_s=time_limit_s)
    assert len(batch) == len(scalar)
    for s, b in zip(scalar, batch):
        assert b.status == s.status
        assert b.duration_s == s.duration_s  # bit-identical, not isclose
        assert b.failure_reason == s.failure_reason
        assert b.stages == s.stages


class TestWorkloadParity:
    @pytest.mark.parametrize("name", ["terasort", "pagerank", "kmeans",
                                      "connectedcomponents",
                                      "logisticregression"])
    def test_batch_matches_scalar_loop(self, name):
        stages = get_workload(name, "D1").build_stages()
        rng = np.random.default_rng(7)
        confs = [SPACE.decode(rng.random(SPACE.dim)) for _ in range(6)]
        assert_batch_matches_scalar(SIM, stages, confs, seed=11)

    def test_exact_scheduler_backend(self):
        sim = SparkSimulator(exact_scheduler=True)
        stages = get_workload("terasort", "D1").build_stages()
        rng = np.random.default_rng(8)
        confs = [SPACE.decode(rng.random(SPACE.dim)) for _ in range(4)]
        assert_batch_matches_scalar(sim, stages, confs, seed=12)

    def test_tight_time_limit_censors_identically(self):
        stages = get_workload("terasort", "D1").build_stages()
        rng = np.random.default_rng(9)
        confs = [SPACE.decode(rng.random(SPACE.dim)) for _ in range(6)]
        assert_batch_matches_scalar(SIM, stages, confs, seed=13,
                                    time_limit_s=45.0)

    def test_single_config_batch(self):
        stages = get_workload("kmeans", "D1").build_stages()
        conf = SPACE.decode(np.full(SPACE.dim, 0.5))
        assert_batch_matches_scalar(SIM, stages, [conf], seed=14)


class TestValidationAndRngHandling:
    def test_empty_stage_list_rejected(self):
        conf = SPACE.decode(np.full(SPACE.dim, 0.5))
        with pytest.raises(ValueError):
            SIM.run_batch([], [conf])

    def test_rng_count_mismatch_rejected(self):
        stages = get_workload("terasort", "D1").build_stages()
        confs = [SPACE.decode(np.full(SPACE.dim, 0.5))] * 2
        with pytest.raises(ValueError):
            SIM.run_batch(stages, confs, rngs=[np.random.default_rng(0)])

    def test_empty_batch_returns_empty(self):
        stages = get_workload("terasort", "D1").build_stages()
        assert SIM.run_batch(stages, []) == []

    def test_seed_rngs_spawned_like_scalar(self):
        """``rngs=int`` must mean ``spawn(int, B)``, stream-for-stream."""
        stages = get_workload("terasort", "D1").build_stages()
        rng = np.random.default_rng(21)
        confs = [SPACE.decode(rng.random(SPACE.dim)) for _ in range(3)]
        batch = SIM.run_batch(stages, confs, rngs=17, time_limit_s=480.0)
        scalar = [SIM.run(stages, c, rng=r, time_limit_s=480.0)
                  for c, r in zip(confs,
                                  spawn(np.random.default_rng(17), 3))]
        for s, b in zip(scalar, batch):
            assert b.duration_s == s.duration_s
            assert b.stages == s.stages
