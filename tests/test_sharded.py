"""ShardedArena: dense-mode bit-identity and sampled-mode semantics."""

import numpy as np
import pytest

from repro.nn import ParameterArena, ShardedArena
from repro.theory.streaming import arena_consensus


def assert_records_identical(left, right, context=""):
    """Bit-identical dataclass records (nan == nan for pre-loss points)."""
    for name in left.__dataclass_fields__:
        vl, vr = getattr(left, name), getattr(right, name)
        assert vl == vr or (vl != vl and vr != vr), (context, name, vl, vr)


class TestDenseModeBitIdentity:
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_sync_trajectories_identical(self, dtype):
        from repro.algorithms import FedAvg, SparseFedAvg
        from repro.data import make_blobs, partition_iid
        from repro.nn import MLP
        from repro.sim import ExperimentConfig, run_experiment

        def run(algorithm_cls, arena):
            full = make_blobs(num_samples=260, num_classes=4,
                              num_features=8, rng=0)
            train, validation = full.split(fraction=0.8, rng=0)
            partitions = partition_iid(train, 4, rng=0)
            config = ExperimentConfig(
                rounds=8, batch_size=8, eval_every=2, seed=0,
                dtype=dtype, arena=arena,
            )
            return run_experiment(
                algorithm_cls(), partitions, validation,
                lambda: MLP(8, [8], 4, rng=0, dtype=dtype), config,
            )

        for cls in (FedAvg, SparseFedAvg):
            dense = run(cls, "dense")
            sharded = run(cls, "sharded")
            assert len(dense.history) == len(sharded.history)
            for rd, rs in zip(dense.history, sharded.history):
                assert_records_identical(rd, rs, cls.__name__)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_async_fedavg_trajectories_identical(self, dtype):
        from repro.algorithms import AsyncFedAvg
        from repro.data import make_blobs, partition_iid
        from repro.nn import MLP
        from repro.sim import ConstantCompute, ExperimentConfig
        from repro.sim.events import run_event_experiment

        def run(arena):
            full = make_blobs(num_samples=260, num_classes=4,
                              num_features=8, rng=0)
            train, validation = full.split(fraction=0.8, rng=0)
            partitions = partition_iid(train, 4, rng=0)
            config = ExperimentConfig(
                rounds=8, batch_size=8, seed=0, dtype=dtype, arena=arena
            )
            return run_event_experiment(
                AsyncFedAvg(local_steps=2), partitions, validation,
                lambda: MLP(8, [8], 4, rng=0, dtype=dtype), config,
                compute_model=ConstantCompute(0.05),
                duration=4.0, checkpoint_every=1.0,
            )

        dense, sharded = run("dense"), run("sharded")
        assert dense.staleness == sharded.staleness
        assert dense.events_processed == sharded.events_processed
        for rd, rs in zip(dense.history, sharded.history):
            assert_records_identical(rd, rs, "AsyncFedAvg")

    def test_dense_matches_parameter_arena_ops(self):
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(6, 12))
        dense = ParameterArena(6, 12)
        sharded = ShardedArena(6, 12)
        dense.data[...] = matrix
        sharded.data[...] = matrix
        assert sharded.dense
        assert np.array_equal(dense.mean_model(), sharded.mean_model())
        assert dense.consensus_distance() == sharded.consensus_distance()
        gossip = np.full((6, 6), 1.0 / 6)
        dense.mix(gossip)
        sharded.mix(gossip)
        assert np.array_equal(dense.data, sharded.data)


class TestSampledMode:
    def test_eviction_writeback_round_trip(self):
        arena = ShardedArena(50, 8, capacity=4, retain_evicted=True)
        for client in range(6):
            arena.row(client)[...] = client + 1
        # Clients 0 and 1 were evicted (LRU) but written back.
        assert arena.resident_clients == 4
        assert arena.stored_clients == 2
        for client in range(6):
            assert np.all(arena.peek(client) == client + 1)
        # Faulting an evicted client back restores its exact state.
        assert np.all(arena.row(0) == 1.0)
        assert arena.stats()["writebacks"] >= 3

    def test_retain_false_drops_to_cold(self):
        arena = ShardedArena(50, 4, capacity=2, retain_evicted=False)
        arena.set_cold(np.full(4, 7.0))
        arena.row(0)[...] = 1.0
        arena.row(1)[...] = 2.0
        arena.row(2)[...] = 3.0  # evicts 0, dropped
        assert arena.stored_clients == 0
        assert np.all(arena.row(0) == 7.0)  # back to cold state
        assert arena.resident_bytes() == arena.data.nbytes + arena.grads.nbytes

    def test_lazy_cold_state_for_dormant_clients(self):
        cold = np.arange(5, dtype=np.float64)
        arena = ShardedArena(1000, 5, capacity=3, cold=cold)
        assert np.all(arena.peek(999) == cold)  # no fault-in
        assert arena.resident_clients == 0
        assert np.all(arena.row(999) == cold)
        assert arena.resident_clients == 1

    def test_faulted_row_gets_clean_gradient(self):
        arena = ShardedArena(10, 4, capacity=2)
        arena.row(0)
        arena.grad_row(0)[...] = 5.0
        arena.row(1)
        arena.row(2)  # evicts 0, slot reused
        arena.evict(1)
        assert np.all(arena.grad_row(0) == 0.0)

    def test_pinning_protects_rows(self):
        arena = ShardedArena(20, 4, capacity=3)
        arena.acquire([0, 1])
        arena.row(0)[...] = 42.0
        arena.row(2)
        arena.row(3)  # must evict 2 (only unpinned resident)
        assert np.all(arena.row(0) == 42.0)
        with pytest.raises(RuntimeError, match="pinned"):
            arena.acquire([4, 5])  # 2 pinned + 2 new > capacity 3
        arena.release([0, 1])
        arena.acquire([4, 5])

    def test_all_pinned_faults_loudly(self):
        arena = ShardedArena(10, 4, capacity=2)
        arena.acquire([0, 1])
        with pytest.raises(RuntimeError, match="pinned"):
            arena.row(2)

    def test_nested_pins(self):
        arena = ShardedArena(10, 4, capacity=2)
        arena.acquire([0])
        arena.acquire([0])
        arena.release([0])
        arena.acquire([1])
        # 0 is still pinned (nested), 1 is pinned: no evictable slot.
        with pytest.raises(RuntimeError, match="pinned"):
            arena.row(2)
        arena.release([0])
        arena.row(2)  # 0's last pin gone: now evictable
        with pytest.raises(ValueError):
            arena.release([0])

    def test_resident_bytes_proportional_to_capacity(self):
        small = ShardedArena(100_000, 16, capacity=64, retain_evicted=False)
        for client in range(0, 100_000, 1000):
            small.row(client)[...] = 1.0
        dense_bytes = 100_000 * 16 * small.dtype.itemsize * 2
        assert small.resident_bytes() <= dense_bytes / 100
        assert small.resident_clients <= 64

    def test_dense_only_ops_raise_in_sampled_mode(self):
        # The consensus reductions stream instead of raising: resident
        # rows, writeback store and cold mass, the same fold as
        # arena_consensus.  mix needs every row and still raises.
        arena = ShardedArena(10, 4, capacity=2, cold=np.full(4, 0.5))
        for client in (3, 7, 1):  # three touches: client 3 is evicted
            arena.row(client)[...] = client
        assert arena.stored_clients == 1
        mean, distance = arena_consensus(arena)
        np.testing.assert_array_equal(arena.mean_model(), mean)
        assert arena.consensus_distance() == distance
        assert distance > 0.0
        with pytest.raises(RuntimeError, match="materialized"):
            arena.mix(np.eye(2))

    def test_client_range_checked(self):
        arena = ShardedArena(10, 4, capacity=2)
        with pytest.raises(ValueError):
            arena.row(10)
        with pytest.raises(ValueError):
            arena.peek(-11)
