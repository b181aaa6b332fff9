"""The folded lazy FedAsync against its old standalone state machine.

:class:`~repro.algorithms.SampledAsyncFedAvg` runs
:class:`~repro.algorithms.asynchronous.AsyncFedAvg`'s handlers over a
lazy client store.  ``tests/reference/sampled.py`` keeps the state
machine it replaced.  On the same inputs the two must agree bit for
bit: server model, staleness trace, counters, every checkpoint's
validation numbers, the metered transfers and the arena's pin/miss/
eviction counts.  Train loss agrees to float64 rounding only: the
worker-backed accounting weights each cycle's loss by its local steps.
"""

import numpy as np
import pytest

from repro.algorithms import LogisticBlobsTask, SampledAsyncFedAvg
from repro.network import SimulatedNetwork
from repro.network.metrics import TrafficMeter
from repro.sim import (
    ConstantCompute,
    EventEngine,
    HeterogeneousCompute,
    RenewalPopulation,
)
from repro.sim.timing import ComputeModel

from tests.reference import ReferenceSampledAsyncFedAvg


class PerClientCompute(ComputeModel):
    """Client ``c`` takes ``seconds[c]`` per local step."""

    def __init__(self, seconds):
        self.seconds = seconds

    def step_time(self, round_index, rank, steps=1):
        return self.seconds[rank] * steps


def two_upload_trace():
    task = LogisticBlobsTask(num_features=4, num_classes=3, batch_size=8, seed=2)
    return dict(
        task=task,
        kwargs=dict(
            num_clients=2, sample_size=2, local_steps=2, mixing=0.6,
            staleness_power=2.0, lr=0.1, seed=1,
        ),
        engine=lambda: dict(compute_model=PerClientCompute({0: 0.5, 1: 0.75})),
        network=dict(),
        duration=1.75,
        checkpoint_every=1.75,
    )


def forty_client_seats():
    task = LogisticBlobsTask(num_features=4, num_classes=3, batch_size=8, seed=2)
    return dict(
        task=task,
        kwargs=dict(num_clients=40, sample_size=5, local_steps=1, seed=3),
        engine=lambda: dict(compute_model=ConstantCompute(0.1)),
        network=dict(),
        duration=3.0,
        checkpoint_every=1.0,
    )


def renewal_5k():
    # Capacity below the enrolment (sampled arena, with evictions), a
    # churning population, per-client speeds and a server link that
    # leaves uploads in flight at the horizon.
    clients = 5000
    task = LogisticBlobsTask(num_features=8, num_classes=5, seed=7)
    return dict(
        task=task,
        kwargs=dict(
            num_clients=clients, sample_size=48, capacity=80, local_steps=2,
            lr=0.1, seed=11,
        ),
        engine=lambda: dict(
            compute_model=HeterogeneousCompute(
                clients, mean_step_time=0.2, spread=2.0, rng=5
            ),
            population=RenewalPopulation(
                clients, mean_up=6.0, mean_down=3.0, seed=5
            ),
            record_trace=False,
        ),
        network=dict(server_bandwidth=0.005),
        duration=12.0,
        checkpoint_every=3.0,
    )


INPUTS = {
    "two-upload-trace": two_upload_trace,
    "40-client-seats": forty_client_seats,
    "5k-renewal": renewal_5k,
}


def run(cls, spec, dtype):
    algorithm = cls(spec["task"], dtype=dtype, **spec["kwargs"])
    network = SimulatedNetwork(algorithm.num_clients, **spec["network"])
    engine = EventEngine(network, **spec["engine"]())
    result = engine.run(
        algorithm, None, spec["duration"], spec["checkpoint_every"]
    )
    return algorithm, network, result


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_folded_fedasync_matches_reference(name, dtype):
    spec = INPUTS[name]()
    folded, folded_net, folded_result = run(SampledAsyncFedAvg, spec, dtype)
    ref, ref_net, ref_result = run(ReferenceSampledAsyncFedAvg, spec, dtype)

    assert folded.global_model.dtype == ref.global_model.dtype == np.dtype(dtype)
    np.testing.assert_array_equal(folded.global_model, ref.global_model)
    assert folded.staleness_log == ref.staleness_log
    assert folded.server_version == ref.server_version
    assert folded.upload_count == ref.upload_count
    assert folded.total_local_steps == ref.total_local_steps
    assert folded_result.events_processed == ref_result.events_processed

    assert len(folded_result.history) == len(ref_result.history)
    for mine, theirs in zip(folded_result.history, ref_result.history):
        assert mine.time_s == theirs.time_s
        assert mine.val_loss == theirs.val_loss
        assert mine.val_accuracy == theirs.val_accuracy
        assert mine.train_loss == pytest.approx(
            theirs.train_loss, rel=1e-12, nan_ok=True
        )

    transfers = lambda net: [
        (r.sender, r.receiver, r.num_bytes) for r in net.meter.records
    ]
    assert transfers(folded_net) == transfers(ref_net)

    for key in ("peak_pins", "misses", "evictions"):
        assert folded.arena.stats()[key] == ref.arena.stats()[key], key


def test_inputs_exercise_the_lazy_paths():
    # The 5k input must really run sampled: a sampled arena that
    # evicts, and uploads still in flight at the horizon (metered but
    # not yet mixed in).
    spec = renewal_5k()
    algorithm, network, _ = run(SampledAsyncFedAvg, spec, "float64")
    assert not algorithm.arena.dense
    assert algorithm.arena.stats()["evictions"] > 0
    assert algorithm.server_version > 3 * algorithm.sample_size
    uploads_metered = sum(
        1 for r in network.meter.records if r.receiver == TrafficMeter.SERVER
    )
    assert uploads_metered > algorithm.upload_count
