"""SampledAsyncFedAvg: AsyncFedAvg over a lazy client store.

Pins the server rule ``α = mixing / (1 + s) ** p`` (Xie et al., 2019) on
a hand-computed two-upload trace, the K-seat participation pool, the
constructor/bind errors, and the traffic meter.
"""

import numpy as np
import pytest

from repro.algorithms import LogisticBlobsTask, SampledAsyncFedAvg
from repro.network import SimulatedNetwork
from repro.network.metrics import TrafficMeter
from repro.sim import ConstantCompute, EventEngine, FaultPlan
from repro.sim.timing import ComputeModel


class PerClientCompute(ComputeModel):
    """Client ``c`` takes ``seconds[c]`` per local step."""

    def __init__(self, seconds):
        self.seconds = seconds

    def step_time(self, round_index, rank, steps=1):
        return self.seconds[rank] * steps


def run(algorithm, compute_model, duration):
    network = SimulatedNetwork(algorithm.num_clients)
    engine = EventEngine(network, compute_model=compute_model)
    engine.run(algorithm, None, duration, checkpoint_every=duration)
    return network


def test_two_upload_trace_matches_fedasync_rule():
    # Two clients, two local steps each.  No link model, so transfers
    # take no time: client 0 uploads at t = 1.0 (staleness 0) and
    # restarts; client 1, which downloaded version 0 at t = 0, uploads
    # at t = 1.5 after one server update (staleness 1).  Client 0's
    # second upload would land at t = 2.0, past the horizon.
    task = LogisticBlobsTask(num_features=4, num_classes=3, batch_size=8, seed=2)
    mixing, power, lr, steps = 0.6, 2.0, 0.1, 2
    algorithm = SampledAsyncFedAvg(
        task, num_clients=2, sample_size=2, local_steps=steps,
        mixing=mixing, staleness_power=power, lr=lr, seed=1,
    )
    run(algorithm, PerClientCompute({0: 0.5, 1: 0.75}), duration=1.75)

    initial = np.zeros(task.model_size)
    local = {}
    for client in (0, 1):
        row = initial.copy()
        task.run_local(row, client, 0, steps, lr)
        local[client] = row
    alpha_1 = mixing  # staleness 0
    alpha_2 = mixing / (1 + 1) ** power  # staleness 1: 0.6 / 4
    after_first = (1 - alpha_1) * initial + alpha_1 * local[0]
    expected = (1 - alpha_2) * after_first + alpha_2 * local[1]

    assert algorithm.staleness_log == [0, 1]
    assert algorithm.server_version == 2
    np.testing.assert_array_equal(algorithm.global_model, expected)


def test_seats_stay_full_and_refill_after_every_upload():
    task = LogisticBlobsTask(num_features=4, num_classes=3, batch_size=8, seed=2)
    sample_size = 5
    algorithm = SampledAsyncFedAvg(
        task, num_clients=40, sample_size=sample_size, local_steps=1, seed=3
    )
    in_flight = []
    upload = algorithm._on_upload

    def counting_upload(client, version, now):
        upload(client, version, now)
        in_flight.append(len(algorithm._active))

    algorithm._on_upload = counting_upload
    network = run(algorithm, ConstantCompute(0.1), duration=3.0)

    assert algorithm.upload_count > 3 * sample_size
    assert in_flight == [sample_size] * algorithm.upload_count
    assert algorithm.arena.stats()["peak_pins"] == sample_size
    # Every upload handed its seat to a fresh download.
    downloads = [
        r for r in network.meter.records if r.sender == TrafficMeter.SERVER
    ]
    assert len(downloads) == sample_size + algorithm.upload_count


def test_meters_two_models_per_completed_participation():
    task = LogisticBlobsTask(num_features=4, num_classes=3, batch_size=8, seed=2)
    sample_size = 4
    algorithm = SampledAsyncFedAvg(
        task, num_clients=30, sample_size=sample_size, local_steps=2, seed=5
    )
    network = run(algorithm, ConstantCompute(0.05), duration=2.0)
    model_bytes = algorithm.model_bytes
    uploads = algorithm.upload_count
    assert uploads > 0
    up = sum(
        r.num_bytes for r in network.meter.records
        if r.receiver == TrafficMeter.SERVER
    )
    down = sum(
        r.num_bytes for r in network.meter.records
        if r.sender == TrafficMeter.SERVER
    )
    # Completed participations cost one download plus one upload; the
    # seats still in flight at the horizon have downloaded only.
    assert up == uploads * model_bytes
    assert up + down == (2 * uploads + sample_size) * model_bytes


class TestValidation:
    task = LogisticBlobsTask(num_features=4, num_classes=3, seed=2)

    def test_capacity_must_cover_the_seats(self):
        with pytest.raises(ValueError, match="capacity"):
            SampledAsyncFedAvg(self.task, 100, sample_size=10, capacity=5)

    @pytest.mark.parametrize("mixing", [0.0, -0.1, 1.5])
    def test_mixing_outside_unit_interval(self, mixing):
        with pytest.raises(ValueError, match="mixing"):
            SampledAsyncFedAvg(self.task, 100, sample_size=10, mixing=mixing)

    def test_fault_plan_rejected_at_bind(self):
        algorithm = SampledAsyncFedAvg(self.task, 10, sample_size=2)
        engine = EventEngine(
            SimulatedNetwork(10),
            compute_model=ConstantCompute(0.1),
            fault_plan=FaultPlan.parse("crash:1@3.0,recover:1@8.0", 10),
        )
        with pytest.raises(ValueError, match="fault plans"):
            algorithm.bind(engine)
