"""The four benchmark workloads: what each builds from the seed.

The benchmark seed draws the *inputs*: the bandwidth matrix, the
validation split and partition (blobs), the preset's images and initial
model (CNN), the lazy clients' data, speeds and availability (100k
clients).  The program's own randomness (the
``ExperimentConfig.seed`` streams, Algorithm 3's matchings, seat draws,
straggler means, the fault schedule) is part of each workload's
definition and fixed at :data:`SCENARIO_SEED`, so every seed asks for
about the same work.  With the protocol seed following the input seed,
Algorithm 3's connectivity-fallback rounds on ``saps-select-1024`` cost
anywhere from 0.1 s to 6.6 s per run, which no timing bound could
absorb; scenario seed 0 gives a fallback round of about 1.7 s.

Module import stays cheap (no ``repro`` import) so ``run.py`` can read
the table; the builders import what they need.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

SCENARIO_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    #: "sync" (run_experiment rounds) or "event" (EventEngine.run).
    engine: str
    #: Rounds per job (sync) or probe slices per job (event).
    rounds: int
    #: Full jobs per run, at least — enough pooled rounds for p90.
    min_jobs: int
    builder: str


#: Why each workload is in the benchmark: see ``BENCHMARK.json``.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("saps-select-1024", "sync", rounds=40, min_jobs=3,
                 builder="build_saps"),
        Workload("dpsgd-cnn-64", "sync", rounds=100, min_jobs=2,
                 builder="build_dpsgd"),
        Workload("gossip-async-faults", "event", rounds=100, min_jobs=2,
                 builder="build_gossip"),
        Workload("fedasync-sampled-100k", "event", rounds=100, min_jobs=2,
                 builder="build_fedasync"),
    )
}


def _blobs_mlp(num_workers: int, seed: int):
    """The CLI's blobs workload (``repro.cli run`` without a preset): 60
    samples per worker and an MLP 32-32-10, with changes that keep the
    final loss comparable across seeds.  The samples and the initial
    model are fixed by the scenario seed, and the input seed picks the
    validation split and the partition: with samples and weights drawn
    from the input seed, the final loss differs by a fifth between
    seeds.  Class centres are 0.5 apart (the CLI's 3.0 makes the task
    separable, so the loss runs to ~0.01 and differs by half between
    seeds), and validation takes 2000 samples instead of 200."""
    from repro.data import make_blobs, partition_iid
    from repro.nn import MLP

    validation_samples = 2000
    samples = 60 * num_workers + validation_samples
    full = make_blobs(
        num_samples=samples, num_classes=10, num_features=32,
        separation=0.5, rng=SCENARIO_SEED,
    )
    train, validation = full.split(
        fraction=(samples - validation_samples) / samples, rng=seed
    )
    partitions = partition_iid(train, num_workers, rng=seed)
    factory = lambda: MLP(32, [32], 10, rng=SCENARIO_SEED, dtype="float32")
    return partitions, validation, factory


def _random_network(num_workers: int, seed: int):
    """``--bandwidth random`` with links uniform on (1, 5] MB/s instead of
    (0, 5]: the slowest link bounds the barrier time, and a draw near
    zero would make simulated communication time swing 50x between
    seeds.  The server sits at the fastest link speed."""
    from repro.network import SimulatedNetwork, random_uniform_bandwidth

    bandwidth = random_uniform_bandwidth(num_workers, low=1.0, rng=seed)
    return SimulatedNetwork(
        num_workers, bandwidth=bandwidth, server_bandwidth=float(bandwidth.max())
    )


def build_saps(seed: int, rounds: int) -> SimpleNamespace:
    from repro.algorithms import SAPSPSGD
    from repro.sim import ExperimentConfig

    n = 1024
    partitions, validation, factory = _blobs_mlp(n, seed)
    return SimpleNamespace(
        partitions=partitions,
        validation=validation,
        factory=factory,
        network=_random_network(n, seed),
        config=ExperimentConfig(
            rounds=rounds, batch_size=16, lr=0.1, eval_every=10,
            seed=SCENARIO_SEED, dtype="float32",
        ),
        algorithm=SAPSPSGD(compression_ratio=100.0, base_seed=SCENARIO_SEED),
    )


def build_dpsgd(seed: int, rounds: int) -> SimpleNamespace:
    from dataclasses import replace

    from repro.algorithms import DPSGD
    from repro.presets import instantiate_preset

    n = 64
    partitions, validation, factory, config = instantiate_preset(
        "cifar10-cnn", num_workers=n, fast=True, seed=seed, dtype="float32"
    )
    return SimpleNamespace(
        partitions=partitions,
        validation=validation,
        factory=factory,
        network=_random_network(n, seed),
        config=replace(config, rounds=rounds, seed=SCENARIO_SEED),
        algorithm=DPSGD(),
    )


def build_gossip(seed: int, slices: int) -> SimpleNamespace:
    from repro.algorithms import AsyncGossip
    from repro.resilience import ExchangePolicy, make_recovery_policy
    from repro.sim import ExperimentConfig, HeterogeneousCompute
    from repro.sim.faults import FaultPlan

    n, duration = 64, 20.0
    partitions, validation, factory = _blobs_mlp(n, seed)
    config = ExperimentConfig(
        batch_size=16, lr=0.1, seed=SCENARIO_SEED, dtype="float32",
        engine="event", fault_plan="mttf=20,mttr=5",
    )
    return SimpleNamespace(
        partitions=partitions,
        validation=validation,
        factory=factory,
        network=_random_network(n, seed),
        config=config,
        algorithm=AsyncGossip(
            compression_ratio=100.0, base_seed=SCENARIO_SEED, local_steps=1
        ),
        engine_kwargs=dict(
            compute_model=HeterogeneousCompute(
                n, mean_step_time=0.05, spread=4.0, rng=SCENARIO_SEED
            ),
            fault_plan=FaultPlan.parse(
                config.fault_plan, n, horizon=duration, seed=SCENARIO_SEED
            ),
            exchange_policy=ExchangePolicy(
                timeout=config.exchange_timeout, max_retries=3,
                seed=SCENARIO_SEED,
            ),
            recovery=make_recovery_policy(
                config.recovery, checkpoint_interval=1.0
            ),
            scheduler=config.scheduler,
        ),
        duration=duration,
        checkpoint_every=duration / 10,
        batch_size=config.batch_size,
    )


def build_fedasync(seed: int, slices: int) -> SimpleNamespace:
    """The task, the clients' speeds and their up/down process are the
    inputs here; the lazy client store and the engine are set-up steps
    the job times on their own.  Client speeds spread over 2x either way
    of 0.5 s per step: with one constant step time every seat finishes
    in the same instant, so work arrives in one burst per cycle and
    most of the horizon's slices hold no event at all."""
    from repro.algorithms import LogisticBlobsTask
    from repro.sim import HeterogeneousCompute, RenewalPopulation

    clients = 100_000
    task = LogisticBlobsTask(num_features=32, num_classes=10, seed=seed)
    return SimpleNamespace(
        task=task,
        validation=task,
        clients=clients,
        seats=512,
        compute_model=HeterogeneousCompute(
            clients, mean_step_time=0.5, spread=2.0, rng=seed
        ),
        population=RenewalPopulation(
            clients, mean_up=60.0, mean_down=30.0, seed=seed
        ),
        duration=40.0,
        checkpoint_every=10.0,
        batch_size=task.batch_size,
    )
