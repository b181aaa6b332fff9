"""The standalone lazy-FedAsync event state machine, kept as an oracle.

Production runs :class:`~repro.algorithms.SampledAsyncFedAvg` through
:class:`~repro.algorithms.asynchronous.AsyncFedAvg`'s handlers over a
lazy client store.  This module keeps the standalone state machine the
fold replaced — its own launch, download, compute, upload and
seat-refill handlers, its own evaluation hook and its own consensus
formula — so ``tests/test_sampled_reference.py`` can diff the folded
class against it bit for bit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.sampled import LogisticBlobsTask
from repro.compression.base import BYTES_PER_VALUE
from repro.network.metrics import TrafficMeter
from repro.nn.sharded import ShardedArena
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import derive_seed


class ReferenceSampledAsyncFedAvg:
    """FedAsync over an enrolled population with K in-flight participants.

    At any moment exactly ``sample_size`` clients hold a participation
    seat: download → local steps → upload → staleness-weighted server
    mix, then the seat is handed to a freshly sampled (up, idle) client.
    All per-client state rides the :class:`ShardedArena` pinned across
    the participation, so resident memory is ∝ the active set for any
    enrolment.

    The server mixing rule, staleness accounting and traffic metering
    match :class:`~repro.algorithms.asynchronous.AsyncFedAvg`; the
    difference is purely the lazy substrate (no TrainingWorkers, no
    partitions, no dense arena).  Fault plans are not supported — the
    crash/recovery machinery lives in the worker-backed stack.
    """

    name = "Sampled-Async-FedAvg"
    is_asynchronous = True

    def __init__(
        self,
        task: LogisticBlobsTask,
        num_clients: int,
        sample_size: int = 512,
        capacity: Optional[int] = None,
        local_steps: int = 5,
        mixing: float = 0.6,
        staleness_power: float = 1.0,
        lr: float = 0.1,
        dtype: DTypeLike = None,
        seed: int = 0,
    ) -> None:
        num_clients = int(num_clients)
        sample_size = int(sample_size)
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if not 1 <= sample_size <= num_clients:
            raise ValueError(
                f"sample_size must be in [1, {num_clients}], got {sample_size}"
            )
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        if not 0.0 < mixing <= 1.0:
            raise ValueError(f"mixing must be in (0, 1], got {mixing}")
        if staleness_power < 0.0:
            raise ValueError(
                f"staleness_power must be >= 0, got {staleness_power}"
            )
        if capacity is None:
            # Headroom above the pinned set so pins can never dead-lock
            # and recently-active rows get a little reuse.
            capacity = min(num_clients, 2 * sample_size + 16)
        capacity = int(capacity)
        if capacity < sample_size:
            raise ValueError(
                f"capacity ({capacity}) must cover the {sample_size} "
                f"concurrently pinned participants"
            )
        self.task = task
        self.num_workers = num_clients  # engine-protocol name
        self.num_clients = num_clients
        self.sample_size = sample_size
        self.local_steps = int(local_steps)
        self.mixing = float(mixing)
        self.staleness_power = float(staleness_power)
        self.lr = float(lr)
        self.model_size = task.model_size
        self.model_bytes = task.model_size * BYTES_PER_VALUE
        dtype = resolve_dtype(dtype)
        # Server-centric semantics: participants always download fresh
        # global state, so evicted rows need no writeback store.
        self.arena = ShardedArena(
            num_clients,
            task.model_size,
            dtype=dtype,
            capacity=capacity,
            retain_evicted=False,
        )
        self.global_model = np.zeros(task.model_size, dtype=dtype)
        self.arena.set_cold(self.global_model)
        self._rng = np.random.default_rng(derive_seed(seed, "sampled-server"))
        self.engine = None
        #: Shared participation/residency layer, built at :meth:`bind`.
        self.participation_ctx = None
        self.server_version = 0
        self.upload_count = 0
        self.total_local_steps = 0
        self.staleness_log: List[int] = []
        self._loss_sum = 0.0
        self._loss_events = 0
        self._active: set = set()
        self._cycle_counts: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # engine protocol
    # ------------------------------------------------------------------
    def bind(self, engine) -> None:
        if engine.num_workers != self.num_clients:
            raise ValueError(
                f"engine has {engine.num_workers} workers, algorithm "
                f"has {self.num_clients}"
            )
        if engine.faults_active:
            raise ValueError(
                "SampledAsyncFedAvg does not support fault plans — use the "
                "worker-backed AsyncFedAvg for crash/recovery studies"
            )
        self.engine = engine
        from repro.sim.participation import ParticipationContext

        self.participation_ctx = ParticipationContext(
            self.num_clients,
            population=getattr(engine, "population", None),
            sample_size=self.sample_size,
        )

    def start(self) -> None:
        initial = self.participation_ctx.initial_seats(
            0.0, self.sample_size, self._rng, lazy=True
        )
        for client in initial:
            self._active.add(int(client))
            self._launch(int(client), 0.0)

    @property
    def mean_train_loss(self) -> float:
        if self._loss_events == 0:
            return float("nan")
        return self._loss_sum / self._loss_events

    def consensus_model(self) -> np.ndarray:
        return self.global_model.copy()

    def consensus_distance(self) -> float:
        """Mean squared distance of *resident* rows to the global model.

        The dense definition averages over every worker; at million-scale
        only the active working set is materialized, so this reports the
        drift of the rows that exist — the honest sampled analogue.
        """
        slots = self.arena.resident_slots()
        if slots.size == 0:
            return 0.0
        diffs = self.arena.data[slots] - self.global_model
        return float(np.mean(np.sum(diffs ** 2, axis=1)))

    def evaluate_consensus_model(self, validation) -> Tuple[float, float]:
        """Engine snapshot hook: the task owns its validation split."""
        return self.task.evaluate(self.global_model)

    # ------------------------------------------------------------------
    # sampling (delegated to the shared participation layer)
    # ------------------------------------------------------------------
    def _draw_participant(self, now: float) -> Optional[int]:
        return self.participation_ctx.draw_seat(now, self._rng, self._active)

    def _fill_seat(self, now: float) -> None:
        replacement = self._draw_participant(now)
        if replacement is None:
            self.engine.schedule(now + 1.0, self._fill_seat)
            return
        self._active.add(replacement)
        self._launch(replacement, now)

    # ------------------------------------------------------------------
    # the participation state machine
    # ------------------------------------------------------------------
    def _launch(self, client: int, now: float) -> None:
        engine = self.engine
        population = engine.population
        if population is not None:
            up_at = population.next_up(client, now)
            if up_at > now:
                engine.schedule(
                    up_at, lambda t, c=client: self._launch(c, t)
                )
                return
        # The download carries the global model as of its start.
        snapshot = self.global_model.copy()
        version = self.server_version
        _, dl_end = engine.start_transfer(
            now, TrafficMeter.SERVER, client, self.model_bytes,
            self.upload_count,
        )
        engine.schedule(
            max(dl_end, now),
            lambda t, c=client, s=snapshot, v=version: (
                self._on_download(c, s, v, t)
            ),
        )

    def _on_download(
        self, client: int, snapshot: np.ndarray, version: int, now: float
    ) -> None:
        engine = self.engine
        # Pin for the whole participation: local steps and the upload
        # read/write this row, eviction in between would tear it.
        self.arena.acquire([client])
        self.arena.row(client)[...] = snapshot
        cycle = self._cycle_counts.get(client, 0)
        self._cycle_counts[client] = cycle + 1
        duration = engine.compute_seconds(cycle, client, self.local_steps)
        engine.trace.add(client, "compute", now, now + duration)
        engine.schedule(
            now + duration,
            lambda t, c=client, v=version, cy=cycle: (
                self._on_compute_done(c, v, cy, t)
            ),
        )

    def _on_compute_done(
        self, client: int, version: int, cycle: int, now: float
    ) -> None:
        loss = self.task.run_local(
            self.arena.row(client), client, cycle, self.local_steps, self.lr
        )
        self.total_local_steps += self.local_steps
        self._loss_sum += loss
        self._loss_events += 1
        _, ul_end = self.engine.start_transfer(
            now, client, TrafficMeter.SERVER, self.model_bytes,
            self.upload_count,
        )
        self.engine.schedule(
            max(ul_end, now),
            lambda t, c=client, v=version: self._on_upload(c, v, t),
        )

    def _on_upload(self, client: int, version: int, now: float) -> None:
        staleness = self.server_version - version
        self.staleness_log.append(staleness)
        alpha = self.mixing / float((1 + staleness) ** self.staleness_power)
        upload = self.arena.row(client)
        mixed = (1.0 - alpha) * self.global_model + alpha * upload
        self.global_model = mixed.astype(self.global_model.dtype, copy=False)
        self.server_version += 1
        self.upload_count += 1
        self.arena.release([client])
        self._active.discard(client)
        self._fill_seat(now)


    # The engine evaluates every algorithm through
    # ``cluster_trainer.evaluate_vector``; route that to the hook above.
    @property
    def cluster_trainer(self):
        return _OwnEvaluation(self)


class _OwnEvaluation:
    def __init__(self, algorithm: ReferenceSampledAsyncFedAvg) -> None:
        self.algorithm = algorithm

    def evaluate_vector(self, vector, dataset) -> Tuple[float, float]:
        return self.algorithm.evaluate_consensus_model(dataset)
