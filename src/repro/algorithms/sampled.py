"""Million-client execution: a lazy client store and its two consumers.

The worker-backed algorithm stack materializes a :class:`TrainingWorker`
(model, optimizer, dataset partition) per enrolled client — O(n) memory
and O(n) setup, which caps runs at a few thousand clients.  Production
federated populations are 10⁵–10⁷ enrolled clients of which a few
hundred participate per round; everything per-client must be lazy.

:class:`LazyClientStore` is the worker-less substrate the algorithms
attach instead (:meth:`DistributedAlgorithm.attach_store`):

* state lives in a :class:`~repro.nn.sharded.ShardedArena` — resident
  rows ∝ concurrently active clients, dormant clients cost nothing;
* per-client *data* is virtual too: :class:`LogisticBlobsTask` draws
  each client's batches from a :func:`~repro.utils.rng.derive_seed`
  substream on demand, so no partition list is ever materialized;
* :class:`TaskTrainer` answers the two calls the algorithms make on a
  :class:`~repro.sim.cluster.ClusterTrainer` (``batched_steps`` and
  ``evaluate_vector``) through the task.

Two algorithms run on it:

* :class:`SampledAsyncFedAvg` is
  :class:`~repro.algorithms.asynchronous.AsyncFedAvg` — the same event
  handlers, seat pool and FedAsync server rule — constructed over a
  store; this class only adapts the constructor and ``bind``;
* :class:`SampledSAPS` runs sampled-neighborhood SAPS-PSGD rounds with
  the store's trainer for local steps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.asynchronous import AsyncFedAvg
from repro.algorithms.base import DistributedAlgorithm
from repro.compression.base import BYTES_PER_VALUE
from repro.compression.random_mask import generate_mask
from repro.core.matching import greedy_weighted_matching
from repro.nn.sharded import ShardedArena
from repro.utils.dtypes import DTypeLike, resolve_dtype
from repro.utils.rng import derive_seed


class LogisticBlobsTask:
    """Softmax regression on per-client Gaussian blobs, fully lazy.

    A shared set of class centers defines the problem; client ``c``'s
    step ``s`` batch is regenerated on demand from
    ``derive_seed(seed, "client", c, s)`` — identical every time it is
    asked for, never stored.  The model is the flat ``(C·D + C)`` vector
    ``[W.ravel(), b]`` and local training is plain softmax-cross-entropy
    SGD, vectorized over the batch.
    """

    def __init__(
        self,
        num_features: int = 32,
        num_classes: int = 10,
        batch_size: int = 16,
        noise: float = 0.6,
        validation_samples: int = 2048,
        seed: int = 0,
    ) -> None:
        if num_features < 1 or num_classes < 2:
            raise ValueError(
                f"need num_features >= 1 and num_classes >= 2, got "
                f"{num_features}, {num_classes}"
            )
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if noise <= 0:
            raise ValueError(f"noise must be > 0, got {noise}")
        self.num_features = int(num_features)
        self.num_classes = int(num_classes)
        self.batch_size = int(batch_size)
        self.noise = float(noise)
        self.seed = int(seed)
        self.model_size = self.num_classes * self.num_features + self.num_classes
        rng = np.random.default_rng(derive_seed(self.seed, "task-centers"))
        # Unit-norm class centers: separation is controlled by `noise`.
        centers = rng.normal(size=(self.num_classes, self.num_features))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        self.centers = centers
        val_rng = np.random.default_rng(derive_seed(self.seed, "task-validation"))
        self.val_labels = val_rng.integers(
            self.num_classes, size=int(validation_samples)
        )
        self.val_features = self.centers[self.val_labels] + self.noise * (
            val_rng.normal(size=(int(validation_samples), self.num_features))
        )

    # ------------------------------------------------------------------
    # lazy per-client data
    # ------------------------------------------------------------------
    def client_batch(self, client: int, step: int) -> Tuple[np.ndarray, np.ndarray]:
        """Client ``client``'s ``step``-th batch (deterministic, lazy)."""
        rng = np.random.default_rng(
            derive_seed(self.seed, "client", client, step)
        )
        labels = rng.integers(self.num_classes, size=self.batch_size)
        features = self.centers[labels] + self.noise * rng.normal(
            size=(self.batch_size, self.num_features)
        )
        return features, labels

    # ------------------------------------------------------------------
    # flat-vector model ops
    # ------------------------------------------------------------------
    def _unpack(self, vector: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        split = self.num_classes * self.num_features
        weights = vector[:split].reshape(self.num_classes, self.num_features)
        bias = vector[split:]
        return weights, bias

    @staticmethod
    def _softmax(logits: np.ndarray) -> np.ndarray:
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        return probs

    def run_local(
        self, row: np.ndarray, client: int, cycle: int, steps: int, lr: float
    ) -> float:
        """``steps`` SGD steps in place on ``row``; returns mean loss."""
        weights, bias = self._unpack(row)
        batch_rows = np.arange(self.batch_size)
        losses = []
        for local in range(steps):
            features, labels = self.client_batch(client, cycle * steps + local)
            probs = self._softmax(features @ weights.T + bias)
            losses.append(
                -float(np.mean(np.log(probs[batch_rows, labels] + 1e-12)))
            )
            grad_logits = probs
            grad_logits[batch_rows, labels] -= 1.0
            grad_logits /= self.batch_size
            weights -= lr * (grad_logits.T @ features)
            bias -= lr * grad_logits.sum(axis=0)
        return float(np.mean(losses))

    def evaluate(self, vector: np.ndarray) -> Tuple[float, float]:
        """(validation loss, accuracy) of a flat model vector."""
        weights, bias = self._unpack(np.asarray(vector, dtype=np.float64))
        probs = self._softmax(self.val_features @ weights.T + bias)
        rows = np.arange(len(self.val_labels))
        loss = -float(np.mean(np.log(probs[rows, self.val_labels] + 1e-12)))
        accuracy = float(np.mean(probs.argmax(axis=1) == self.val_labels))
        return loss, accuracy


class TaskTrainer:
    """The :class:`~repro.sim.cluster.ClusterTrainer` calls, answered by a
    lazy task.

    ``batched_steps`` runs :meth:`LogisticBlobsTask.run_local` on each
    client's arena row in turn.  A per-client cycle counter picks the
    batches: a client's ``c``-th participation trains on steps
    ``c·k … c·k + k − 1`` of its data substream, whichever algorithm
    drives it.
    """

    def __init__(
        self, task: LogisticBlobsTask, arena: ShardedArena, lr: float
    ) -> None:
        self.task = task
        self.arena = arena
        self.lr = float(lr)
        self._cycles: Dict[int, int] = {}

    def batched_steps(self, k: int, ranks) -> np.ndarray:
        """``k`` local steps for each client of ``ranks``, in order.

        Returns a ``(len(ranks), 1)`` matrix: the task reports one mean
        loss per client cycle, not one per step."""
        losses = np.empty((len(ranks), 1), dtype=np.float64)
        for i, client in enumerate(ranks):
            client = int(client)
            cycle = self._cycles.get(client, 0)
            self._cycles[client] = cycle + 1
            losses[i, 0] = self.task.run_local(
                self.arena.row(client), client, cycle, k, self.lr
            )
        return losses

    def evaluate_vector(
        self, vector: np.ndarray, dataset
    ) -> Tuple[float, float]:
        """(validation loss, accuracy) of ``vector``; the task owns its
        validation split, so ``dataset`` is not read."""
        return self.task.evaluate(vector)


class LazyClientStore:
    """Enrolled clients as a lazy task over a sampled :class:`ShardedArena`.

    The worker-less counterpart of a list of :class:`TrainingWorker`:
    ``arena`` holds the client rows (resident memory ∝ ``capacity``,
    never enrolment) and ``trainer`` runs local steps and evaluation
    through ``task``.  ``capacity`` defaults to the ``sample_size``
    participants that may be pinned at once plus reuse headroom.
    ``retain_evicted`` picks the eviction semantics: peer-to-peer state
    must survive between participations, server-centric state is
    downloaded fresh every time.
    """

    def __init__(
        self,
        task: LogisticBlobsTask,
        num_clients: int,
        sample_size: int,
        capacity: Optional[int] = None,
        lr: float = 0.1,
        dtype: DTypeLike = None,
        retain_evicted: bool = True,
    ) -> None:
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
        self.num_clients = int(num_clients)
        self.arena = ShardedArena(
            num_clients,
            task.model_size,
            dtype=resolve_dtype(dtype),
            capacity=capacity,
            retain_evicted=retain_evicted,
        )
        self.trainer = TaskTrainer(task, self.arena, lr)


class SampledAsyncFedAvg(AsyncFedAvg):
    """FedAsync over an enrolled population with K in-flight participants.

    :class:`~repro.algorithms.asynchronous.AsyncFedAvg` with
    ``sample_size`` seats, run over a :class:`LazyClientStore`: at any
    moment exactly ``sample_size`` clients hold a participation seat —
    download → local steps → upload → staleness-weighted server mix,
    then the seat goes to a freshly sampled (up, idle) client.  Each
    client's row stays pinned from download to upload, so resident
    memory is ∝ the active set for any enrolment.

    Only construction differs from the worker-backed class: no
    ``setup`` (the store replaces the workers, the network comes from
    the engine at :meth:`bind`) and the seat draws come from this
    class's own ``"sampled-server"`` seed substream.  Fault plans are
    not supported — the crash/recovery machinery needs TrainingWorkers.
    """

    name = "Sampled-Async-FedAvg"

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
        super().__init__(
            local_steps=local_steps,
            mixing=mixing,
            staleness_power=staleness_power,
            sample_size=sample_size,
        )
        self.task = task
        self.num_clients = num_clients
        self.lr = float(lr)
        # Server-centric semantics: participants always download fresh
        # global state, so evicted rows need no writeback store.
        self.attach_store(
            LazyClientStore(
                task, num_clients, sample_size, capacity, lr, dtype,
                retain_evicted=False,
            )
        )
        self._rng = np.random.default_rng(derive_seed(seed, "sampled-server"))

    def bind(self, engine) -> None:
        if engine.faults_active:
            raise ValueError(
                "SampledAsyncFedAvg does not support fault plans — use the "
                "worker-backed AsyncFedAvg for crash/recovery studies"
            )
        self.network = engine.network
        super().bind(engine)


class SampledSAPS(DistributedAlgorithm):
    """Sampled-neighborhood SAPS-PSGD over a huge enrolled population.

    The worker-backed :class:`~repro.algorithms.saps_psgd.SAPSPSGD` plans
    its max-weight matching over the full ``(n, n)`` bandwidth matrix and
    keeps every replica dense — both O(n) or O(n²) in the enrolment.
    Here each round draws ``sample_size`` up clients through the shared
    :class:`~repro.sim.participation.ParticipationContext`, builds the
    bandwidth submatrix for just that neighborhood (pairwise rate =
    bottleneck link, ``min`` of the two endpoints' lazily seeded uplink
    capabilities), matches *within* the sample, and runs the paper's
    shared-mask Eq. (7) exchange on :class:`ShardedArena` rows pinned for
    the round.  Evicted rows write back (``retain_evicted=True``): gossip
    is peer-to-peer, a client's model *is* its state between
    participations, unlike the download-fresh server-centric
    :class:`SampledAsyncFedAvg`.

    Resident memory is ∝ ``capacity``, never enrolment; the inherited
    consensus diagnostics are the arena's, which stream over resident
    rows + writeback store + lazy cold mass in sampled mode
    (:func:`~repro.theory.streaming.arena_consensus`), so nothing ever
    materializes ``(n, N)``.
    """

    name = "Sampled-SAPS"

    def __init__(
        self,
        task: LogisticBlobsTask,
        num_clients: int,
        sample_size: int = 512,
        capacity: Optional[int] = None,
        compression_ratio: float = 100.0,
        local_steps: int = 1,
        lr: float = 0.1,
        round_duration: float = 1.0,
        population=None,
        dtype: DTypeLike = None,
        seed: int = 0,
    ) -> None:
        super().__init__()
        num_clients = int(num_clients)
        sample_size = int(sample_size)
        if num_clients < 2:
            raise ValueError(f"num_clients must be >= 2, got {num_clients}")
        if not 1 <= sample_size <= num_clients:
            raise ValueError(
                f"sample_size must be in [1, {num_clients}], got {sample_size}"
            )
        if compression_ratio < 1.0:
            raise ValueError(
                f"compression_ratio must be >= 1, got {compression_ratio}"
            )
        if local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {local_steps}")
        self.task = task
        self.num_clients = num_clients
        self.sample_size = sample_size
        self.compression_ratio = float(compression_ratio)
        self.local_steps = int(local_steps)
        self.lr = float(lr)
        self.round_duration = float(round_duration)
        self.population = population
        self.seed = int(seed)
        # Peer-to-peer semantics: an evicted participant's row must
        # survive to its next participation, so writeback is mandatory.
        self.attach_store(
            LazyClientStore(
                task, num_clients, sample_size, capacity, lr, dtype,
                retain_evicted=True,
            )
        )
        # Dedicated substreams, mirroring SAPSPSGD: participation draws
        # never perturb matching tie-breaks or mask seeds.
        self._participation_rng = np.random.default_rng(
            derive_seed(self.seed, "participation")
        )
        self._matching_rng = np.random.default_rng(
            derive_seed(self.seed, "matching")
        )
        self._bandwidth: Dict[int, float] = {}
        self.rounds_run = 0
        self.exchange_count = 0
        self.exchanged_bytes = 0
        self.total_local_steps = 0

    # ------------------------------------------------------------------
    # participation / bandwidth (both lazy)
    # ------------------------------------------------------------------
    def participation_context(self):
        # Imported here: repro.algorithms must not import the repro.sim
        # package at module load (sim.comparison imports the algorithms).
        from repro.sim.participation import ParticipationContext

        return ParticipationContext(
            self.num_clients,
            population=self.population,
            sample_size=self.sample_size,
            round_duration=self.round_duration,
        )

    def client_bandwidth(self, client: int) -> float:
        """Client ``client``'s uplink capability, derived on first use.

        Uniform on [1, 100) Mbps from a per-client seed substream — the
        million-client analogue of the dense runs' random bandwidth
        matrix, without ever materializing ``(n, n)``.
        """
        cached = self._bandwidth.get(client)
        if cached is None:
            rng = np.random.default_rng(
                derive_seed(self.seed, "bandwidth", client)
            )
            cached = float(rng.uniform(1.0, 100.0))
            self._bandwidth[client] = cached
        return cached

    def _neighborhood_weights(self, participants: List[int]) -> np.ndarray:
        """Pairwise bandwidth submatrix for the sampled neighborhood.

        Edge rate is the bottleneck link: ``min`` of the endpoints'
        capabilities — O(K) seed derivations and an O(K²) broadcast, for
        K = participants, independent of enrolment.
        """
        caps = np.array(
            [self.client_bandwidth(c) for c in participants], dtype=np.float64
        )
        weights = np.minimum(caps[:, None], caps[None, :])
        np.fill_diagonal(weights, 0.0)
        return weights

    # ------------------------------------------------------------------
    # the round
    # ------------------------------------------------------------------
    def run_round(self, round_index: int) -> float:
        ctx = self.participation_context()
        participants = ctx.select_round(round_index, self._participation_rng)
        self.last_participants = list(participants)
        if not participants:
            self.rounds_run += 1
            return float("nan")

        # Max-weight matching restricted to the sampled (up) neighborhood;
        # local indices map back through `participants`.
        matching = []
        if len(participants) >= 2:
            local_pairs = greedy_weighted_matching(
                self._neighborhood_weights(participants),
                rng=self._matching_rng,
            )
            matching = [
                (participants[i], participants[j]) for i, j in local_pairs
            ]

        mask = generate_mask(
            self.model_size,
            self.compression_ratio,
            derive_seed(self.seed, "mask", round_index),
        )
        indices = np.flatnonzero(mask)

        # Pin the whole participant set for the round: local SGD and the
        # pairwise merge hold live row views, eviction would tear them.
        with ctx.resident(self.arena, participants):
            losses = self.cluster_trainer.batched_steps(
                self.local_steps, participants
            )
            self.total_local_steps += len(participants) * self.local_steps
            for a, b in matching:
                row_a = self.arena.row(a)
                row_b = self.arena.row(b)
                averaged = 0.5 * (row_a[indices] + row_b[indices])
                row_a[indices] = averaged
                row_b[indices] = averaged
            self.exchange_count += len(matching)
            self.exchanged_bytes += (
                2 * len(matching) * indices.size * BYTES_PER_VALUE
            )
        self.rounds_run += 1
        return float(np.mean(losses))

    # ------------------------------------------------------------------
    # streamed diagnostics at every capacity
    # ------------------------------------------------------------------
    # A sampled arena streams its consensus reductions anyway; a dense-mode
    # one (capacity >= enrolment) keeps the dense arena's one-pass
    # formulas, which round differently at float32.  Streaming both keeps
    # evaluation independent of capacity.
    def _streamed(self) -> Tuple[np.ndarray, float]:
        # Imported here: repro.theory pulls in repro.sim.engine at module
        # load, which circles back into repro.algorithms.
        from repro.theory.streaming import arena_consensus

        return arena_consensus(self.arena)

    def consensus_model(self) -> np.ndarray:
        return self._streamed()[0]

    def consensus_distance(self) -> float:
        return self._streamed()[1]

    def evaluate(self) -> Tuple[float, float]:
        """(validation loss, accuracy) of the streamed consensus model."""
        return self.task.evaluate(self._streamed()[0])
