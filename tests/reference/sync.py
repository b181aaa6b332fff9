"""Per-model reference loops of the seven synchronous families.

Each class subclasses its production family and swaps the replica-matrix
operations for the per-worker loops they replaced: local compute through
``TrainingWorker.compute_gradient``/``local_step`` one worker at a time
(no :class:`~repro.sim.cluster.ClusterTrainer`), and mixing through
``get_params``/``set_params`` round-trips on flat per-model vectors.
Those calls work on arena-backed workers too, so a reference run and a
production run start from the same ``make_workers`` output and their
trajectories can be compared bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.decentralized import DCDPSGD, DPSGD
from repro.algorithms.fedavg import FedAvg, SparseFedAvg
from repro.algorithms.psgd import PSGD, TopKPSGD
from repro.algorithms.saps_psgd import SAPSPSGD
from repro.compression.base import BYTES_PER_VALUE, SharedMaskPayload
from repro.compression.error_feedback import ErrorFeedback
from repro.compression.random_mask import generate_mask


class PerModel:
    """Per-worker compute plus per-model versions of the shared
    :class:`~repro.algorithms.base.DistributedAlgorithm` helpers."""

    def _after_setup(self) -> None:
        super()._after_setup()
        self.cluster_trainer = None

    def _apply_average_gradient(self, average: np.ndarray) -> None:
        for worker in self.workers:
            worker.apply_gradient(average)

    def consensus_model(self) -> np.ndarray:
        stacked = np.stack([w.get_params() for w in self.workers])
        return stacked.mean(axis=0)

    def consensus_distance(self) -> float:
        stacked = np.stack([w.get_params() for w in self.workers])
        mean = stacked.mean(axis=0)
        return float(np.mean(np.sum((stacked - mean) ** 2, axis=1)))


class ReferencePSGD(PerModel, PSGD):
    """All-reduce: per-worker gradients, per-worker update."""


class ReferenceTopKPSGD(PerModel, TopKPSGD):
    """One error-feedback buffer and one top-k compression per worker."""

    def _after_setup(self) -> None:
        super()._after_setup()
        self._feedback = [
            ErrorFeedback(
                self.compressor, self.model_size, dtype=worker.model.dtype
            )
            for worker in self.workers
        ]

    def run_round(self, round_index: int) -> float:
        losses = []
        dense_contributions = []
        payload_bytes = []
        for worker, feedback in zip(self.workers, self._feedback):
            loss, gradient = worker.compute_gradient()
            losses.append(loss)
            payload, dense_sent = feedback.compress(gradient, round_index)
            dense_contributions.append(dense_sent)
            payload_bytes.append(payload.num_bytes())
        self._apply_average_gradient(np.mean(dense_contributions, axis=0))
        self._account_allgather(round_index, payload_bytes)
        self.network.finish_round()
        return float(np.mean(losses))


class ReferenceDPSGD(PerModel, DPSGD):
    """Ring mixing one worker at a time over round-start snapshots."""

    def run_round(self, round_index: int) -> float:
        params = [worker.snapshot_params() for worker in self.workers]
        losses = []
        gradients = []
        for worker in self.workers:
            loss, gradient = worker.compute_gradient()
            losses.append(loss)
            gradients.append(gradient)
        self._account_ring_traffic(round_index)
        # Production scales the gradients by a float64 rate vector; a
        # one-element float64 slice promotes the same way (a bare Python
        # float would not), so float32 runs round once, on assignment.
        rates = np.array([worker.optimizer.lr for worker in self.workers])
        for rank, worker in enumerate(self.workers):
            mixed = self.gossip[rank, rank] * params[rank]
            for neighbor in self._ring_neighbors(rank):
                mixed = mixed + self.gossip[rank, neighbor] * params[neighbor]
            worker.set_params(mixed - rates[rank : rank + 1] * gradients[rank])
            worker.steps_taken += 1
        self.network.finish_round()
        return float(np.mean(losses))


def whole_matrix_ring_mix(algorithm: DPSGD) -> None:
    """D-PSGD's ``X ← WX − diag(lr)·G`` as one whole-matrix expression.

    The accumulation order (self, left neighbour, right neighbour)
    matches the per-model loop; the fused row-blocked production mix
    must reproduce it bit for bit at every dtype and thread count.
    """
    replicas = algorithm.arena.data
    prev_ranks, next_ranks, self_w, prev_w, next_w, rates = (
        algorithm._ring_mix_terms()
    )
    mixed = self_w * replicas
    mixed = mixed + prev_w * replicas[prev_ranks]
    mixed = mixed + next_w * replicas[next_ranks]
    replicas[...] = mixed - rates[:, None] * algorithm.arena.grads


class WholeMatrixDPSGD(DPSGD):
    """Production D-PSGD with the unfused whole-matrix mix."""

    def _mix(self) -> None:
        whole_matrix_ring_mix(self)


class ReferenceDCDPSGD(PerModel, DCDPSGD):
    """DCD-PSGD already mixes per model; only the compute is per worker."""


class ReferenceSAPSPSGD(PerModel, SAPSPSGD):
    """Eq. 7 one matched pair at a time on flat per-model vectors."""

    def _exchange(
        self, round_index, pairs, mask_seed, gathered=None, mask_indices=None
    ) -> None:
        mask = generate_mask(self.model_size, self.compression_ratio, mask_seed)
        indices = np.flatnonzero(mask)
        for a, b in pairs:
            params_a = self.workers[a].get_params()
            params_b = self.workers[b].get_params()
            payload_a = SharedMaskPayload(
                values=params_a[indices], indices=indices, mask_seed=mask_seed
            )
            payload_b = SharedMaskPayload(
                values=params_b[indices], indices=indices, mask_seed=mask_seed
            )
            self.network.exchange(round_index, a, b, payload_a, payload_b)
            averaged = 0.5 * (params_a[indices] + params_b[indices])
            params_a[indices] = averaged
            params_b[indices] = averaged
            self.workers[a].set_params(params_a)
            self.workers[b].set_params(params_b)


class ReferenceFedAvg(PerModel, FedAvg):
    """Download, local steps and upload one selected worker at a time."""

    # The evaluated model is the server's, not the replica mean.
    consensus_model = FedAvg.consensus_model

    def run_round(self, round_index: int) -> float:
        selected = self._select(round_index)
        self.last_participants = selected
        losses = []
        for rank in selected:
            worker = self.workers[rank]
            worker.set_params(self.global_model)
            for _ in range(self.local_steps):
                losses.append(worker.local_step())
        uploads = [self.workers[rank].get_params() for rank in selected]
        self.global_model = np.mean(uploads, axis=0)
        self._account(
            round_index, selected, self.model_size * BYTES_PER_VALUE
        )
        return float(np.mean(losses))


class ReferenceSparseFedAvg(PerModel, SparseFedAvg):
    """S-FedAvg already masks per upload; only the compute is per worker."""

    consensus_model = SparseFedAvg.consensus_model


REFERENCES = {
    PSGD: ReferencePSGD,
    TopKPSGD: ReferenceTopKPSGD,
    DPSGD: ReferenceDPSGD,
    DCDPSGD: ReferenceDCDPSGD,
    SAPSPSGD: ReferenceSAPSPSGD,
    FedAvg: ReferenceFedAvg,
    SparseFedAvg: ReferenceSparseFedAvg,
}


def per_model(algorithm):
    """``algorithm`` (constructed, not yet set up) switched to its
    per-model reference class — same constructor state, reference
    rounds."""
    algorithm.__class__ = REFERENCES[type(algorithm)]
    return algorithm
