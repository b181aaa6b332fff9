"""Sharded lazy parameter arena: resident memory ∝ active clients.

The dense :class:`~repro.nn.arena.ParameterArena` materializes every
enrolled worker's row — ``(n, N)`` floats — which caps realistic ``n``
at a few thousand.  Production federated systems enrol millions of
clients but *sample* a few hundred participants per round; memory and
per-round work should scale with the active set, not the enrolment.

:class:`ShardedArena` keeps the arena contract while materializing only
the rows that are actually touched:

* **Dense mode** (``capacity >= num_clients``, the default): storage and
  behaviour are *exactly* the parent class — same contiguous ``(n, N)``
  matrices, same adoption, same matrix reductions — so full-participation
  runs through a ``ShardedArena`` are bit-identical to the dense arena
  by construction (the equivalence discipline of PRs 1–7, CLI-diff
  tested in ``tests/test_sharded.py``).
* **Sampled mode** (``capacity < num_clients``): rows live in a
  fixed-size ``(capacity, N)`` slot store.  :meth:`row` maps a client id
  to its slot, faulting dormant clients in lazily — from the evicted-row
  writeback store if the client ran before (``retain_evicted=True``),
  else from the cold-state vector (the init-replay / checkpoint-fetch
  stand-in) — and evicting the least-recently-used unpinned resident
  when the shard is full.  :meth:`acquire` / :meth:`release` pin a
  participant set for the duration of a round so mid-round evictions
  cannot tear the rows a batched kernel is writing.  The consensus
  reductions stream over resident rows, the writeback store and the
  cold mass (:func:`~repro.theory.streaming.arena_consensus`); the ops
  that need every row materialized (``mix``, ``adopt``,
  ``broadcast_row``) raise.

``resident_bytes()`` is the honest accounting the million-client demo
and the ``sharded_memory`` benchmark report: slot storage plus writeback
store, i.e. memory proportional to clients *touched*, never enrolment.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from repro.nn.arena import ParameterArena
from repro.utils.dtypes import DTypeLike


class ShardedArena(ParameterArena):
    """LRU-evicted sharded parameter + gradient store for huge ``n``.

    Parameters
    ----------
    num_clients:
        Enrolled population size (row ids run ``0..num_clients-1``).
    model_size:
        Flat parameter count per client.
    capacity:
        Resident row budget.  ``None`` (default) means fully dense —
        bit-identical drop-in for :class:`ParameterArena`.  Smaller
        values enable sampled mode.
    cold:
        Flat vector dormant clients start from (e.g. the global model at
        enrolment); ``None`` means zeros.  Updatable via
        :meth:`set_cold`.
    retain_evicted:
        Whether evicted rows are written back to a per-client store and
        restored on the next touch (peer-to-peer semantics).  ``False``
        drops evicted rows — correct for server-centric algorithms whose
        participants always download fresh state, and what keeps the
        resident footprint flat.
    """

    def __init__(
        self,
        num_clients: int,
        model_size: int,
        dtype: DTypeLike = None,
        capacity: Optional[int] = None,
        cold: Optional[np.ndarray] = None,
        retain_evicted: bool = True,
    ) -> None:
        num_clients = int(num_clients)
        if num_clients < 1:
            raise ValueError(f"num_clients must be >= 1, got {num_clients}")
        if capacity is None:
            capacity = num_clients
        capacity = int(capacity)
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        rows = min(capacity, num_clients)
        super().__init__(rows, model_size, dtype=dtype)
        self.num_clients = num_clients
        self.capacity = rows
        #: Dense mode: slot ``c`` *is* client ``c`` and every inherited
        #: operation applies unchanged.
        self.dense = rows == num_clients
        self.retain_evicted = bool(retain_evicted)
        self._cold = (
            None
            if cold is None
            else np.array(cold, dtype=self.dtype, copy=True).reshape(model_size)
        )
        # --- sampled-mode bookkeeping (unused but cheap in dense mode) ---
        self._slot_of: Dict[int, int] = {}
        self._lru: "OrderedDict[int, int]" = OrderedDict()  # client -> slot
        self._free: List[int] = list(range(rows - 1, -1, -1))
        self._pinned: Dict[int, int] = {}  # client -> pin count
        self._store: Dict[int, np.ndarray] = {}  # evicted client -> row copy
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.writebacks = 0
        #: Bytes copied into the writeback store by evictions — the
        #: actual I/O cost of LRU churn (``arena.writeback_bytes``).
        self.writeback_bytes = 0
        #: Pin-contention: evict-candidate scans that had to skip an
        #: already-pinned LRU row (a gossip exchange or participation
        #: holding it resident).  Rising fast relative to ``misses``
        #: means capacity is too tight for the concurrent pin set.
        self.pin_contentions = 0
        #: High-water mark of simultaneously pinned clients.
        self.peak_pins = 0

    # ------------------------------------------------------------------
    # slot management (sampled mode)
    # ------------------------------------------------------------------
    def _check_client(self, client: int) -> int:
        client = int(client)
        if not 0 <= client < self.num_clients:
            raise ValueError(
                f"client {client} out of range [0, {self.num_clients})"
            )
        return client

    def slot_of(self, client: int) -> int:
        """Resident slot of ``client``, faulting the row in if needed."""
        client = self._check_client(client)
        if self.dense:
            return client
        slot = self._slot_of.get(client)
        if slot is not None:
            self.hits += 1
            self._lru.move_to_end(client)
            return slot
        self.misses += 1
        if self._free:
            slot = self._free.pop()
        else:
            slot = self._evict_one()
        self._slot_of[client] = slot
        self._lru[client] = slot
        row = self.data[slot]
        stored = self._store.pop(client, None)
        if stored is not None:
            row[...] = stored
        elif self._cold is not None:
            row[...] = self._cold
        else:
            row[...] = 0
        # Gradients are per-participation scratch, not client state: a
        # faulted-in row always starts with a clean gradient.
        self.grads[slot][...] = 0
        return slot

    def _evict_one(self) -> int:
        victim = None
        for client in self._lru:
            if client in self._pinned:
                self.pin_contentions += 1
                continue
            victim = client
            break
        if victim is None:
            raise RuntimeError(
                f"all {self.capacity} resident rows are pinned — capacity is "
                f"smaller than the concurrently active set; raise capacity "
                f"above the per-round participant count"
            )
        slot = self._lru.pop(victim)
        del self._slot_of[victim]
        if self.retain_evicted:
            self._store[victim] = self.data[slot].copy()
            self.writebacks += 1
            self.writeback_bytes += self.data[slot].nbytes
        self.evictions += 1
        return slot

    def acquire(self, clients: Iterable[int]) -> np.ndarray:
        """Pin ``clients`` resident; returns their slots in input order.

        Pins nest (acquire twice, release twice).  In dense mode this is
        the identity mapping."""
        clients = [self._check_client(c) for c in clients]
        if not self.dense and len(self._pinned) + len(set(clients)) > self.capacity:
            raise RuntimeError(
                f"cannot pin {len(set(clients))} clients with "
                f"{len(self._pinned)} already pinned: capacity is {self.capacity}"
            )
        slots = np.empty(len(clients), dtype=np.int64)
        for i, client in enumerate(clients):
            slots[i] = self.slot_of(client)
            if not self.dense:
                self._pinned[client] = self._pinned.get(client, 0) + 1
        if not self.dense:
            self.peak_pins = max(self.peak_pins, len(self._pinned))
        return slots

    def release(self, clients: Iterable[int]) -> None:
        """Drop one pin per client (rows stay resident until evicted)."""
        if self.dense:
            return
        for client in clients:
            client = int(client)
            count = self._pinned.get(client)
            if count is None:
                raise ValueError(f"client {client} is not pinned")
            if count == 1:
                del self._pinned[client]
            else:
                self._pinned[client] = count - 1

    def evict(self, client: int) -> None:
        """Force ``client`` out of residency (no-op if absent/dense)."""
        client = self._check_client(client)
        if self.dense:
            return
        if client in self._pinned:
            raise ValueError(f"client {client} is pinned")
        slot = self._slot_of.pop(client, None)
        if slot is None:
            return
        del self._lru[client]
        if self.retain_evicted:
            self._store[client] = self.data[slot].copy()
            self.writebacks += 1
            self.writeback_bytes += self.data[slot].nbytes
        self.evictions += 1
        self._free.append(slot)

    # ------------------------------------------------------------------
    # row access (works in both modes)
    # ------------------------------------------------------------------
    def row(self, client: int) -> np.ndarray:
        """Client ``client``'s flat model (live view into its slot).

        The view is only stable until the client's next eviction — pin
        via :meth:`acquire` across any deferred use."""
        if self.dense:
            return self.data[client]
        return self.data[self.slot_of(client)]

    def grad_row(self, client: int) -> np.ndarray:
        if self.dense:
            return self.grads[client]
        return self.grads[self.slot_of(client)]

    def peek(self, client: int) -> np.ndarray:
        """Client state *without* faulting it in (copy for dormant rows).

        Resident rows return the live view; evicted rows return the
        writeback copy; never-touched clients return the cold state."""
        client = self._check_client(client)
        if self.dense:
            return self.data[client]
        slot = self._slot_of.get(client)
        if slot is not None:
            return self.data[slot]
        stored = self._store.get(client)
        if stored is not None:
            return stored
        if self._cold is not None:
            return self._cold.copy()
        return np.zeros(self.model_size, dtype=self.dtype)

    def set_cold(self, vector: np.ndarray) -> None:
        """Install the state dormant (never-touched) clients start from."""
        self._cold = np.array(vector, dtype=self.dtype, copy=True).reshape(
            self.model_size
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def resident_clients(self) -> int:
        return self.num_clients if self.dense else len(self._slot_of)

    @property
    def stored_clients(self) -> int:
        return 0 if self.dense else len(self._store)

    def resident_bytes(self) -> int:
        """Bytes held for client state: slots + writeback store."""
        total = self.data.nbytes + self.grads.nbytes
        total += len(self._store) * self.model_size * self.dtype.itemsize
        return total

    def stats(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "writebacks": self.writebacks,
            "writeback_bytes": self.writeback_bytes,
            "pin_contentions": self.pin_contentions,
            "peak_pins": self.peak_pins,
            "resident": self.resident_clients,
            "stored": self.stored_clients,
        }

    #: Counter (flow) keys of :meth:`stats` — the keys ``stats_delta``
    #: differences; the rest (``peak_pins``, ``resident``, ``stored``)
    #: are levels and pass through as-is.
    _FLOW_KEYS = (
        "hits",
        "misses",
        "evictions",
        "writebacks",
        "writeback_bytes",
        "pin_contentions",
    )

    def stats_delta(self) -> Dict[str, int]:
        """:meth:`stats` since the previous ``stats_delta`` call.

        Flow counters (hits/misses/evictions/writebacks/bytes/
        contentions) come back as deltas; level fields (``resident``,
        ``stored``, ``peak_pins``) keep their current values.  The first
        call baselines against zero, i.e. returns the cumulative stats.
        """
        stats = self.stats()
        base = getattr(self, "_stats_base", None) or {}
        delta = dict(stats)
        for key in self._FLOW_KEYS:
            delta[key] = stats[key] - base.get(key, 0)
        self._stats_base = {key: stats[key] for key in self._FLOW_KEYS}
        return delta

    # ------------------------------------------------------------------
    # dense-only operations: loud errors in sampled mode
    # ------------------------------------------------------------------
    def _require_dense(self, op: str) -> None:
        if not self.dense:
            raise RuntimeError(
                f"{op} needs every client row materialized; this ShardedArena "
                f"holds {self.capacity} of {self.num_clients} rows — use "
                f"capacity=None (dense) or operate on resident rows only"
            )

    def adopt(self, rank: int, model) -> None:
        self._require_dense("adopt()")
        super().adopt(rank, model)

    def broadcast_row(self, source: int) -> None:
        self._require_dense("broadcast_row()")
        super().broadcast_row(source)

    def mix(self, gossip: np.ndarray) -> None:
        self._require_dense("mix()")
        super().mix(gossip)

    # ------------------------------------------------------------------
    # consensus reductions (streamed in sampled mode)
    # ------------------------------------------------------------------
    def _streamed(self):
        # Imported here: repro.theory pulls in repro.sim at module load,
        # which imports this package.
        from repro.theory.streaming import arena_consensus

        return arena_consensus(self)

    def mean_model(self) -> np.ndarray:
        """``X̄`` over all enrolled clients; sampled mode folds it from
        resident rows, writeback store and cold mass."""
        if self.dense:
            return super().mean_model()
        return self._streamed()[0]

    def consensus_distance(self) -> float:
        """``(1/n)Σᵢ‖xᵢ − x̄‖²`` over all enrolled clients (streamed in
        sampled mode)."""
        if self.dense:
            return super().consensus_distance()
        return self._streamed()[1]

    # ------------------------------------------------------------------
    # sampled-mode views of the *resident* set
    # ------------------------------------------------------------------
    def resident_slots(self) -> np.ndarray:
        """Slots currently holding a client row (ascending)."""
        if self.dense:
            return np.arange(self.num_clients, dtype=np.int64)
        return np.array(sorted(self._slot_of.values()), dtype=np.int64)

    def stored_rows(self) -> List[np.ndarray]:
        """The writeback store's row copies (empty in dense mode) — fed
        block-wise to the streaming consensus fold."""
        if self.dense:
            return []
        return list(self._store.values())

    @property
    def cold_vector(self) -> np.ndarray:
        """The state every never-touched client sits at."""
        if self._cold is not None:
            return self._cold
        return np.zeros(self.model_size, dtype=self.dtype)
