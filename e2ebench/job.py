"""One closed batch job: a single experiment, run to completion in this
(fresh) process.  ``run.py`` starts it; it prints one JSON record as the
last line of its standard output.

    python e2ebench/job.py --workload NAME --seed N --mode full|setup|traced
        [--trace-out FILE] [--baseline]

``full`` runs the workload untouched.  ``setup`` stops at the first
round / first event dispatch, so a run can sample set-up time cheaply.
``traced`` first installs the wrappers of :mod:`spans` around each
layer's public calls and adds the per-layer numbers to the record.
``--baseline`` appends a plain single-worker training loop on the
workload's task after the run (reported as ``baseline.samples_per_s``).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time

from calibration import CAL_REF_S, DISPATCH_SAMPLES, calibrate
from harness import digest, layer_totals, outermost, scaled
from spans import END, LAYER, META, NAME, PARENT, START, Tracer
from workloads import WORKLOADS
import workloads


class SetupDone(Exception):
    """Raised at the first dispatch of a ``--mode setup`` job."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["full", "setup", "traced"], default="full")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--baseline", action="store_true")
    return parser.parse_args(argv)


class Clock:
    """Round (or slice) boundaries stamped from the engines' own hooks.

    Each boundary also times the calibration kernel; the time it takes
    is kept out of the round that follows (``cal_s`` totals it, so the
    caller can take it out of loop and process times too)."""

    def __init__(self, stop_after_setup: bool) -> None:
        self.stop_after_setup = stop_after_setup
        self.first = None
        self.first_epoch = None
        self.last = None
        self.round_ms = []
        self.round_cal = []
        self.setup_cal = []
        self.cal_s = 0.0

    def start(self) -> None:
        now = time.perf_counter()
        if self.first is None:
            self.first, self.first_epoch = now, time.time()
            calibrate()  # the first call runs cold (interpreter warm-up)
            self.setup_cal = [calibrate() for _ in range(DISPATCH_SAMPLES)]
            if self.stop_after_setup:
                raise SetupDone
            self._resume(now)
        else:
            self.last = now

    def lap(self) -> None:
        now = time.perf_counter()
        self.round_ms.append((now - self.last) * 1000.0)
        self.round_cal.append(calibrate())
        self._resume(now)

    def _resume(self, stamped: float) -> None:
        self.last = time.perf_counter()
        self.cal_s += self.last - stamped


# ----------------------------------------------------------------------
# the two engines
# ----------------------------------------------------------------------
def run_sync(workload, seed, clock, parts):
    from repro.sim import run_experiment

    started = time.perf_counter()
    built = getattr(workloads, workload.builder)(seed, workload.rounds)
    parts["data_s"] = time.perf_counter() - started
    result = run_experiment(
        built.algorithm, built.partitions, built.validation, built.factory,
        built.config, built.network,
        round_callback=lambda index, loss: clock.lap(),
        snapshot_callback=lambda record: clock.start(),
    )
    loop_end = time.perf_counter()
    algorithm, network = built.algorithm, built.network
    meter = network.meter
    dropped = getattr(algorithm, "dropped_exchanges", 0)
    history = result.history
    out = {
        "loop_s": loop_end - clock.first - clock.cal_s,
        "samples": sum(w.steps_taken for w in algorithm.workers)
        * built.config.batch_size,
        "sim_comm_s": network.total_time_seconds(),
        "losses": [(r.train_loss, r.val_loss) for r in history],
        "exchanges_attempted": meter.num_transfers // 2 + dropped,
        "exchanges_failed": dropped,
    }
    bandwidths = getattr(algorithm, "round_bandwidths", None)
    out["select"] = {
        "fallback_rounds": len(getattr(algorithm, "fallback_rounds", [])),
        "bottleneck_bw_mean": (
            sum(bandwidths) / len(bandwidths) if bandwidths else 0.0
        ),
    }
    return out, algorithm, network


def run_event(workload, seed, clock, parts):
    from repro.sim import EventEngine, engine as engine_module

    started = time.perf_counter()
    built = getattr(workloads, workload.builder)(seed, workload.rounds)
    parts["data_s"] = time.perf_counter() - started

    if workload.name == "fedasync-sampled-100k":
        from repro.algorithms import SampledAsyncFedAvg
        from repro.network import SimulatedNetwork

        algorithm = SampledAsyncFedAvg(
            built.task, num_clients=built.clients, sample_size=built.seats,
            local_steps=2, lr=0.1, seed=workloads.SCENARIO_SEED,
        )
        network = SimulatedNetwork(built.clients, server_bandwidth=100.0)
        engine = EventEngine(
            network,
            compute_model=built.compute_model,
            population=built.population,
            # Per-worker traces are O(events) memory at this enrolment.
            record_trace=False,
        )
        validation = built.validation
    else:
        from repro.utils.dtypes import resolve_dtype
        from repro.utils.rng import as_generator

        algorithm, network = built.algorithm, built.network
        # Looked up on the module at call time, so a traced job's
        # wrapper sees the call.
        workers = engine_module.make_workers(
            built.factory, built.partitions, built.config
        )
        algorithm.setup(workers, network, rng=as_generator(built.config.seed))
        engine = EventEngine(network, **built.engine_kwargs)
        validation = built.validation.astype(resolve_dtype(built.config.dtype))

    # Slice probes: no-op events at k/slices of the horizon stamp the
    # wall clock.  Pushed before the algorithm starts, each pops ahead
    # of any same-time event and touches no state.
    slices, horizon = workload.rounds, built.duration
    for k in range(slices + 1):
        engine.schedule(
            horizon * k / slices,
            (lambda t: clock.start()) if k == 0 else (lambda t: clock.lap()),
        )
    result = engine.run(
        algorithm, validation, built.duration, built.checkpoint_every
    )
    loop_end = time.perf_counter()
    meter = network.meter
    stats = result.resilience
    if stats is not None:
        attempted = stats.attempted_exchanges
        failed = (
            stats.aborted_exchanges + stats.timeout_exchanges + stats.lost_exchanges
        )
    else:
        attempted, failed = meter.num_transfers, 0
    out = {
        "loop_s": loop_end - clock.first - clock.cal_s,
        "samples": algorithm.total_local_steps * built.batch_size,
        # Unloaded link time of every metered transfer, simulated seconds.
        "sim_comm_s": math.fsum(
            engine.transfer_seconds(r.sender, r.receiver, r.num_bytes)
            for r in meter.records
        ),
        "losses": [(r.train_loss, r.val_loss) for r in result.history],
        "exchanges_attempted": attempted,
        "exchanges_failed": failed,
        "events": {
            "processed": result.events_processed - (slices + 1),
            "probes": slices + 1,
        },
        "resilience": stats.as_metrics() if stats is not None else {},
    }
    return out, algorithm, network


# ----------------------------------------------------------------------
# traced mode
# ----------------------------------------------------------------------
def _nbytes(position, scale=1):
    """Span meta: the ``num_bytes`` argument (times ``scale``)."""
    def meta(args, kwargs, result):
        value = args[position] if len(args) > position else kwargs["num_bytes"]
        return scale * int(value)
    return meta


def install(tracer: Tracer) -> None:
    """Wrap every public call the per-layer table names."""
    from repro.algorithms import DPSGD, SAPSPSGD, LogisticBlobsTask
    from repro.algorithms import SampledAsyncFedAvg, asynchronous, saps_psgd
    from repro.algorithms.asynchronous import AsyncAlgorithm
    from repro.algorithms.base import DistributedAlgorithm
    from repro.compression.base import BYTES_PER_VALUE
    from repro.compression.random_mask import RandomMaskCompressor
    from repro.core import gossip
    from repro.core.gossip import AdaptivePeerSelector
    from repro.core.matching import is_valid_matching
    from repro.core.protocol import Coordinator
    from repro.network.metrics import TrafficMeter
    from repro.network.transport import SimulatedNetwork
    from repro.sim import engine, events
    from repro.sim.cluster import ClusterTrainer
    from repro.sim.events import EventEngine
    from repro.sim.population import RenewalPopulation

    def plan_meta(args, kwargs, plan):
        n = args[0].num_workers
        return (len(plan.matching), is_valid_matching(plan.matching, n),
                bool(plan.used_fallback))

    wrap = tracer.wrap
    wrap(Coordinator, "plan_round", "select", plan_meta)
    wrap(AdaptivePeerSelector, "select", "select")
    wrap(gossip, "randomly_max_match", "select")
    wrap(gossip, "greedy_weighted_matching", "select")

    ranks = lambda a, k, losses: losses.shape  # (ranks, steps)
    wrap(ClusterTrainer, "batched_steps", "compute", ranks)
    wrap(ClusterTrainer, "batched_steps_gather", "compute",
         lambda a, k, r: r[0].shape)
    wrap(ClusterTrainer, "compute_gradients", "compute",
         lambda a, k, losses: (len(losses), 1))
    wrap(ClusterTrainer, "step", "compute",
         lambda a, k, losses: (len(losses), 1))
    wrap(LogisticBlobsTask, "run_local", "compute",
         lambda a, k, r: (1, int(a[4] if len(a) > 4 else k["steps"])))

    payload = lambda a, k, batch: batch.num_bytes()
    wrap(RandomMaskCompressor, "batch_from_values", "compress", payload)
    wrap(RandomMaskCompressor, "compress_matrix_with_seed", "compress", payload)
    wrap(saps_psgd, "generate_mask", "compress")
    # Async gossip: one mask per exchange, one payload each way.
    wrap(asynchronous, "generate_mask", "compress",
         lambda a, k, mask: 2 * int(mask.sum()) * BYTES_PER_VALUE)

    wrap(SimulatedNetwork, "exchange", "network",
         lambda a, k, r: a[4].num_bytes() + a[5].num_bytes())
    wrap(SimulatedNetwork, "send", "network",
         lambda a, k, r: a[4].num_bytes())
    wrap(SimulatedNetwork, "send_bytes", "network", _nbytes(4))
    wrap(TrafficMeter, "record", "network", _nbytes(4))
    wrap(EventEngine, "start_transfer", "network", _nbytes(4))
    wrap(EventEngine, "start_tracked_exchange", "network", _nbytes(4, 2))
    wrap(EventEngine, "start_tracked_transfer", "network", _nbytes(4))

    wrap(engine, "evaluate_consensus", "eval")
    wrap(events, "evaluate_consensus", "eval")
    wrap(ClusterTrainer, "evaluate_vector", "eval")
    wrap(LogisticBlobsTask, "evaluate", "eval")

    wrap(SAPSPSGD, "run_round", "loop")
    wrap(DPSGD, "run_round", "loop")
    wrap(EventEngine, "run", "loop")
    wrap(EventEngine, "schedule", "events", lambda a, k, r: 1)
    wrap(EventEngine, "schedule_many", "events", lambda a, k, r: len(a[1]))

    for method in ("sample_up", "next_up", "is_up"):
        wrap(RenewalPopulation, method, "population")

    # The benchmark's own calibration (Clock) is a layer of its own, so
    # the event loop's self time does not count it.
    wrap(sys.modules[__name__], "calibrate", "calibration")

    wrap(engine, "make_workers", "setup.workers")
    wrap(SampledAsyncFedAvg, "__init__", "setup.workers")
    wrap(DistributedAlgorithm, "setup", "setup.algorithm")
    wrap(AsyncAlgorithm, "bind", "setup.algorithm")
    wrap(SampledAsyncFedAvg, "bind", "setup.algorithm")
    wrap(EventEngine, "__init__", "setup.algorithm")


def layer_metrics(tracer, out, parts, algorithm, network):
    """The per-layer numbers of one traced job, plus its trace checks."""
    spans = tracer.spans
    totals = layer_totals([(s[0], s[PARENT], s[LAYER], s[START], s[END])
                           for s in spans])
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    layer = lambda name: totals.get(name, zero)
    entries = set(outermost([(s[0], s[PARENT], s[LAYER]) for s in spans]))
    top_level = lambda name: [
        s for s in tracer.in_layer(name) if s[0] in entries
    ]

    loop = layer("loop")
    loop_s = loop["s"] or float("nan")
    share = lambda seconds: seconds / loop_s

    plans = tracer.named("Coordinator.plan_round")
    loop_spans = tracer.in_layer("loop")
    round_shares = []
    if plans and len(plans) == len(loop_spans):
        rounds = sorted(loop_spans, key=lambda s: s[START])
        for plan, round_span in zip(sorted(plans, key=lambda s: s[START]), rounds):
            round_shares.append(
                (plan[END] - plan[START]) / (round_span[END] - round_span[START])
            )
    select_s = layer("select")["s"]
    fallback_s = sum(p[END] - p[START] for p in plans if p[META][2])
    matching = [s for s in tracer.in_layer("select")
                if s[NAME].startswith("gossip.")]
    matching_s = sum(s[END] - s[START] for s in matching)

    compute_top = top_level("compute")
    worker_steps = sum(s[META][0] * s[META][1] for s in compute_top)
    ranks = [s[META][0] for s in compute_top]

    network_top = top_level("network")
    asked_bytes = sum(s[META] for s in network_top)
    exchange_bytes = sum(s[META] for s in tracer.named("SimulatedNetwork.exchange"))

    arena = getattr(algorithm, "arena", None)
    stats = arena.stats() if hasattr(arena, "stats") else {}
    if hasattr(arena, "resident_bytes"):
        resident = arena.resident_bytes()
    elif arena is not None:
        resident = arena.data.nbytes + arena.grads.nbytes
    else:
        resident = 0
    population = getattr(getattr(algorithm, "engine", None), "population", None)
    resilience = out.get("resilience", {})
    events = out.get("events", {"processed": 0, "probes": 0})
    events_run = events["processed"]
    scheduled = sum(s[META] for s in tracer.in_layer("events")) - events["probes"]

    metrics = {
        "setup.import_s": parts["import_s"],
        "setup.data_s": parts["data_s"],
        "setup.workers_s": layer("setup.workers")["s"],
        "setup.algorithm_s": layer("setup.algorithm")["s"],
        "loop.calls": loop["calls"],
        "loop.s": loop["s"],
        "loop.self_s": loop["self_s"],
        "loop.self_share": share(loop["self_s"]),
        "select.calls": layer("select")["calls"],
        "select.share": share(select_s),
        "select.p50_round_share": statistics.median(round_shares) if round_shares else 0.0,
        "select.max_round_share": max(round_shares) if round_shares else 0.0,
        "select.vs_compute": select_s / layer("compute")["s"],
        "select.fallback_rounds": out["select"]["fallback_rounds"]
        if "select" in out else 0,
        "select.fallback_share": fallback_s / select_s if select_s else 0.0,
        "select.matching_calls": len(matching),
        "select.matching_share": matching_s / select_s if select_s else 0.0,
        "select.matched_pairs": sum(p[META][0] for p in plans),
        "select.bottleneck_bw_mean": out.get("select", {}).get(
            "bottleneck_bw_mean", 0.0),
        "compute.calls": len(compute_top),
        "compute.s": layer("compute")["s"],
        "compute.share": share(layer("compute")["s"]),
        "compute.worker_steps": worker_steps,
        "compute.ranks_per_call": sum(ranks) / len(ranks) if ranks else 0.0,
        "compress.calls": layer("compress")["calls"],
        "compress.share": share(layer("compress")["s"]),
        "compress.payload_bytes": sum(
            s[META] or 0 for s in tracer.in_layer("compress")),
        "network.calls": len(network_top),
        "network.s": layer("network")["s"],
        "network.bytes": network.meter.total_bytes,
        "eval.calls": layer("eval")["calls"],
        "eval.s": layer("eval")["s"],
        "events.processed": events_run,
        "events.scheduled": scheduled,
        "events.transfers": len(tracer.named("EventEngine.start_transfer")),
        "events.per_s": events_run / loop_s if events_run else 0.0,
        "events.schedule_share": share(layer("events")["s"]),
        "resilience.attempted": resilience.get("exchange.attempted", 0),
        "resilience.completed": resilience.get("exchange.completed", 0),
        "resilience.aborted": resilience.get("exchange.aborted", 0),
        "resilience.timeouts": resilience.get("exchange.timeout", 0),
        "resilience.retries": resilience.get("exchange.retries", 0),
        "resilience.crashes": resilience.get("fault.crashes", 0),
        "resilience.recoveries": resilience.get("fault.recoveries", 0),
        "arena.hits": stats.get("hits", 0),
        "arena.misses": stats.get("misses", 0),
        "arena.evictions": stats.get("evictions", 0),
        "arena.writebacks": stats.get("writebacks", 0),
        "arena.pin_contentions": stats.get("pin_contentions", 0),
        "arena.resident_bytes": resident,
        "population.calls": layer("population")["calls"],
        "population.share": share(layer("population")["s"]),
        "population.touched": getattr(population, "touched_clients", 0),
        "task.run_local_calls": len(tracer.named("LogisticBlobsTask.run_local")),
        "trace.spans": len(spans),
    }
    checks = {
        "matchings_valid": all(p[META][1] for p in plans),
        # Every byte the meter holds was asked for by a call into the
        # network layer, at the size of the payload handed over.
        "network_bytes_match": asked_bytes == network.meter.total_bytes,
        "exchange_bytes_match": (
            exchange_bytes == network.meter.total_bytes
            if tracer.named("SimulatedNetwork.exchange") else True
        ),
    }
    return metrics, checks


# ----------------------------------------------------------------------
# the single-worker baseline
# ----------------------------------------------------------------------
def baseline_samples_per_s(workload, seed, seconds=1.0):
    """Throughput of one plain training loop on the workload's task, at
    the reference speed: ``TrainingWorker.local_step`` on shard 0
    (``LogisticBlobsTask.run_local`` on one client row for the
    lazy-client workload), calibrated after every 50 steps."""
    built = getattr(workloads, workload.builder)(seed, workload.rounds)
    if workload.name == "fedasync-sampled-100k":
        import numpy as np

        row = np.zeros(built.task.model_size)
        step = lambda i: built.task.run_local(row, 0, i, 1, 0.1)
        batch = built.batch_size
    else:
        from repro.sim import TrainingWorker
        from repro.utils.dtypes import resolve_dtype

        config = built.config
        worker = TrainingWorker(
            rank=0, model=built.factory(),
            shard=built.partitions[0].astype(resolve_dtype(config.dtype)),
            batch_size=config.batch_size, lr=config.lr, rng=config.seed,
        )
        step = lambda i: worker.local_step()
        batch = config.batch_size
    steps = 0
    reference_s = 0.0
    while reference_s < seconds:
        started = time.perf_counter()
        for _ in range(50):
            step(steps)
            steps += 1
        reference_s += scaled(
            time.perf_counter() - started, [calibrate()], CAL_REF_S
        )
    return steps * batch / reference_s


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    parts = {}
    started = time.perf_counter()
    import numpy  # noqa: F401  (part of what `import repro` costs)
    import repro  # noqa: F401

    parts["import_s"] = time.perf_counter() - started

    tracer = None
    if args.mode == "traced":
        tracer = Tracer()
        install(tracer)
    clock = Clock(stop_after_setup=args.mode == "setup")
    runner = run_sync if workload.engine == "sync" else run_event
    try:
        out, algorithm, network = runner(workload, args.seed, clock, parts)
    except SetupDone:
        print(json.dumps({
            "first_epoch": clock.first_epoch, "parts": parts,
            "setup_cal": clock.setup_cal,
        }))
        return 0
    if tracer is not None:
        tracer.restore()

    losses = out.pop("losses")
    initial_val, final_val = losses[0][1], losses[-1][1]
    record = {
        "first_epoch": clock.first_epoch,
        "parts": parts,
        "loop_s": out["loop_s"],
        "samples": out["samples"],
        "round_ms": clock.round_ms,
        "round_cal": clock.round_cal,
        "setup_cal": clock.setup_cal,
        "cal_s": clock.cal_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_comm_s": out["sim_comm_s"],
        "traffic_mb_per_worker": network.meter.mean_worker_traffic_mb(),
        "initial_val_loss": initial_val,
        "final_val_loss": final_val,
        "loss_digest": digest(value for pair in losses for value in pair),
        "exchanges_attempted": out["exchanges_attempted"],
        "exchanges_failed": out["exchanges_failed"],
        "checks": {
            "final_loss_finite": math.isfinite(final_val),
            "final_loss_below_initial": final_val < initial_val,
            "rounds_complete": len(clock.round_ms) == workload.rounds,
        },
    }
    if tracer is not None:
        metrics, checks = layer_metrics(tracer, out, parts, algorithm, network)
        record["layers"] = metrics
        record["checks"].update(checks)
        trace = tracer.chrome_trace(
            {"workload": workload.name, "seed": args.seed}
        )
        if args.trace_out:
            from repro.obs import validate_trace

            with open(args.trace_out, "w") as handle:
                json.dump(trace, handle)
            with open(args.trace_out) as handle:
                try:
                    validate_trace(json.load(handle))
                    record["checks"]["trace_valid"] = True
                except ValueError as error:
                    print(f"trace invalid: {error}", file=sys.stderr)
                    record["checks"]["trace_valid"] = False
    if args.baseline:
        record["baseline_samples_per_s"] = baseline_samples_per_s(
            workload, args.seed
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
