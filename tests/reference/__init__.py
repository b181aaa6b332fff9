"""Test-side reference implementations.

Production runs every algorithm on the parameter arena — one replica
matrix, batched compute, fused passes.  The per-model loops and unfused
expressions those paths replaced live here, as equivalence oracles for
the bit-identity tests and as baselines for ``benchmarks/bench_hot_paths``.
``sampled`` keeps the standalone lazy-FedAsync event state machine that
``SampledAsyncFedAvg`` replaced with ``AsyncFedAvg``'s handlers.
"""

from .sampled import ReferenceSampledAsyncFedAvg

from .sync import (
    REFERENCES,
    ReferenceDCDPSGD,
    ReferenceDPSGD,
    ReferenceFedAvg,
    ReferencePSGD,
    ReferenceSAPSPSGD,
    ReferenceSparseFedAvg,
    ReferenceTopKPSGD,
    WholeMatrixDPSGD,
    per_model,
    whole_matrix_ring_mix,
)

__all__ = [
    "REFERENCES",
    "ReferenceDCDPSGD",
    "ReferenceDPSGD",
    "ReferenceFedAvg",
    "ReferencePSGD",
    "ReferenceSAPSPSGD",
    "ReferenceSampledAsyncFedAvg",
    "ReferenceSparseFedAvg",
    "ReferenceTopKPSGD",
    "WholeMatrixDPSGD",
    "per_model",
    "whole_matrix_ring_mix",
]
