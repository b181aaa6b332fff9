"""The benchmark's own arithmetic: percentiles, self time, failure shares.

Pure functions over plain lists, kept apart from the process plumbing
so ``test_e2ebench_harness.py`` can pin them down.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(
    values: Sequence[float], q: float, min_beyond: int = MIN_BEYOND
) -> Tuple[float, int]:
    """``(value, beyond)``: the ``q``-th percentile and how many samples
    lie strictly above it.  Raises when fewer than ``min_beyond`` do — a
    tail percentile resting on a handful of samples is noise."""
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    if beyond < min_beyond:
        raise ValueError(
            f"p{q:g} of {len(values)} samples has only {beyond} beyond it "
            f"(need {min_beyond})"
        )
    return value, beyond


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted ones."""
    if attempted < 1:
        raise ValueError(f"attempted must be >= 1, got {attempted}")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed must be in [0, {attempted}], got {failed}")
    return failed / attempted


def job_failures(jobs: Iterable[Tuple[int, int, bool]]) -> Tuple[int, int]:
    """Total ``(attempted, failed)`` operations over jobs given as
    ``(attempted, failed, ok)``: a job that raised or failed its output
    check counts every operation it attempted as failed (and at least
    one, when it died before it could report any)."""
    attempted = failed = 0
    for job_attempted, job_failed, ok in jobs:
        if ok:
            attempted += job_attempted
            failed += job_failed
        else:
            count = max(job_attempted, 1)
            attempted += count
            failed += count
    return attempted, failed


def self_times(spans: Sequence[Tuple[int, int, float, float]]) -> Dict[int, float]:
    """Self time of each span ``(id, parent, start, end)``: its duration
    minus the durations of its direct children (``parent`` is ``-1`` for
    a root).  Children nest inside their parent, so this is the part of
    the interval no child covers."""
    result = {span_id: end - start for span_id, _, start, end in spans}
    for _, parent, start, end in spans:
        if parent >= 0:
            result[parent] -= end - start
    return result


def outermost(spans: Sequence[Tuple[int, int, str]]) -> List[int]:
    """Ids of the spans ``(id, parent, layer)`` not nested inside a span
    of their own layer: the calls made into the layer from outside it
    (a method calling its sibling is not a second call)."""
    by_id = {span[0]: span for span in spans}
    result = []
    for span_id, parent, layer in spans:
        while parent >= 0 and by_id[parent][2] != layer:
            parent = by_id[parent][1]
        if parent < 0:
            result.append(span_id)
    return result


def layer_totals(
    spans: Sequence[Tuple[int, int, str, float, float]]
) -> Dict[str, Dict[str, float]]:
    """Per-layer ``calls``, ``s`` (wall time) and ``self_s`` from spans
    ``(id, parent, layer, start, end)``.

    ``calls`` and ``s`` cover only the :func:`outermost` span of each
    call into a layer, while ``self_s`` sums every span's self time, so
    no interval is counted twice.
    """
    selfs = self_times([(i, p, s, e) for i, p, _, s, e in spans])
    entry_ids = set(outermost([(i, p, layer) for i, p, layer, _, _ in spans]))
    totals: Dict[str, Dict[str, float]] = {}
    for span_id, _, layer, start, end in spans:
        entry = totals.setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["self_s"] += selfs[span_id]
        if span_id in entry_ids:
            entry["calls"] += 1
            entry["s"] += end - start
    return totals


def scale_factors(
    calibration: Sequence[float], reference: float, window: int = 5
) -> List[float]:
    """Per-sample speed factors ``reference / c``, where ``c`` is the
    median calibration time over ``window`` samples centred on each one
    (a single sample hit by an interrupt would otherwise rescale its
    round by itself)."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"window must be odd and positive, got {window}")
    half = window // 2
    factors = []
    for i in range(len(calibration)):
        nearby = sorted(calibration[max(0, i - half): i + half + 1])
        middle = len(nearby) // 2
        if len(nearby) % 2:
            c = nearby[middle]
        else:
            c = 0.5 * (nearby[middle - 1] + nearby[middle])
        factors.append(reference / c)
    return factors


def scaled(seconds: float, calibration: Sequence[float], reference: float) -> float:
    """``seconds`` at the reference speed: scaled by ``reference`` over
    the mean calibration time measured alongside."""
    if not calibration:
        raise ValueError("no calibration samples")
    return seconds * reference * len(calibration) / math.fsum(calibration)


def digest(values: Iterable[float]) -> str:
    """Exact fingerprint of a float sequence (bit patterns, not text)."""
    hasher = hashlib.sha256()
    for value in values:
        hasher.update(float(value).hex().encode())
        hasher.update(b";")
    return hasher.hexdigest()[:16]
