"""Unit tests for the benchmark's own arithmetic (``harness.py``).

    python -m pytest e2ebench/test_e2ebench_harness.py -q
"""

import math

import pytest

from harness import (
    digest,
    failed_share,
    job_failures,
    layer_totals,
    outermost,
    percentile,
    scale_factors,
    scaled,
    self_times,
    tail_percentile,
)


def test_percentile_matches_linear_interpolation():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == pytest.approx(50.5)
    assert percentile(values, 90) == pytest.approx(90.1)
    assert percentile([3.0], 90) == 3.0
    assert percentile([4.0, 1.0, 2.0, 3.0], 0) == 1.0
    assert percentile([4.0, 1.0, 2.0, 3.0], 100) == 4.0


def test_p90_needs_ten_samples_beyond():
    value, beyond = tail_percentile([float(v) for v in range(1, 101)], 90)
    assert value == pytest.approx(90.1)
    assert beyond == 10
    # 99 samples: p90 sits at 89.2, still ten beyond (90..99).
    assert tail_percentile([float(v) for v in range(1, 100)], 90)[1] == 10
    # 60 samples leave only six beyond p90: refused, not reported.
    with pytest.raises(ValueError, match="only 6 beyond"):
        tail_percentile([float(v) for v in range(1, 61)], 90)


def test_p90_counts_strictly_greater_samples():
    # Ties at the percentile are not beyond it.
    values = [1.0] * 95 + [2.0] * 5
    with pytest.raises(ValueError):
        tail_percentile(values, 90)


def test_self_time_with_nested_children():
    spans = [
        (0, -1, 0.0, 10.0),   # root
        (1, 0, 1.0, 4.0),     # child
        (2, 1, 2.0, 3.0),     # grandchild
        (3, 0, 5.0, 6.0),     # second child
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(1.0)
    # Self times partition the root interval.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_layer_totals_count_outermost_calls_once():
    spans = [
        (0, -1, "loop", 0.0, 10.0),
        (1, 0, "compute", 1.0, 5.0),    # batched_steps ...
        (2, 1, "compute", 1.5, 4.5),    # ... calling step
        (3, 0, "network", 6.0, 7.0),
        (4, 3, "network", 6.2, 6.8),    # exchange calling send
        (5, 0, "compute", 8.0, 9.0),
    ]
    totals = layer_totals(spans)
    assert totals["compute"]["calls"] == 2
    assert totals["compute"]["s"] == pytest.approx(4.0 + 1.0)
    assert totals["compute"]["self_s"] == pytest.approx(5.0)
    assert totals["network"]["calls"] == 1
    assert totals["network"]["s"] == pytest.approx(1.0)
    assert totals["loop"]["self_s"] == pytest.approx(10.0 - 4.0 - 1.0 - 1.0)
    assert outermost([(i, p, layer) for i, p, layer, _, _ in spans]) == [0, 1, 3, 5]


def test_failed_share():
    assert failed_share(10, 0) == 0.0
    assert failed_share(8, 2) == 0.25
    with pytest.raises(ValueError):
        failed_share(0, 0)
    with pytest.raises(ValueError):
        failed_share(3, 4)


def test_failed_job_counts_all_its_operations_as_failed():
    attempted, failed = job_failures([(100, 3, True), (50, 0, False)])
    assert (attempted, failed) == (150, 53)
    # A job that died before reporting counts as one failed operation.
    assert job_failures([(0, 0, False)]) == (1, 1)
    assert job_failures([(0, 0, True)]) == (0, 0)


def test_scaled_time_uses_mean_calibration():
    # The machine ran at half the reference speed: 10 s are 5 s.
    assert scaled(10.0, [2e-3, 2e-3], 1e-3) == pytest.approx(5.0)
    assert scaled(3.0, [1e-3, 3e-3], 2e-3) == pytest.approx(3.0)
    with pytest.raises(ValueError):
        scaled(1.0, [], 1e-3)


def test_scale_factors_use_a_local_median():
    calibration = [1.0, 1.0, 9.0, 1.0, 2.0, 2.0, 2.0]
    factors = scale_factors(calibration, 1.0, window=3)
    # The lone 9.0 outlier does not rescale its neighbours or itself.
    assert factors[:4] == pytest.approx([1.0, 1.0, 1.0, 0.5])
    assert factors[-1] == pytest.approx(0.5)
    assert scale_factors([4.0], 2.0) == pytest.approx([0.5])
    with pytest.raises(ValueError):
        scale_factors(calibration, 1.0, window=4)


def test_digest_is_exact():
    assert digest([0.1, 0.2]) == digest([0.1, 0.2])
    assert digest([0.1, 0.2]) != digest([0.1, 0.2 + 1e-16])
    assert digest([math.nan]) == digest([math.nan])
