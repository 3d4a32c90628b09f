"""Statistics of the end-to-end benchmark.

Throughput and CPU figures are totals over a measured region: total work
divided by total time. They are never medians of short units: on a host
whose speed flips between two modes, a median over many short units
jumps between the modes while a total moves smoothly with the mix.
"""


def total_rate(work, seconds):
    """Work per second over a region: the sum of the work divided by the
    sum of the time, whatever the individual units took."""
    total_s = sum(seconds)
    if total_s <= 0:
        raise ValueError("a measured region needs positive time")
    return sum(work) / total_s


def tail(samples):
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, count)``, or ``None`` with fewer than
    eleven samples, where no sample has ten beyond it.
    """
    n = len(samples)
    if n < 11:
        return None
    ordered = sorted(samples)
    k = n - 11  # ordered[k] has exactly n - 1 - k = 10 samples beyond it
    return ordered[k], 100.0 * (k + 1) / n, n


def interquartile_mean(samples):
    """Mean of the middle half of the samples (all of them below four).

    Set-up samples are spread through a run, so their mean follows the
    mix of host phases smoothly; trimming the outer quarters keeps one
    stalled launch from moving it."""
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def sweep_replayed_ops(profiles, geometries, schemes, ops):
    """Ops one sweep plan replays: every benchmark (profile x geometry)
    runs every scheme over its whole trace, the 10 % warm-up included.
    The per-benchmark stream-statistics unit replays nothing."""
    warmup = ops // 10
    return profiles * geometries * schemes * (ops + warmup)
