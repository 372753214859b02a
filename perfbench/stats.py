"""Statistics helpers of the benchmark.

Latencies are summarised per job class first (a class is a program and
configuration, or a program for the compile workload) and only then
combined across classes by geometric mean.  Pooling samples of jobs whose
sizes differ by several times makes a pooled percentile jump between size
clusters from run to run; the per-class route does not (NOTES.md).

Within a class, p50 is the mean of the medians of consecutive chunks of
jobs.  The host runs in fast and slow phases of seconds; a class's
latencies are then bimodal, and a median over the whole run jumps from
one mode to the other as the share of slow phases crosses one half.  Chunk
medians each sit in the phase of their chunk, so their mean moves in
proportion to that share instead (NOTES.md).
"""

import statistics

# A percentile is reported only when at least this many samples lie
# strictly beyond it; otherwise it is missing, with its sample count.
MIN_BEYOND = 10

# Jobs per p50 chunk: the fewest whose median has MIN_BEYOND beyond it.
CHUNK = 2 * MIN_BEYOND + 1


def rank(p, n):
    """1-based nearest rank of the p-th percentile (p an integer 1..100)."""
    return max(1, -(-p * n // 100))


def samples_beyond(p, n):
    """How many of n samples lie beyond the nearest-rank p-th percentile."""
    return n - rank(p, n) if n else 0


def percentile(samples, p):
    """Nearest-rank p-th percentile of samples, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(samples)
    if n == 0 or samples_beyond(p, n) < MIN_BEYOND:
        return None
    return sorted(samples)[rank(p, n) - 1]


def p50(samples):
    """p50 of samples in the order they were taken: the mean of the
    medians of consecutive CHUNK-sample chunks, the last chunk taking the
    remainder.  None when there are fewer than CHUNK samples."""
    chunks = len(samples) // CHUNK
    if chunks == 0:
        return None
    bounds = [i * CHUNK for i in range(chunks)] + [len(samples)]
    return statistics.fmean(percentile(samples[lo:hi], 50)
                            for lo, hi in zip(bounds, bounds[1:]))


def p90(samples):
    """Nearest-rank p90 of the whole run's samples.  It sits in the slow
    mode in every run, so chunking would not steady it."""
    return percentile(samples, 90)


def per_class(classes, estimate):
    """Per-class estimates of {class: samples}, estimate being p50 or p90.

    Returns (combined, rows): combined is the geometric mean of the
    per-class estimates, or None when any class lacks the samples for
    it; rows lists (class, sample count, estimate or None)."""
    rows = [(name, len(s), estimate(s)) for name, s in sorted(classes.items())]
    if not rows or any(v is None for _, _, v in rows):
        return None, rows
    return statistics.geometric_mean(v for _, _, v in rows), rows
