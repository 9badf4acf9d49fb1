"""Statistics of the repo benchmark: pure functions, unit-tested in
test_stats.py."""

import random
import statistics


def median(values):
    """The median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them;
    a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return (values[0], values[0], values[0])
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q1, q2, q3)


def spread(values):
    """The distance between the first and third quartile, as a share of
    the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def fail_frac(failed, attempted):
    """Failed samples as a share of samples attempted."""
    if attempted < 1:
        raise ValueError("no samples attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted


def rates_for_seed(base, seed):
    """The `--rates` a workload runs with under `seed`: seed 0 gives
    `base` exactly; any other seed moves it by a whole number of rate
    points within +-1% of `base`, the same for the same seed."""
    if seed == 0:
        return base
    reach = base // 100
    offset = random.Random(f"perfbench:{seed}:{base}").randint(-reach, reach)
    return base + offset


def _union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    covered, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def self_times(nodes):
    """Each span's self time: its duration minus the part its child spans
    cover.

    `nodes` are dicts with `name`, `parent` (an index into `nodes`, or
    None) and `seconds`; spans the benchmark timed itself also carry
    `start`/`end`, and the part of the parent's interval their union
    covers is subtracted. Children known only by their total `seconds`
    (the program's own span totals) are subtracted as they are."""
    timed = [[] for _ in nodes]
    totals = [0.0] * len(nodes)
    for node in nodes:
        parent = node["parent"]
        if parent is None:
            continue
        if "start" in node:
            timed[parent].append((node["start"], node["end"]))
        else:
            totals[parent] += node["seconds"]
    result = []
    for i, node in enumerate(nodes):
        if "start" in node:
            clipped = [
                (max(s, node["start"]), min(e, node["end"]))
                for s, e in timed[i]
                if e > node["start"] and s < node["end"]
            ]
            covered = _union_length(clipped)
        else:
            covered = sum(e - s for s, e in timed[i])
        result.append(node["seconds"] - covered - totals[i])
    return result


def in_subtree(nodes, root_name):
    """Per node, whether it lies under (or is) a span named `root_name`."""
    inside = []
    for node in nodes:
        parent = node["parent"]
        inside.append(
            node["name"] == root_name or (parent is not None and inside[parent])
        )
    return inside
