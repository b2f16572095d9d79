"""Span bookkeeping for the traced run: self time, percentiles, per-layer tables.

A span is ``(label, start_s, end_s, parent, work)`` where ``parent`` is the
index of the enclosing span in the same list (-1 at top level) and ``work``
a dict of counts computed from the call's array shapes.  The program is
single-threaded above BLAS, so the children of a span never overlap and the
part of its interval they cover is the sum of their durations.
"""

from collections import defaultdict


def self_times(spans):
    """Duration minus the children's durations, per span, in seconds."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def percentile(values, q):
    """q-th percentile (0..100) with linear interpolation between order
    statistics (numpy's default); 0.0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_table(span_lists):
    """Group the spans of one or more traced commands (one list each) by
    label: per-call durations and self times (ms) and summed work counts."""
    table = defaultdict(lambda: {"ms": [], "self_ms": [], "work": defaultdict(float)})
    for spans in span_lists:
        for (label, start, end, _, work), own in zip(spans, self_times(spans)):
            row = table[label]
            row["ms"].append((end - start) * 1e3)
            row["self_ms"].append(own * 1e3)
            for key, value in work.items():
                row["work"][key] += value
    return table
