"""Aggregation of the span files that ``launch.py --trace`` writes.

A span's self time is its duration minus the time its direct children
cover; calls run on one thread, so children never overlap. An error is
counted for a layer when a span of that layer raised a package error whose
parent span belongs to another layer, i.e. the error left the layer.
"""

import json
from collections import defaultdict


def layer(span_name):
    return span_name.split(".", 1)[0]


def load(path):
    with open(path) as fh:
        return json.load(fh)


def self_times(trace):
    """Self time of every span, in span order."""
    dur = [e - s for s, e in zip(trace["start"], trace["end"])]
    own = list(dur)
    for i, p in enumerate(trace["parent"]):
        if p >= 0:
            own[p] -= dur[i]
    return own


def summarize(trace):
    """Per span name: calls, inclusive seconds, self seconds, work, errors."""
    names = trace["names"]
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
    errors = defaultdict(int)
    own = self_times(trace)
    for i, nid in enumerate(trace["name"]):
        name = names[nid]
        row = out[name]
        row["calls"] += 1
        row["s"] += trace["end"][i] - trace["start"][i]
        row["self_s"] += own[i]
        row["work"] += trace["work"][i]
        p = trace["parent"][i]
        if trace["error"][i] and (p < 0 or layer(names[trace["name"][p]]) != layer(name)):
            errors[layer(name)] += 1
    if trace["exit_code"] != 0:
        errors["cli"] += 1
    return dict(out), dict(errors)


def merge(summaries):
    """Sum the per-command summaries of one pass."""
    total = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0.0})
    errors = defaultdict(int)
    for spans, errs in summaries:
        for name, row in spans.items():
            for key, value in row.items():
                total[name][key] += value
        for key, value in errs.items():
            errors[key] += value
    return dict(total), dict(errors)
