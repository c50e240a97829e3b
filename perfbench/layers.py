"""Per-layer metrics from the spans of one traced run.

The span tree's root is the whole ``voxseg run`` process as the benchmark
saw it, from launch to exit.  Under it sit the spans recorded inside the
process (``child.py``) and, inside whichever span was open, one span per
segmenter command as timed by ``launch.sh``.  A span's self time is its
duration minus the part of it that its children cover, so the self
times of all spans add up to the root's duration, the traced ``run_s``.
"""
from __future__ import annotations

# metric: (span name, what to report, unit); "self_s" sums self times,
# "calls" counts spans, "mb" reads the counter recorded with the span
PER_LAYER = {
    "process.self_s": ({"run", "voxseg"}, "self_s", "s"),
    "process.import_s": ({"import"}, "self_s", "s"),
    "pipeline.self_s": ({"pipeline"}, "self_s", "s"),
    "pipeline.state_writes": ({"state.write"}, "calls", "count"),
    "pipeline.state_write_s": ({"state.write"}, "self_s", "s"),
    "pipeline.state_mb_written": ({"state.write"}, "mb", "MB"),
    "segmenter.calls": ({"segmenter"}, "calls", "count"),
    "segmenter.busy_s": ({"segmenter"}, "self_s", "s"),
    "nifti.load_calls": ({"nifti.load"}, "calls", "count"),
    "nifti.load_s": ({"nifti.load"}, "self_s", "s"),
    "nifti.load_mb": ({"nifti.load"}, "mb", "MB"),
    "nifti.save_calls": ({"nifti.save"}, "calls", "count"),
    "nifti.save_s": ({"nifti.save"}, "self_s", "s"),
    "nifti.save_mb": ({"nifti.save"}, "mb", "MB"),
    "tta.flip_s": ({"tta.flip"}, "self_s", "s"),
    "tta.aggregate_calls": ({"tta.aggregate"}, "calls", "count"),
    "tta.aggregate_s": ({"tta.aggregate"}, "self_s", "s"),
    "tta.argmax_s": ({"tta.argmax"}, "self_s", "s"),
    "postprocess.keep_largest_calls": ({"postprocess.keep_largest"}, "calls", "count"),
    "postprocess.keep_largest_s": ({"postprocess.keep_largest"}, "self_s", "s"),
    "fusion.merge_partial_s": ({"fusion.merge_partial"}, "self_s", "s"),
    "fusion.merge_organ_tumor_s": ({"fusion.merge_organ_tumor"}, "self_s", "s"),
    "fusion.majority_vote_calls": ({"fusion.majority_vote"}, "calls", "count"),
    "fusion.majority_vote_s": ({"fusion.majority_vote"}, "self_s", "s"),
    "metrics.evaluate_case_calls": ({"metrics.evaluate_case"}, "calls", "count"),
    "metrics.evaluate_case_s": ({"metrics.evaluate_case"}, "self_s", "s"),
    "metrics.aggregate_cohort_s": ({"metrics.aggregate_cohort"}, "self_s", "s"),
}
# the self-time metrics above cover every span exactly once
SELF_TIME_METRICS = tuple(m for m, (_, kind, _) in PER_LAYER.items() if kind == "self_s")


def build_tree(run: tuple[float, float], child_spans: list, segmenter: list) -> list[list]:
    """Spans [name, start, end, parent] rooted at the ``run`` span (index 0)."""
    tree = [["run", run[0], run[1], None]]
    for name, start, end, parent in child_spans:
        tree.append([name, start, end, 0 if parent is None else parent + 1])
    for start, end in segmenter:
        # the innermost span open over the whole command is its caller
        parent = max(
            (i for i, s in enumerate(tree) if s[1] <= start and end <= s[2]),
            key=lambda i: tree[i][1],
            default=0,
        )
        tree.append(["segmenter", start, end, parent])
    return tree


def _covered(lo: float, hi: float, intervals) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(tree: list[list]) -> list[float]:
    children: dict[int, list] = {}
    for name, start, end, parent in tree:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - _covered(start, end, children.get(i, ()))
        for i, (_, start, end, _) in enumerate(tree)
    ]


def layer_metrics(tree: list[list], counters: dict[str, float]) -> dict[str, float]:
    selfs = self_times(tree)
    out = {}
    for metric, (names, kind, _) in PER_LAYER.items():
        if kind == "self_s":
            out[metric] = sum((t for s, t in zip(tree, selfs) if s[0] in names), 0.0)
        elif kind == "calls":
            out[metric] = sum(1 for s in tree if s[0] in names)
        else:
            out[metric] = sum((counters.get(n + ".mb", 0.0) for n in names), 0.0)
    return out
