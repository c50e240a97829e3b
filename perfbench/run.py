#!/usr/bin/env python3
"""voxseg benchmark: time ``voxseg run`` on one seeded workload.

    python3 perfbench/run.py --workload cohort|ct \\
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a voxseg checkout; voxseg is imported from its
``src`` directory, never from an installed copy.  The workload's inputs are
generated several times (``setup_s`` is the median), one untimed child
imports voxseg and its segmenter to warm the caches, then
``voxseg run`` is launched as a child process, one fresh work directory
at a time, for about ``--seconds``.  Every run's final labels are
checked.  With ``--trace 0`` the end-to-end metrics are the medians over
the runs; with ``--trace 1`` untraced and traced runs alternate and the
per-layer metrics are the medians over the traced runs.  The last line
of standard output is one JSON object: ``correct``, ``attempted`` and
``failed`` (final labels checked and failing) and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
from statistics import median
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import layers
import workloads

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SCRATCH = ".perfbench_work"  # under the checkout root, removed at exit
# setup_s is the median of at least SETUP_REPEATS generations, and of more
# while they add up to less than SETUP_MIN_S, so that cheap ones are steady
SETUP_REPEATS = 3
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 200

END_TO_END = {
    "run_s": "s",
    "voxseg_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class BenchError(Exception):
    pass


@dataclass
class Rep:
    run_s: float
    segmenter_s: float
    peak_rss_mb: float
    failed: list[str]
    layers: dict[str, float] = field(default_factory=dict)
    trace_sum_s: float = 0.0


class Bench:
    def __init__(self, root: Path, scratch: Path):
        self.root = root
        self.scratch = scratch
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.voxseg_file = None
        self._count = 0

    def fresh(self, stem: str) -> Path:
        self._count += 1
        return self.scratch / f"{stem}{self._count}"

    def voxseg(self, wl, work: Path, trace: bool = False):
        """Run ``voxseg run`` once.

        Returns run_s, the (launch, exit) wall-clock interval, the segmenter
        commands' (start, end) times, the child's info and its spans.
        """
        tag = self.fresh("call")
        seg_log, info_out, trace_out, log = (tag.with_suffix(s) for s in (".seg", ".info", ".trace", ".log"))
        argv = [sys.executable, str(CHILD), "--info-out", str(info_out)]
        if trace:
            argv += ["--trace-out", str(trace_out)]
        argv += ["--", "run", "--manifest", str(wl.manifest), "--config", str(wl.config), "--work", str(work)]
        env = dict(self.env, PERFBENCH_SEGMENTER_LOG=str(seg_log))
        with open(log, "wb") as fh:
            wall0, t0 = time.time(), time.perf_counter()
            proc = subprocess.run(argv, env=env, cwd=self.root, stdout=fh, stderr=subprocess.STDOUT)
            run_s, wall1 = time.perf_counter() - t0, time.time()
        if proc.returncode != 0:
            tail = log.read_text(errors="replace")[-2000:]
            raise BenchError(f"voxseg run exited {proc.returncode}:\n{tail}")
        segments = []
        if seg_log.exists():
            for line in seg_log.read_text().splitlines():
                start, end, rc = line.replace(",", ".").split()
                if rc != "0":
                    raise BenchError(f"segmenter command exited {rc}")
                segments.append((float(start), float(end)))
        info = json.loads(info_out.read_text()) if info_out.exists() else {}
        self.voxseg_file = info.get("voxseg_file", self.voxseg_file)
        spans = json.loads(trace_out.read_text()) if trace else None
        return run_s, (wall0, wall1), segments, info, spans

    def rep(self, wl, work: Path, trace: bool) -> Rep:
        run_s, interval, segments, info, spans = self.voxseg(wl, work, trace)
        rep = Rep(
            run_s=run_s,
            segmenter_s=sum(end - start for start, end in segments),
            peak_rss_mb=info["peak_rss_mb"],
            failed=checks.failed_cases(wl, work),
        )
        if trace:
            tree = layers.build_tree(interval, spans["spans"], segments)
            rep.layers = layers.layer_metrics(tree, spans["counters"])
            rep.layers["trace.run_s"] = interval[1] - interval[0]
            rep.trace_sum_s = sum(rep.layers[m] for m in layers.SELF_TIME_METRICS)
        shutil.rmtree(work, ignore_errors=True)
        return rep


def settle() -> None:
    """Flush dirty pages so that the writeback of earlier work (deleted
    work dirs, earlier runs) does not land inside a timed region."""
    os.sync()


def setup(bench: Bench, name: str, seed: int):
    """Generate the inputs repeatedly; keep the last set."""
    times, roots, wl = [], [], None
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_MIN_S and len(times) < SETUP_MAX_REPEATS):
        roots.append(bench.fresh("inputs"))
        settle()
        t0 = time.perf_counter()
        wl = workloads.GENERATORS[name](roots[-1], seed)
        times.append(time.perf_counter() - t0)
    for root in roots[:-1]:
        shutil.rmtree(root)
    return wl, median(times)


def warm_up(bench: Bench) -> None:
    """Import voxseg and its mock segmenter once, untimed, so that the first
    timed run does not pay for compiling the checkout's bytecode or for
    reading the interpreter's and numpy's files from disk."""
    code = "import voxseg.cli, voxseg.mock_segmenter"
    proc = subprocess.run([sys.executable, "-c", code], env=bench.env, cwd=bench.root,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"cannot import voxseg from {bench.root / 'src'}:\n{proc.stderr[-2000:]}")


def measure(bench: Bench, wl, seconds: float, trace: bool) -> tuple[list[Rep], list[Rep]]:
    """Run (untraced, then traced if asked) for about ``seconds``: at least
    once, and again while the next round would end less than half a round
    past the deadline."""
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        for reps, with_trace in ((plain, False), (traced, True))[: 1 + trace]:
            work = bench.fresh("work")
            settle()
            reps.append(bench.rep(wl, work, with_trace))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(plain) >= seconds:
            return plain, traced


def machine_info(bench: Bench) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bench.root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    mem_kb = None
    try:
        with open("/proc/meminfo") as fh:
            mem_kb = next(int(line.split()[1]) for line in fh if line.startswith("MemTotal:"))
    except (OSError, StopIteration):
        pass

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "voxseg_file": bench.voxseg_file,
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "mem_total_gb": round(mem_kb / 2**20, 2) if mem_kb else None,
    }


def end_to_end(plain: list[Rep], setup_s: float) -> dict[str, float]:
    return {
        "run_s": median(r.run_s for r in plain),
        "voxseg_s": median(r.run_s - r.segmenter_s for r in plain),
        "peak_rss_mb": median(r.peak_rss_mb for r in plain),
        "setup_s": setup_s,
    }


def per_layer(plain: list[Rep], traced: list[Rep]) -> dict[str, float]:
    out = {m: median(r.layers[m] for r in traced) for m in layers.PER_LAYER}
    out["trace.run_s"] = median(r.layers["trace.run_s"] for r in traced)
    out["trace.overhead_s"] = out["trace.run_s"] - median(r.run_s for r in plain)
    return out


UNITS = {**END_TO_END, **{m: u for m, (_, _, u) in layers.PER_LAYER.items()},
         "trace.run_s": "s", "trace.overhead_s": "s"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "voxseg" / "__init__.py").is_file():
        print(f"error: {root} is not a voxseg checkout (no src/voxseg)", file=sys.stderr)
        return 2
    scratch = root / SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    scratch.mkdir(parents=True)
    bench = Bench(root, scratch)
    try:
        wl, setup_s = setup(bench, args.workload, args.seed)
        warm_up(bench)
        plain, traced = measure(bench, wl, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()
        except OSError:
            pass

    reps = plain + traced
    attempted = len(wl.expected) * len(reps)
    failed = sum(len(r.failed) for r in reps)
    metrics = per_layer(plain, traced) if args.trace else end_to_end(plain, setup_s)

    print(json.dumps({"machine": machine_info(bench)}))
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} untraced, {len(traced)} traced run(s), "
          f"{len(wl.expected)} case(s) each, inputs {wl.input_bytes / 2**20:.1f} MB")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:14.6f} {UNITS[name]}")
    print(f"  {'case_fail_frac':34s} {failed / attempted:14.6f} ({failed}/{attempted} final labels)")
    if traced:
        sums = [(r.trace_sum_s, r.layers["trace.run_s"]) for r in traced]
        worst = max(abs(s - t) for s, t in sums)
        print(f"  self times sum to the traced run_s within {worst:.2e} s over {len(sums)} run(s)")
    failures = sorted({c for r in reps for c in r.failed})
    if failures:
        print(f"  failing cases: {', '.join(failures[:20])}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
