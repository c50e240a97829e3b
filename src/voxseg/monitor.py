"""Efficiency scoring: run a command while sampling memory through a
pluggable probe, then integrate the memory-time curve above a floor.

The probe is any command printing one integer (bytes) to stdout, split by
``split_command`` with ``{pid}`` set to the monitored process id. The builtin
probe ``self-rss`` reads the child's RSS from /proc without spawning.

A command never outlives the thread that started it: it gets SIGKILL
(``PR_SET_PDEATHSIG``, Linux) when that thread ends, and so when the
process ends in any way, SIGKILL included."""
from __future__ import annotations

import ctypes
import json
import logging
import os
import resource
import select
import shlex
import signal
import string
import subprocess
import threading
import time
from dataclasses import asdict, dataclass

from .errors import VoxsegError

log = logging.getLogger(__name__)

RUNTIME_TOLERANCE_S = 15.0
MEM_FLOOR_GB = 4.0
BYTES_PER_GB = 1024**3
DEFAULT_PERIOD_S = 0.1
SELF_RSS_PROBE = "self-rss"

PR_SET_PDEATHSIG = 1  # from <linux/prctl.h>
# looked up before any fork: the child only calls it
_prctl = ctypes.CDLL(None, use_errno=True).prctl
_prctl.argtypes, _prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int


@dataclass(frozen=True)
class ResourceTrace:
    """Memory samples (seconds since start, bytes), strictly increasing in t."""

    samples: tuple[tuple[float, int], ...]

    def __post_init__(self):
        ts = [t for t, _ in self.samples]
        if any(t1 <= t0 for t0, t1 in zip(ts, ts[1:])):
            raise VoxsegError("trace times must be strictly increasing")
        if any(m < 0 for _, m in self.samples):
            raise VoxsegError("memory samples must be nonnegative")

    @property
    def peak_bytes(self) -> int:
        return max((m for _, m in self.samples), default=0)


@dataclass(frozen=True)
class EfficiencyReport:
    runtime_s: float
    runtime_over_tolerance_s: float
    mem_auc_gb_s: float
    peak_mem_gb: float


def _read_self_rss(pid: int) -> int:
    with open(f"/proc/{pid}/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize()


def split_command(text: str, fill: dict | None = None) -> list[str]:
    """Split ``text`` by shell quoting rules, then format each word with ``fill``: a bare
    ``{name}`` of ``fill`` becomes its value verbatim and ``{{``/``}}`` a brace.  It must name a command."""
    try:
        words = shlex.split(text)
        fields = [] if fill is None else [f for w in words for f in string.Formatter().parse(w)]
    except ValueError as exc:  # an unpaired quote or brace
        raise VoxsegError(f"cannot parse command template {text!r}: {exc}") from exc
    if any(key is not None and (key not in fill or spec or conv) for _, key, spec, conv in fields):
        raise VoxsegError(f"bad placeholder in command template {text!r}: use a bare {{name}} of {sorted(fill)}")
    if not words:
        raise VoxsegError(f"command template {text!r} names no command")
    return words if fill is None else [w.format(**fill) for w in words]


def _run_probe(probe: str, pid: int) -> int | None:
    if probe == SELF_RSS_PROBE:
        try:
            return _read_self_rss(pid)
        except (OSError, ValueError, IndexError):
            return None
    try:
        out = subprocess.run(split_command(probe, {"pid": pid}), capture_output=True, timeout=10).stdout
        if (mem := int(out.strip())) < 0:
            raise ValueError(f"negative reading {mem}")
        return mem
    except (ValueError, OSError, subprocess.SubprocessError) as exc:
        log.warning("probe %r failed (%s); sample skipped", probe, exc)
        return None


def _die_with_launcher(launcher: int):
    """A ``preexec_fn`` that has the child killed when the thread that
    forked it ends, or at once when process ``launcher`` already has."""
    def preexec():
        _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != launcher:
            os.kill(os.getpid(), signal.SIGKILL)
    return preexec


def sample_run(
    argv: list[str],
    probe: str = SELF_RSS_PROBE,
    period_s: float = DEFAULT_PERIOD_S,
    output=None,
    stop: threading.Event | None = None,
) -> tuple[int, ResourceTrace]:
    """Run ``argv`` to completion, sampling memory every ``period_s``; its
    stdout and stderr go to the file object ``output`` when given.

    Returns the exit status and the trace, which always includes a final
    sample taken after exit.  An interrupted caller kills the command, and
    so does setting ``stop`` from another thread, seen within ``period_s``;
    the status is then that of the kill.
    """
    if not 0 < period_s < float("inf"):
        raise VoxsegError(f"period must be positive and finite, got {period_s}")
    if not argv:
        raise VoxsegError("sample_run needs a command to run")
    if probe != SELF_RSS_PROBE:
        split_command(probe, {"pid": 0})  # a bad probe fails before the command starts
    start = time.perf_counter()
    samples: list[tuple[float, int]] = []
    preexec = _die_with_launcher(os.getpid())
    with subprocess.Popen(argv, stdout=output, stderr=output, preexec_fn=preexec) as proc:
        try:
            exited = os.pidfd_open(proc.pid)  # readable as soon as the command exits
            try:
                while True:
                    if stop is not None and stop.is_set():
                        proc.kill()
                    mem = _run_probe(probe, proc.pid)
                    t = time.perf_counter() - start
                    if mem is not None and (not samples or t > samples[-1][0]):
                        samples.append((t, mem))
                    if select.select([exited], [], [], period_s)[0]:
                        break
            finally:
                os.close(exited)
            proc.wait()
        except BaseException:
            proc.kill()
            raise
    # Final sample at exit time. The reaped pid may already name another
    # process, so self-rss is not asked again and the last observed memory
    # is carried forward; a system-wide probe still gets consulted.
    end_t = time.perf_counter() - start
    mem = None if probe == SELF_RSS_PROBE else _run_probe(probe, proc.pid)
    if mem is None:
        mem = samples[-1][1] if samples else 0
    if not samples or end_t > samples[-1][0]:
        samples.append((end_t, mem))
    return proc.returncode, ResourceTrace(tuple(samples))


def auc_above_floor(trace: ResourceTrace, floor_gb: float = MEM_FLOOR_GB) -> float:
    """Trapezoidal integral of max(0, mem_gb - floor_gb) over time, with
    segments split exactly at floor crossings."""
    if len(trace.samples) < 2:
        raise VoxsegError(f"trace needs >= 2 samples, got {len(trace.samples)}")
    total = 0.0
    pts = [(t, m / BYTES_PER_GB - floor_gb) for t, m in trace.samples]
    for (t0, a0), (t1, a1) in zip(pts, pts[1:]):
        if a0 <= 0 and a1 <= 0:
            continue
        if a0 >= 0 and a1 >= 0:
            total += 0.5 * (a0 + a1) * (t1 - t0)
        else:
            tc = t0 + (0.0 - a0) / (a1 - a0) * (t1 - t0)
            if a0 > 0:
                total += 0.5 * a0 * (tc - t0)
            else:
                total += 0.5 * a1 * (t1 - tc)
    return total


def efficiency_report(
    trace: ResourceTrace, runtime_s: float, floor_gb: float = MEM_FLOOR_GB
) -> EfficiencyReport:
    return EfficiencyReport(
        runtime_s=runtime_s,
        runtime_over_tolerance_s=max(0.0, runtime_s - RUNTIME_TOLERANCE_S),
        mem_auc_gb_s=auc_above_floor(trace, floor_gb),
        peak_mem_gb=trace.peak_bytes / BYTES_PER_GB,
    )


def write_report(report: EfficiencyReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2)
        fh.write("\n")
