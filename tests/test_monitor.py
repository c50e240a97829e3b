import json
import os
import resource
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxseg import monitor
from voxseg.errors import VoxsegError
from voxseg.monitor import (
    BYTES_PER_GB,
    MEM_FLOOR_GB,
    RUNTIME_TOLERANCE_S,
    EfficiencyReport,
    ResourceTrace,
    auc_above_floor,
    efficiency_report,
    sample_run,
    split_command,
    write_report,
)

from oracles import auc_ref


def _trace(points_gb):
    return ResourceTrace(tuple((t, int(m * BYTES_PER_GB)) for t, m in points_gb))


def test_constants():
    assert RUNTIME_TOLERANCE_S == 15.0
    assert MEM_FLOOR_GB == 4.0
    assert BYTES_PER_GB == 1024**3


def test_trace_validation():
    with pytest.raises(VoxsegError, match="strictly increasing"):
        ResourceTrace(((0.0, 1), (0.0, 2)))
    with pytest.raises(VoxsegError, match="nonnegative"):
        ResourceTrace(((0.0, -1),))
    assert ResourceTrace(()).peak_bytes == 0


def test_auc_constant_above_floor():
    # constant 6 GB for 10 s over a 4 GB floor -> 2 GB * 10 s
    trace = _trace([(0.0, 6.0), (10.0, 6.0)])
    assert abs(auc_above_floor(trace) - 20.0) < 1e-9


def test_auc_linear_ramp():
    # 4 -> 6 GB over 10 s: triangle of height 2 -> 10 GB*s
    trace = _trace([(0.0, 4.0), (10.0, 6.0)])
    assert abs(auc_above_floor(trace) - 10.0) < 1e-9


def test_auc_entirely_below_floor():
    trace = _trace([(0.0, 1.0), (5.0, 3.9), (10.0, 0.5)])
    assert auc_above_floor(trace) == 0.0


def test_auc_crossing_split_is_exact():
    # 3 -> 5 GB over 2 s crosses the floor at t=1; only the final
    # second contributes: triangle 0.5 * 1 * 1 = 0.5
    trace = _trace([(0.0, 3.0), (2.0, 5.0)])
    assert abs(auc_above_floor(trace) - 0.5) < 1e-9
    # downward crossing is symmetric
    down = _trace([(0.0, 5.0), (2.0, 3.0)])
    assert abs(auc_above_floor(down) - 0.5) < 1e-9


def test_auc_custom_floor():
    trace = _trace([(0.0, 6.0), (10.0, 6.0)])
    assert abs(auc_above_floor(trace, floor_gb=0.0) - 60.0) < 1e-9
    assert auc_above_floor(trace, floor_gb=10.0) == 0.0


def test_auc_needs_two_samples():
    with pytest.raises(VoxsegError, match=">= 2 samples"):
        auc_above_floor(_trace([(0.0, 6.0)]))


def test_auc_additive_over_split():
    left = _trace([(0.0, 5.0), (4.0, 3.0)])
    right = _trace([(4.0, 3.0), (8.0, 7.0)])
    joined = _trace([(0.0, 5.0), (4.0, 3.0), (8.0, 7.0)])
    assert abs(auc_above_floor(joined) - (auc_above_floor(left) + auc_above_floor(right))) < 1e-12


def test_auc_matches_numeric_oracle_randomized():
    rng = np.random.default_rng(55)
    for _ in range(40):
        n = int(rng.integers(2, 8))
        ts = np.sort(rng.uniform(0, 20, size=n))
        ts += np.arange(n) * 1e-6  # ensure strictly increasing
        mems = rng.uniform(0, 10, size=n)
        floor = float(rng.uniform(0, 8))
        samples = [(t, int(m * BYTES_PER_GB)) for t, m in zip(ts.tolist(), mems.tolist())]
        got = auc_above_floor(ResourceTrace(tuple(samples)), floor_gb=floor)
        want = auc_ref(samples, floor)
        assert abs(got - want) < 1e-3  # oracle is a dense numeric integration


def test_efficiency_report_tolerance(tmp_path):
    trace = _trace([(0.0, 6.0), (10.0, 6.0)])
    r = efficiency_report(trace, runtime_s=10.0)
    assert r.runtime_over_tolerance_s == 0.0
    r2 = efficiency_report(trace, runtime_s=17.5)
    assert abs(r2.runtime_over_tolerance_s - 2.5) < 1e-9
    assert abs(r2.mem_auc_gb_s - 20.0) < 1e-9
    assert abs(r2.peak_mem_gb - 6.0) < 1e-9
    write_report(r2, tmp_path / "report.json")
    d = json.loads((tmp_path / "report.json").read_text())
    assert list(d) == ["runtime_s", "runtime_over_tolerance_s", "mem_auc_gb_s", "peak_mem_gb"]
    assert d["runtime_s"] == 17.5


def test_self_rss_uses_the_system_page_size(monkeypatch):
    # statm counts pages; bytes follow from the page size the system reports
    page = 65536
    monkeypatch.setattr(resource, "getpagesize", lambda: page)
    with open(f"/proc/{os.getpid()}/statm") as fh:
        pages = int(fh.read().split()[1])
    got = monitor._read_self_rss(os.getpid())
    assert got % page == 0
    assert abs(got // page - pages) <= 64  # RSS may move a little between the reads


def test_sample_run_includes_final_sample():
    code, trace = sample_run([sys.executable, "-c", "import time; time.sleep(1)"], period_s=0.2)
    assert code == 0
    assert len(trace.samples) >= 4
    assert trace.samples[-1][0] >= 1.0
    ts = [t for t, _ in trace.samples]
    assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))


def test_sample_run_ends_when_the_command_does():
    # a command far shorter than the period is not timed as a full period
    code, trace = sample_run([sys.executable, "-c", "pass"], period_s=2.0)
    assert code == 0
    assert trace.samples[-1][0] < 1.0


def test_sample_run_sees_the_exit_without_polling(monkeypatch):
    # the exit wakes the sampler at once; a timed wait would poll for it
    real_wait = subprocess.Popen.wait

    def wait(self, timeout=None):
        if timeout is not None:
            raise TypeError("Popen.wait with a timeout polls for the exit")
        return real_wait(self)

    monkeypatch.setattr(subprocess.Popen, "wait", wait)
    start = time.perf_counter()
    code, trace = sample_run([sys.executable, "-c", "import time; time.sleep(0.3)"], period_s=5.0)
    assert code == 0
    assert 0.3 <= trace.samples[-1][0] <= time.perf_counter() - start < 5.0


def test_sample_run_reports_nonzero_exit():
    code, trace = sample_run([sys.executable, "-c", "raise SystemExit(3)"], period_s=0.05)
    assert code == 3
    assert len(trace.samples) >= 1


def test_sample_run_external_probe():
    # system-wide probes keep answering after the child exits
    code, trace = sample_run(
        [sys.executable, "-c", "pass"], probe="echo 1073741824", period_s=0.05
    )
    assert code == 0
    assert trace.peak_bytes == BYTES_PER_GB
    assert all(m == BYTES_PER_GB for _, m in trace.samples)


def test_sample_run_does_not_read_a_reaped_pid(monkeypatch):
    # once the command is reaped its pid may name another process, whose
    # RSS must not enter the trace
    real_read = monitor._read_self_rss

    def read(pid):
        return real_read(pid) if os.path.exists(f"/proc/{pid}") else 1 << 40

    monkeypatch.setattr(monitor, "_read_self_rss", read)
    code, trace = sample_run([sys.executable, "-c", "pass"], period_s=0.05)
    assert code == 0
    assert trace.peak_bytes < 1 << 40


def test_sample_run_rejects_bad_period():
    with pytest.raises(VoxsegError, match="period"):
        sample_run([sys.executable, "-c", "pass"], period_s=0.0)


@pytest.mark.parametrize("period", [-1.0, float("nan"), float("inf")])
def test_sample_run_rejects_a_negative_or_non_finite_period(period):
    with pytest.raises(VoxsegError, match="period must be positive and finite"):
        sample_run([sys.executable, "-c", "pass"], period_s=period)


def test_sample_run_rejects_an_empty_command():
    with pytest.raises(VoxsegError, match="needs a command"):
        sample_run([])


@pytest.mark.parametrize("probe", ["echo 'x", "", "echo {pid.x}", "echo {0}"])
def test_sample_run_rejects_a_bad_probe_before_starting(tmp_path, probe):
    marker = tmp_path / "started"
    with pytest.raises(VoxsegError):
        sample_run([sys.executable, "-c", f"open({str(marker)!r}, 'w')"], probe=probe)
    assert not marker.exists()


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie waiting to be reaped."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rpartition(")")[2].split()[0] not in "ZX"
    except FileNotFoundError:
        return False


def test_interrupted_sample_run_kills_its_command(tmp_path):
    # SIGINT goes to the Python parent alone, as from `kill -INT`, not to
    # the whole terminal process group
    pid_file = tmp_path / "child.pid"
    child = f"import os, time; open({str(pid_file)!r}, 'w').write(str(os.getpid())); time.sleep(60)"
    parent = subprocess.Popen([sys.executable, "-c",
                               "import sys; from voxseg.monitor import sample_run; "
                               "sample_run([sys.executable, '-c', sys.argv[1]])", child],
                              stderr=subprocess.DEVNULL,
                              # in case pytest runs with SIGINT ignored, as a background job
                              preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 30
        while not (pid_file.exists() and pid_file.read_text()):
            assert time.monotonic() < deadline, "the command never started"
            time.sleep(0.05)
        child_pid = int(pid_file.read_text())
        parent.send_signal(signal.SIGINT)
        assert parent.wait(timeout=10) != 0
        deadline = time.monotonic() + 1.0
        while _running(child_pid) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _running(child_pid)
    finally:
        parent.kill()
        parent.wait()
        if pid_file.exists() and pid_file.read_text() and _running(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)


SPACED = "/tmp/a b/model"


@pytest.mark.parametrize("template, argv", [
    ("run {model_dir}", ["run", SPACED]),
    ("run '{model_dir}'", ["run", SPACED]),
    ('run "{model_dir}"', ["run", SPACED]),
    ("run --out='{model_dir}'", ["run", f"--out={SPACED}"]),
    ('run "{model_dir}/ckpt"', ["run", f"{SPACED}/ckpt"]),
    ("sh -c 'ls {model_dir} > x'", ["sh", "-c", f"ls {SPACED} > x"]),
    ("awk '{{print $1}}' {model_dir}", ["awk", "{print $1}", SPACED]),
])
def test_split_command_fills_each_word_verbatim(template, argv):
    assert split_command(template, {"model_dir": SPACED}) == argv


def test_split_command_without_fill_keeps_braces():
    assert split_command("awk '{print $1}'") == ["awk", "{print $1}"]


@pytest.mark.parametrize("template, message", [
    ("run 'x", "cannot parse command template"),
    ("run {model_dir", "cannot parse command template"),
    ("run {bogus}", "bad placeholder"),
    ("run {0}", "bad placeholder"),
    ("run {}", "bad placeholder"),
    ("run {model_dir.x}", "bad placeholder"),
    ("run {model_dir[x]}", "bad placeholder"),
    ("", "names no command"),
    ("  ", "names no command"),
])
def test_split_command_rejects(template, message):
    with pytest.raises(VoxsegError, match=message):
        split_command(template, {"model_dir": SPACED})


def test_sample_run_missing_binary_raises():
    with pytest.raises(OSError):
        sample_run(["/nonexistent/binary-xyz"], period_s=0.05)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auc_monotone_in_floor(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    ts = np.cumsum(rng.uniform(0.1, 2.0, size=n))
    mems = rng.uniform(0, 8, size=n)
    trace = _trace(list(zip(ts.tolist(), mems.tolist())))
    lo, hi = sorted(rng.uniform(0, 8, size=2).tolist())
    assert auc_above_floor(trace, floor_gb=lo) >= auc_above_floor(trace, floor_gb=hi) - 1e-12


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_auc_nonnegative_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    ts = np.cumsum(rng.uniform(0.1, 2.0, size=n))
    mems = rng.uniform(0, 8, size=n)
    trace = _trace(list(zip(ts.tolist(), mems.tolist())))
    val = auc_above_floor(trace)
    assert val >= 0.0
    span = ts[-1] - ts[0]
    assert val <= max(0.0, mems.max() - MEM_FLOOR_GB) * span + 1e-9