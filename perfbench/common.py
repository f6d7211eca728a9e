"""Shared helpers of the benchmark: paths, statistics, processes, HTTP."""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_config() -> Dict[str, Any]:
    with open(os.path.join(HERE, "config.json")) as handle:
        return json.load(handle)


def use_source_tree() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit("perfbench: no program source at %s" % SRC)
    sys.path.insert(0, SRC)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # Threads otherwise spread allocations over a varying number of
    # malloc arenas, and peak memory wanders by 20% from run to run.
    env["MALLOC_ARENA_MAX"] = "2"
    return env


# -- host speed ---------------------------------------------------------------

#: Reference time of :func:`probe_s`.  End-to-end timings are reported
#: in *reference seconds*: the measured wall time times
#: ``PROBE_REF_S / probe_s()``, with the probe taken next to the
#: measurement.  Shared hosts change speed by tens of percent for
#: seconds at a time; the probe slows down with them, so the scaled
#: time stays put while a slower program still reads slower.
PROBE_REF_S = 0.001


def probe_s() -> float:
    """Best of three runs of a fixed pure-Python loop (about 1 ms)."""
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for value in range(20000):
            total += value * value
        best = min(best, time.perf_counter() - started)
    return best


def timed(fn):
    """Run ``fn()``; returns ``(result, reference seconds, scale)``, where
    ``scale`` turns wall time into reference time with the probes taken
    just before and just after."""
    before = probe_s()
    started = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - started
    scale = 2 * PROBE_REF_S / (before + probe_s())
    return result, elapsed * scale, scale


class ProbeThread:
    """Samples :func:`probe_s` every ``interval_s`` in the background, for
    timings of work done by other processes.

    A probe that runs while the measured processes compute shares the
    CPUs with them.  ``busy()`` tells whether they might be computing;
    :meth:`scale` prefers the probes taken while it was false.
    """

    def __init__(self, interval_s: float = 0.1, busy=lambda: True) -> None:
        self.samples: List[Tuple[float, float, bool]] = []
        self._busy = busy
        self._stop = threading.Event()
        self._interval_s = interval_s
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while True:
            idle = not self._busy()
            probe = probe_s()
            idle = idle and not self._busy()
            self.samples.append((time.perf_counter(), probe, idle))
            if self._stop.wait(self._interval_s):
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scale(self, start: float, end: float, margin_s: float = 0.5) -> float:
        """``PROBE_REF_S`` over the median probe taken around [start, end]."""
        near = [(probe, idle) for at, probe, idle in self.samples
                if start - margin_s <= at <= end + margin_s]
        idle = [probe for probe, was_idle in near if was_idle]
        probes = idle or [probe for probe, _ in near] or [
            min(self.samples, key=lambda s: abs(s[0] - end))[1]]
        return PROBE_REF_S / statistics.median(probes)


# -- statistics -------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, samples)``.  With ten samples or fewer
    no percentile qualifies and the maximum is returned (percentile 100).
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        return 0.0, 0.0, 0
    if count <= 10:
        return ordered[-1], 100.0, count
    index = count - 11
    return ordered[index], 100.0 * (index + 1) / count, count


def digest(payload: Any) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def without_timing(report: Dict[str, Any]) -> Dict[str, Any]:
    return {key: value for key, value in report.items()
            if not key.endswith("_seconds")}


def peak_rss_mb_self() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb(pid: int) -> float:
    with open("/proc/%d/status" % pid) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(pid: int) -> float:
    with open("/proc/%d/stat" % pid) as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# -- processes --------------------------------------------------------------


class Server:
    """One spawned ``repro`` process whose stdout is drained in a thread."""

    def __init__(self, argv: List[str], banner: str,
                 timeout_s: float = 60.0) -> None:
        self.process = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self.lines: List[str] = []
        self.url = ""
        deadline = time.monotonic() + timeout_s
        for line in self.process.stdout:
            self.lines.append(line.rstrip())
            if banner in line:
                self.url = "http://" + line.split("http://", 1)[1].split()[0]
                break
            if time.monotonic() > deadline:
                break
        if not self.url:
            self.stop()
            raise RuntimeError("server did not start: %s"
                               % " | ".join(self.lines[-5:]))
        self._drain = threading.Thread(target=self._read, daemon=True)
        self._drain.start()

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.append(line.rstrip())

    @property
    def pid(self) -> int:
        return self.process.pid

    def signal(self, signum: int) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signum)

    def stop(self, timeout_s: float = 20.0) -> int:
        """SIGTERM (graceful drain), then kill if it does not exit."""
        self.signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            self.process.kill()
            code = self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        return code


def stop_all(servers: List[Server]) -> None:
    for server in servers:
        server.signal(signal.SIGTERM)
    for server in servers:
        server.stop()


def http_json(url: str, method: str, path: str,
              body: Optional[Dict[str, Any]] = None,
              timeout_s: float = 120.0) -> Tuple[int, Dict[str, Any]]:
    host, port = url[len("http://"):].rsplit(":", 1)
    connection = http.client.HTTPConnection(host, int(port), timeout=timeout_s)
    try:
        payload = json.dumps(body) if body is not None else None
        connection.request(method, path, body=payload,
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        raw = response.read()
    finally:
        connection.close()
    return response.status, json.loads(raw.decode("utf-8") or "{}")


def wait_until(predicate, timeout_s: float = 60.0, poll_s: float = 0.02) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise RuntimeError("timed out waiting for readiness")
        time.sleep(poll_s)


def cold_caches() -> None:
    """Clear every process-wide hot-path cache of the program."""
    from repro.hw.estimator import clear_hw_run_memo
    from repro.hw.logicsim import clear_compile_cache
    from repro.hw.synth import clear_synth_cache
    from repro.parallel.runners import reset_warm_caches
    from repro.sw.codegen import clear_codegen_cache
    from repro.sw.iss import clear_decode_cache

    clear_hw_run_memo()
    clear_compile_cache()
    clear_synth_cache()
    clear_codegen_cache()
    clear_decode_cache()
    reset_warm_caches()
