#!/usr/bin/env python3
"""End-to-end smoke test of the distributed cluster — the CI cluster gate.

Drives the full failure story from outside the processes, exactly as a
deployment would experience it:

1. a single-node ``repro explore`` produces the baseline sweep summary;
2. a coordinator plus three worker processes come up; readiness is
   gated on polling /readyz until all three workers are live;
3. a fig.7 sweep is submitted; once /stats shows points completing,
   one worker is SIGKILLed mid-sweep — no drain, no goodbye;
4. the sweep must still finish: the dead worker's jobs re-dispatch to
   the survivors and the summary rows are **byte-identical** to the
   single-node baseline (deterministic per-job seeds make a re-run an
   exact reproduction);
5. /readyz must show the killed worker dead and the survivors live,
   and /stats must count at least one re-dispatch;
6. a fresh worker started with ``--limp-s`` (it sleeps before every
   job and heartbeat) must be quarantined by the limplock detector —
   visible in /readyz — while the cluster keeps answering estimates;
7. **high availability** (docs/cluster-ha.md): an active + standby
   coordinator pair over a shared ``--control-dir``, three workers
   holding both peers.  The active is SIGKILLed mid-sweep; the standby
   must take the lease, replay the journal, report leadership in
   /readyz and ``repro_cluster_failovers_total >= 1`` in /metrics, and
   a failover resubmission (``resume`` through the handed-off
   checkpoint) must produce rows byte-identical to the single-node
   baseline.  A restarted deposed coordinator must come back fenced
   (503 ``not_leader``) — no split brain.

Coordinator JSON logs (both replicas in the HA phase) are captured to
CLUSTER_LOG_DIR (CI uploads the directory as an artifact).  Exits
non-zero on the first violation.
"""

import http.client
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

LOG_DIR = os.environ.get("CLUSTER_LOG_DIR", "cluster-logs")
PYTHON = sys.executable


def post(port, path, body, timeout=300):
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=timeout)
    try:
        connection.request("POST", path, body=json.dumps(body),
                           headers={"Content-Type": "application/json"})
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


def get_text(port, path):
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        return response.status, response.read().decode("utf-8")
    finally:
        connection.close()


def fail(message):
    print("cluster smoke FAILED: %s" % message, file=sys.stderr)
    sys.exit(1)


def wait_readyz(port, predicate, what, deadline_s=30.0):
    """Poll /readyz until ``predicate(document)`` holds (no fixed sleeps)."""
    deadline = time.time() + deadline_s
    last = None
    while time.time() < deadline:
        try:
            status, body = get(port, "/readyz")
            last = (status, body.get("status"), body.get("states"))
            if predicate(body):
                return body
        except (OSError, ValueError):
            last = ("unreachable", None, None)
        time.sleep(0.2)
    fail("/readyz never showed %s within %.0fs (last: %s)"
         % (what, deadline_s, last))


def spawn_worker(port, worker_id, limp_s=0.0, peers=()):
    command = [PYTHON, "-m", "repro", "worker",
               "--coordinator", "http://127.0.0.1:%d" % port,
               "--worker-id", worker_id]
    for peer in peers:
        command += ["--peer", peer]
    if limp_s > 0:
        command += ["--limp-s", str(limp_s)]
    return subprocess.Popen(
        command, stdout=subprocess.DEVNULL, stderr=subprocess.STDOUT,
        env=dict(os.environ, PYTHONUNBUFFERED="1"),
    )


def spawn_coordinator(coordinator_id, control_dir, log_name,
                      standby=False, peers=(), lease_ttl_s=2.0):
    """One ``repro cluster`` coordinator replica (no spawned workers)."""
    log_handle = open(os.path.join(LOG_DIR, log_name), "w")
    command = [PYTHON, "-m", "repro", "cluster",
               "--workers", "0", "--port", "0",
               "--coordinator-id", coordinator_id,
               "--control-dir", control_dir,
               "--lease-ttl-s", str(lease_ttl_s),
               "--suspect-after-s", "4", "--dead-after-s", "8",
               "--log-json", "--no-preflight"]
    if standby:
        command.append("--standby")
    for peer in peers:
        command += ["--peer", peer]
    process = subprocess.Popen(
        command, stdout=subprocess.PIPE, stderr=log_handle,
        env=dict(os.environ, PYTHONUNBUFFERED="1"), text=True,
    )
    banner = process.stdout.readline()
    if "coordinator listening on http://" not in banner:
        fail("no banner from coordinator %s: %r" % (coordinator_id, banner))
    port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])
    return process, port, log_handle


def terminate(processes, timeout=10):
    for process in processes:
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
    for process in processes:
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()


def main():
    os.makedirs(LOG_DIR, exist_ok=True)

    # 1. Single-node baseline (the byte-identity reference).
    baseline_path = os.path.join(LOG_DIR, "baseline.json")
    result = subprocess.run(
        [PYTHON, "-m", "repro", "explore", "--dma", "2", "8",
         "--packets", "1", "--out", baseline_path, "--no-preflight"],
        capture_output=True, text=True,
    )
    if result.returncode != 0:
        fail("single-node baseline failed:\n%s%s"
             % (result.stdout, result.stderr))
    with open(baseline_path) as handle:
        baseline = handle.read()
    print("baseline OK: single-node sweep summary at %s" % baseline_path)

    # 2. Coordinator (JSON logs to the artifact dir) + three workers.
    #    A SIGKILLed worker is detected by the failed socket, not the
    #    heartbeat age, so the liveness thresholds can stay lax enough
    #    for the limping worker's slowed heartbeats (limp_s delays
    #    those too).  limp_min_samples=1 lets one observed 2s job
    #    convict the limper; limp_min_gap_s=0.5 keeps one cold first
    #    run of a healthy worker (~0.2s against a peer median of
    #    ~0.02s) from being convicted on that single sample.
    log_path = os.path.join(LOG_DIR, "coordinator.jsonl")
    log_handle = open(log_path, "w")
    coordinator = subprocess.Popen(
        [PYTHON, "-c",
         "import sys; sys.path.insert(0, 'src');"
         "from repro.cluster import ClusterConfig, run_coordinator;"
         "from repro.cluster.membership import MembershipConfig;"
         "cfg = ClusterConfig(membership=MembershipConfig("
         "suspect_after_s=4.0, dead_after_s=8.0, limp_factor=6.0,"
         "limp_min_samples=1, limp_min_gap_s=0.5), log_json=True);"
         "sys.exit(run_coordinator('127.0.0.1', 0, config=cfg))"],
        stdout=subprocess.PIPE, stderr=log_handle,
        env=dict(os.environ, PYTHONUNBUFFERED="1"), text=True,
    )
    workers = {}
    try:
        banner = coordinator.stdout.readline()
        if "coordinator listening on http://" not in banner:
            fail("no coordinator banner: %r" % banner)
        port = int(banner.split("http://127.0.0.1:")[1].split(" ")[0])

        for worker_id in ("w0", "w1", "w2"):
            workers[worker_id] = spawn_worker(port, worker_id)
        wait_readyz(
            port,
            lambda body: sorted(body.get("routable", [])) ==
            ["w0", "w1", "w2"],
            "three live workers",
        )
        print("membership OK: w0 w1 w2 live and routable")

        # 3. Sweep in a background thread; SIGKILL one worker once
        #    /stats proves points are completing (mid-sweep, not
        #    before it started and not after it finished).
        sweep_result = {}

        def run_sweep():
            sweep_result["reply"] = post(
                port, "/sweep", {"dma": [2, 8], "packets": 1}, timeout=600
            )

        sweep_thread = threading.Thread(target=run_sweep, daemon=True)
        sweep_thread.start()
        deadline = time.time() + 120
        while time.time() < deadline:
            _, stats = get(port, "/stats")
            done = stats["cluster"]["sweep_points_completed"]
            if done >= 2:
                break
            if "reply" in sweep_result:
                fail("sweep finished before the kill could land "
                     "(completed too fast to observe)")
            time.sleep(0.1)
        else:
            fail("no sweep points completed within 120s")

        victim = "w1"
        workers[victim].send_signal(signal.SIGKILL)
        workers[victim].wait()
        print("killed %s mid-sweep (%d point(s) were done)"
              % (victim, done))

        sweep_thread.join(600)
        if "reply" not in sweep_result:
            fail("sweep never returned after the kill")
        status, body = sweep_result["reply"]
        if status != 200 or body.get("status") != "ok":
            fail("sweep did not complete after the kill: %s %s"
                 % (status, {k: body.get(k) for k in
                             ("status", "completed", "total_points",
                              "pending_labels", "errors")}))
        rows = json.dumps(body["rows"], indent=1, sort_keys=True) + "\n"
        if rows != baseline:
            fail("cluster rows differ from the single-node baseline "
                 "(%d vs %d bytes)" % (len(rows), len(baseline)))
        print("failure re-dispatch OK: %d/%d points, rows byte-identical "
              "to single node, worker split %s"
              % (body["completed"], body["total_points"], body["workers"]))

        # 4. The membership view must reflect reality.
        ready = wait_readyz(
            port,
            lambda doc: doc.get("workers", {}).get(victim, {}).get("state")
            == "dead",
            "%s dead" % victim,
        )
        for survivor in ("w0", "w2"):
            if survivor not in ready["routable"]:
                fail("survivor %s not routable after the kill: %s"
                     % (survivor, ready["routable"]))
        _, stats = get(port, "/stats")
        if stats["cluster"]["redispatches"] < 1:
            fail("no re-dispatch counted after a SIGKILL mid-sweep")
        print("membership OK: %s dead, survivors routable, "
              "%d redispatch(es)" % (victim, stats["cluster"]["redispatches"]))

        # 5. Limplock: a worker that sleeps 2s around every job and
        #    heartbeat must be quarantined, not trusted.  A second
        #    sweep spreads dispatches over every routable worker, so
        #    the coordinator observes the limper's latency directly.
        #    Quarantine is asserted on the monotonic counter: a
        #    quarantined worker re-registers on its next heartbeat
        #    (parole with a clean latency record), so the limplocked
        #    *state* is legitimately transient.
        workers["limpy"] = spawn_worker(port, "limpy", limp_s=2.0)
        wait_readyz(
            port,
            lambda doc: "limpy" in doc.get("routable", []),
            "limpy registered",
        )
        limp_sweep = {}

        def run_limp_sweep():
            limp_sweep["reply"] = post(
                port, "/sweep", {"dma": [2, 8], "packets": 1}, timeout=600
            )

        limp_thread = threading.Thread(target=run_limp_sweep, daemon=True)
        limp_thread.start()
        deadline = time.time() + 90
        while time.time() < deadline:
            _, stats = get(port, "/stats")
            if stats["cluster"]["quarantines"] >= 1:
                break
            time.sleep(0.2)
        else:
            fail("limplock detector never quarantined the limping worker")
        limp_thread.join(600)
        if "reply" not in limp_sweep:
            fail("limplock-phase sweep never returned")
        status, body = limp_sweep["reply"]
        if status != 200 or body.get("status") != "ok":
            fail("limplock-phase sweep failed: %s %s" % (status, body))
        status, body = post(port, "/estimate",
                            {"system": "fig1", "strategy": "caching"})
        if status != 200:
            fail("estimate after quarantine answered %s: %s"
                 % (status, body))
        print("limplock OK: limpy quarantined (%d quarantine(s)), "
              "sweep and estimates kept completing"
              % stats["cluster"]["quarantines"])

        print("core phases PASSED")
    finally:
        terminate(list(workers.values()), timeout=10)
        if coordinator.poll() is None:
            coordinator.send_signal(signal.SIGTERM)
            try:
                coordinator.wait(timeout=15)
            except subprocess.TimeoutExpired:
                coordinator.kill()
                coordinator.wait()
        log_handle.close()

    run_ha_phase(baseline)
    print("cluster smoke PASSED")


def run_ha_phase(baseline):
    """Phase 7: SIGKILL the active coordinator, fail over to the standby."""
    control_dir = os.path.join(LOG_DIR, "ha-control")
    shutil.rmtree(control_dir, ignore_errors=True)
    checkpoint = os.path.join(LOG_DIR, "ha-sweep.ckpt.jsonl")
    if os.path.exists(checkpoint):
        os.remove(checkpoint)
    processes = []
    log_handles = []
    try:
        active, active_port, log = spawn_coordinator(
            "ha-a", control_dir, "ha-active.jsonl")
        processes.append(active)
        log_handles.append(log)
        wait_readyz(
            active_port,
            lambda doc: doc.get("ha", {}).get("role") == "leader",
            "ha-a leading",
        )
        standby, standby_port, log = spawn_coordinator(
            "ha-b", control_dir, "ha-standby.jsonl", standby=True,
            peers=["http://127.0.0.1:%d" % active_port])
        processes.append(standby)
        log_handles.append(log)

        workers = []
        for worker_id in ("ha-w0", "ha-w1", "ha-w2"):
            workers.append(spawn_worker(
                active_port, worker_id,
                peers=["http://127.0.0.1:%d" % standby_port]))
        processes.extend(workers)
        wait_readyz(
            active_port,
            lambda doc: sorted(doc.get("routable", [])) ==
            ["ha-w0", "ha-w1", "ha-w2"],
            "three live workers on the active",
        )
        print("ha membership OK: active leading, standby shadowing, "
              "3 workers live")

        # Sweep through the active; SIGKILL it once points are landing
        # (mid-sweep, during its shard dispatching — the hardest spot).
        sweep_result = {}

        def run_sweep():
            try:
                sweep_result["reply"] = post(
                    active_port, "/sweep",
                    {"dma": [2, 8], "packets": 1,
                     "checkpoint": checkpoint}, timeout=600,
                )
            except OSError as exc:  # the kill severs this socket
                sweep_result["error"] = str(exc)

        sweep_thread = threading.Thread(target=run_sweep, daemon=True)
        sweep_thread.start()
        deadline = time.time() + 120
        while time.time() < deadline:
            _, stats = get(active_port, "/stats")
            done = stats["cluster"]["sweep_points_completed"]
            if done >= 2:
                break
            if sweep_result:
                fail("ha sweep finished before the kill could land")
            time.sleep(0.1)
        else:
            fail("no ha sweep points completed within 120s")

        active.send_signal(signal.SIGKILL)
        active.wait()
        sweep_thread.join(60)
        print("killed the active coordinator mid-sweep "
              "(%d point(s) were done)" % done)

        # The standby must take the lease and report leadership.
        ready = wait_readyz(
            standby_port,
            lambda doc: doc.get("ha", {}).get("role") == "leader",
            "standby leadership",
            deadline_s=60.0,
        )
        if ready["ha"]["leader"] != "ha-b" or ready["ha"]["epoch"] < 2:
            fail("standby leadership looks wrong: %s" % ready["ha"])
        wait_readyz(
            standby_port,
            lambda doc: sorted(doc.get("routable", [])) ==
            ["ha-w0", "ha-w1", "ha-w2"],
            "workers re-registered with the new leader",
            deadline_s=90.0,
        )
        print("failover OK: ha-b leads epoch %d, workers followed"
              % ready["ha"]["epoch"])

        # The failover client resubmits its sweep with resume: the
        # handed-off checkpoint restores what the dead leader finished,
        # and the merged rows are byte-identical to the baseline.
        status, body = post(
            standby_port, "/sweep",
            {"dma": [2, 8], "packets": 1,
             "checkpoint": checkpoint, "resume": True}, timeout=600,
        )
        if status != 200 or body.get("status") != "ok":
            fail("resumed sweep on the new leader failed: %s %s"
                 % (status, {k: body.get(k) for k in
                             ("status", "completed", "total_points",
                              "errors")}))
        rows = json.dumps(body["rows"], indent=1, sort_keys=True) + "\n"
        if rows != baseline:
            fail("post-failover rows differ from the single-node "
                 "baseline (%d vs %d bytes)" % (len(rows), len(baseline)))
        print("failover sweep OK: %d/%d points, rows byte-identical, "
              "%d restored from the handed-off checkpoint"
              % (body["completed"], body["total_points"], body["restored"]))

        # The failover is visible on the metrics surface.
        _, stats = get(standby_port, "/stats")
        if stats["ha"]["failovers"] < 1:
            fail("/stats counts no failover: %s" % stats["ha"])
        _, exposition = get_text(standby_port, "/metrics")
        failover_lines = [
            line for line in exposition.splitlines()
            if line.startswith("repro_cluster_failovers_total")
        ]
        if not failover_lines or float(failover_lines[0].split()[-1]) < 1:
            fail("repro_cluster_failovers_total missing or zero in "
                 "/metrics: %r" % failover_lines)
        print("ha observability OK: failovers_total=%s, epoch=%d"
              % (failover_lines[0].split()[-1], stats["ha"]["epoch"]))

        # A restarted deposed coordinator must be fenced, not a second
        # brain: the lease is held, so it stays standby and answers
        # 503 not_leader on the data plane.
        restarted, restarted_port, log = spawn_coordinator(
            "ha-a", control_dir, "ha-restarted.jsonl",
            peers=["http://127.0.0.1:%d" % standby_port])
        processes.append(restarted)
        log_handles.append(log)
        status, body = post(restarted_port, "/sweep",
                            {"dma": [2], "packets": 1}, timeout=60)
        if status != 503 or body.get("reason") != "not_leader":
            fail("restarted deposed coordinator was not fenced: %s %s"
                 % (status, body))
        print("no-split-brain OK: restarted ha-a answers 503 not_leader")
    finally:
        terminate(processes, timeout=10)
        for handle in log_handles:
            handle.close()


if __name__ == "__main__":
    main()
