#!/usr/bin/env python3
"""End-to-end benchmark of diablo_run, with a traced per-layer run.

    python3 e2ebench/run.py --workload incast_par --seed 1 --seconds 40 --trace 0

Builds diablo_run, its traced twin (layer_trace) and the child
launcher (run_timed) from the checkout the script sits in, under
$CARGO_TARGET_DIR (default .bench_build), then runs one workload from
this single process, one child at a time.

--trace 0 times the untraced `diablo_run ... --json` command and its
set-up twin (traffic phase set to zero) in alternation until --seconds
is spent, gates every run, and reports the end-to-end metrics as medians
over the runs.  --trace 1 alternates the untraced command with the
in-process layer_trace twin of the same command and reports the
per-layer metrics.  The seed reaches the program only as the
`seed=<n>` override.

The last stdout line is one JSON object: correct, attempted, failed and
metrics; a run that failed its gate makes `correct` false.  The line
before it records the host, the build and every run.  Exit 0 when the
result was printed, 2 when the benchmark could not run at all.
README.md in this directory documents the workloads, the metrics and
the gate.
"""

import argparse
import collections
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

INCAST = ["incast", "incast.servers=32", "incast.racks=4",
          "incast.iterations=20"]
PAR2 = ["--engine", "par", "--threads", "2"]
SEQ = ["--engine", "seq"]

# name -> the scenario (experiment and key=value overrides), the
# engine flags, the key that zeroes the traffic phase for the set-up
# twin, the exact completion count, the workload whose fingerprint must
# match (the seq == par == mp contract), and the host threads or
# processes the run occupies.
WORKLOADS = {
    "incast_par": dict(
        cmd=INCAST, engine=PAR2, zero="incast.iterations=0", expect=20,
        sibling="incast_mp", width=2),
    "incast_mp": dict(
        cmd=INCAST, engine=SEQ + ["--processes", "2"],
        zero="incast.iterations=0", expect=20,
        sibling="incast_par", width=2),
    # The memcached workloads are not listed in BENCHMARK.json
    # (README.md says why): their simulated elapsed time, and with it
    # slowdown, varies across seeds more than the bound allows.
    "memcached_2k": dict(
        cmd=["memcached", "mc.requests=100"], engine=[],
        zero="mc.requests=0", expect=1856 * 100,
        sibling=None, width=1),
    "memcached_32k": dict(
        cmd=["memcached", "topo.servers_per_rack=32",
             "topo.racks_per_array=32", "topo.num_arrays=32",
             "sim.lazy_servers=true", "mc.servers=64", "mc.clients=64",
             "stats.sketch=true", "mc.requests=300"], engine=SEQ,
        zero="mc.requests=0", expect=64 * 300,
        sibling=None, width=1),
}

MIN_REPEATS = 3        # timed runs per invocation, whatever --seconds says
CHILD_TIMEOUT_S = 120  # a child still running after this is killed


class Bench:
    """Paths of the build and of one invocation's run files."""

    def __init__(self):
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.build = os.path.join(ROOT, target, "e2ebench")
        self.diablo_run = os.path.join(self.build, "diablo_tools",
                                       "diablo_run")
        self.layer_trace = os.path.join(self.build, "layer_trace")
        self.run_timed = os.path.join(self.build, "run_timed")
        self.runs = os.path.join(self.build, "runs")
        self.count = 0

    def scratch(self):
        """A fresh path prefix for one child's output files."""
        self.count += 1
        return os.path.join(self.runs, "%d-%03d" % (os.getpid(),
                                                    self.count))

    def run_child(self, argv, out_path, err_path):
        """Run one child through run_timed (see run_timed.cc); return
        its exit code, wall seconds and peak RSS in MB."""
        r = subprocess.run([self.run_timed, str(CHILD_TIMEOUT_S),
                            out_path, err_path] + argv,
                           capture_output=True, text=True, check=True)
        code, wall, rss_kib = r.stdout.split()
        return int(code), float(wall), int(rss_kib) / 1024.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(b):
    """Configure and build incrementally; output goes to stderr."""
    for need in ("src/CMakeLists.txt", "tools/diablo_run.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise OSError("%s not found under %s; run from a full "
                          "checkout" % (need, ROOT))
    os.makedirs(b.runs, exist_ok=True)
    subprocess.run(["cmake", "-S", HERE, "-B", b.build,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", b.build, "-j", jobs, "--target",
                    "diablo_run", "layer_trace", "run_timed"],
                   stdout=sys.stderr, check=True)


def failure_text(code, err_path):
    """Exit code plus the panic/fatal line (or last line) of stderr."""
    try:
        with open(err_path, errors="replace") as f:
            lines = [l.strip() for l in f if l.strip()]
    except OSError:
        lines = []
    pick = [l for l in lines if re.search(r"panic|fatal|error|did not",
                                          l, re.I)]
    text = (pick or lines or ["(no stderr)"])[-1]
    return "exit %d: %s" % (code, text[:300])


def gate_artifact(art, expect):
    """Why the artifact of a run that exited 0 fails its gate, or None.

    Completion is exact: every request is either completed or, for
    memcached over UDP, given up by its client after the last retry
    (counted in app.udp_lost, a simulated outcome)."""
    if art is None:
        return "no artifact"
    if art.get("status") != "ok":
        return "artifact status %r" % art.get("status")
    done = art["results"]["requests_completed"]
    lost = art["counters"].get("app", {}).get("udp_lost", 0)
    if done + lost != expect:
        return "completed %d + lost %d of %d" % (done, lost, expect)
    return None


def gate_repeats(records):
    """Fail every passed run whose fingerprint or event count differs
    from the most common one among the repeats of this workload."""
    passed = [r for r in records if r["error"] is None]
    if not passed:
        return
    keys = collections.Counter((r["fingerprint"], r["events"])
                               for r in passed)
    (fp, ev), _ = keys.most_common(1)[0]
    for r in passed:
        if (r["fingerprint"], r["events"]) != (fp, ev):
            r["error"] = ("fingerprint %s / %d events differs from the "
                          "repeats' %s / %d" % (r["fingerprint"],
                                                r["events"], fp, ev))


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def run_diablo(b, argv, expect, kind):
    """One diablo_run run with its artifact, gated; returns its record."""
    path = b.scratch()
    code, wall, rss = b.run_child(
        [b.diablo_run] + argv + ["--json", path + ".json"],
        path + ".out", path + ".err")
    art = load_json(path + ".json")
    rec = dict(kind=kind, argv=argv, code=code, wall_s=wall,
               peak_rss_mb=rss,
               error=(failure_text(code, path + ".err") if code
                      else gate_artifact(art, expect)))
    if art is not None:
        eng = art["engine"]
        mp = art["counters"].get("mp", {})
        rec.update(fingerprint=art["fingerprint"],
                   events=eng["executed_events"],
                   elapsed_us=art["results"]["elapsed_us"],
                   requests=art["results"]["requests_completed"],
                   latency_fp=next(iter(art["latencies"].values()))
                   ["fingerprint"],
                   width=max(eng["workers"], mp.get("processes", 1)),
                   mp=mp)
    return rec


def median(values):
    return statistics.median(values) if values else None


def measure_e2e(b, w, seed, seconds, records):
    """--trace 0: alternate set-up and full runs until time is spent."""
    args = w["cmd"] + w["engine"] + ["seed=%d" % seed]
    setup_args = args + [w["zero"]]
    deadline = time.perf_counter() + seconds
    full, setup = [], []
    while True:
        t0 = time.perf_counter()
        s = run_diablo(b, setup_args, 0, "setup")
        f = run_diablo(b, args, w["expect"], "full")
        records += [s, f]
        setup.append(s)
        full.append(f)
        if s["error"] or f["error"]:
            break  # never retried; the failure is reported as it is
        left = deadline - time.perf_counter()
        if len(full) >= MIN_REPEATS and left < time.perf_counter() - t0:
            break  # the next pair would overrun --seconds
    gate_repeats(full)

    if w["sibling"] and all(r["error"] is None for r in full):
        sib = WORKLOADS[w["sibling"]]
        r = run_diablo(b, sib["cmd"] + sib["engine"] + ["seed=%d" % seed],
                       sib["expect"], "sibling:" + w["sibling"])
        records.append(r)
        if r["error"] is None and r["fingerprint"] != full[0]["fingerprint"]:
            r["error"] = ("fingerprint %s differs from %s on the other "
                          "engine" % (r["fingerprint"],
                                      full[0]["fingerprint"]))

    ok = [r for r in full if r["error"] is None]
    return {
        "wall_s": (median([r["wall_s"] for r in ok]), "s"),
        "setup_s": (median([r["wall_s"] for r in setup
                            if r["error"] is None]), "s"),
        "slowdown": (median([r["wall_s"] / (r["elapsed_us"] / 1e6)
                             for r in ok]), "s/s"),
        "peak_rss_mb": (median([r["peak_rss_mb"] for r in ok]), "MB"),
    }


def self_times(spans):
    """Sum of self time per span name: duration minus child spans."""
    child = collections.defaultdict(int)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    out = collections.defaultdict(float)
    for i, s in enumerate(spans):
        out[s["name"]] += (s["end_ns"] - s["start_ns"] - child[i]) / 1e9
    return out


def run_traced(b, argv):
    """One layer_trace run; returns its record with the parsed trace."""
    path = b.scratch()
    out, err = path + ".out", path + ".err"
    # A coupled run's shared segment; layer_trace unlinks it at once.
    shm = ["--shm", path + ".shm"] if "--processes" in argv else []
    code, wall, rss = b.run_child([b.layer_trace] + argv + shm, out, err)
    rec = dict(kind="traced", argv=argv, code=code, wall_s=wall,
               peak_rss_mb=rss, error=None)
    trace = load_json(out) if code == 0 else None
    if code != 0:
        rec["error"] = failure_text(code, err)
    elif trace is None:
        rec["error"] = "unreadable trace"
    return rec, trace


def same_sim_results(trace, art_rec):
    """Why the traced run's simulated results differ, or None."""
    res, cnt = trace["results"], trace["counters"]
    pairs = [("core.events", cnt["core.events"], art_rec["events"]),
             ("apps.requests", res["apps.requests"], art_rec["requests"]),
             ("elapsed_us", res["elapsed_us"], art_rec["elapsed_us"]),
             ("latency fingerprint", res["latency_fingerprint"],
              art_rec["latency_fp"])]
    bad = ["%s %s != %s" % p for p in pairs if p[1] != p[2]]
    return "traced run differs: " + "; ".join(bad) if bad else None


def share(num, den):
    return num / den if den else 0.0


def measure_layers(b, w, seed, seconds, records):
    """--trace 1: alternate the untraced command and its traced twin
    until time is spent; per-layer medians."""
    args = w["cmd"] + w["engine"] + ["seed=%d" % seed]
    deadline = time.perf_counter() + seconds
    untraced, traces = [], []
    while True:
        t0 = time.perf_counter()
        u = run_diablo(b, args, w["expect"], "full")
        records.append(u)
        untraced.append(u)
        t, trace = run_traced(b, args)
        records.append(t)
        if trace is not None and u["error"] is None:
            t["error"] = same_sim_results(trace, u)
        if t["error"] is None:
            traces.append((t, trace))
        if u["error"] or t["error"]:
            break
        if deadline - time.perf_counter() < time.perf_counter() - t0:
            break
    gate_repeats(untraced)
    if not traces or any(r["error"] for r in untraced):
        return None

    selfs = [self_times(tr["spans"]) for _, tr in traces]

    def self_s(name):
        return median([st[name] for st in selfs])

    def mp_counter(name):
        # Transport counters depend on wall-clock timing (waits), so
        # each is a median over the untraced runs' artifacts.
        return median([r["mp"].get(name, 0) for r in untraced])

    c = traces[-1][1]["counters"]
    res = traces[-1][1]["results"]
    run_s = self_s("fame.window")
    base_wall = median([r["wall_s"] for r in untraced])
    traced_wall = median([t["wall_s"] for t, _ in traces])
    events, quanta = c["core.events"], c["fame.quanta"]
    m = {
        "sim.build_s": (self_s("sim.build"), "s"),
        "sim.teardown_s": (self_s("sim.teardown"), "s"),
        "sim.materialized_nodes": (c["sim.materialized_nodes"], "count"),
        "sim.arena_mb": (c["sim.arena_bytes"] / 2**20, "MB"),
        "apps.install_s": (self_s("apps.install"), "s"),
        "fame.run_s": (run_s, "s"),
        "fame.windows": (res["fame.windows"], "count"),
        "fame.quanta": (quanta, "count"),
        "fame.events_per_quantum": (share(events, quanta), "count"),
        "fame.us_per_quantum": (share(run_s * 1e6, quanta), "us"),
        "fame.active_partition_share": (
            share(c["fame.active_partitions"], c["fame.partitions"]),
            "ratio"),
        "fame.max_partition_share": (
            share(c["fame.max_partition_events"], events), "ratio"),
        "fame.workers": (c["fame.workers"], "count"),
        "fame.transport.sync_msgs": (mp_counter("sync_sent"), "count"),
        "fame.transport.data_msgs": (mp_counter("msgs_sent"), "count"),
        "fame.transport.bytes": (mp_counter("bytes_sent"), "bytes"),
        "fame.transport.wait_blocked_share": (
            median([share(r["mp"].get("waits_blocked", 0),
                          r["mp"].get("waits_blocked", 0) +
                          r["mp"].get("waits_elided", 0))
                    for r in untraced]), "ratio"),
        "core.events": (events, "count"),
        "core.events_scheduled": (c["core.events_scheduled"], "count"),
        "core.exec_share": (share(events, c["core.events_scheduled"]),
                            "ratio"),
        "core.events_per_s": (share(events, run_s), "1/s"),
        "core.ns_per_event": (share(run_s * 1e9, events), "ns"),
        "net.pool_makes": (c["net.pool_makes"], "count"),
        "net.pool_heap_allocs": (c["net.pool_heap_allocs"], "count"),
        "net.pool_heap_share": (share(c["net.pool_heap_allocs"],
                                      c["net.pool_makes"]), "ratio"),
        "net.delivery_trains": (c["net.delivery_trains"], "count"),
        "net.deliveries_coalesced": (c["net.deliveries_coalesced"],
                                     "count"),
        "net.coalesced_share": (share(c["net.deliveries_coalesced"],
                                      c["net.deliveries_coalesced"] +
                                      c["net.delivery_trains"]), "ratio"),
        "switchm.forwarded": (c["switchm.forwarded"], "count"),
        "switchm.drops": (c["switchm.drops"], "count"),
        "switchm.drop_share": (share(c["switchm.drops"],
                                     c["switchm.drops"] +
                                     c["switchm.forwarded"]), "ratio"),
        "nic.rx_drops": (c["nic.rx_drops"], "count"),
        "nic.tx_ring_drops": (c["nic.tx_ring_drops"], "count"),
        "os.tcp_retransmits": (c["os.tcp_retransmits"], "count"),
        "os.tcp_rtos": (c["os.tcp_rtos"], "count"),
        "os.udp_socket_drops": (c["os.udp_socket_drops"], "count"),
        "apps.requests": (res["apps.requests"], "count"),
        "apps.udp_retries": (res["apps.udp_retries"], "count"),
        "apps.udp_lost": (res["apps.udp_lost"], "count"),
        "apps.sim_p99_us": (res["apps.sim_p99_us"], "sim_us"),
        "analysis.fold_s": (self_s("analysis.fold"), "s"),
        "trace.overhead_s": (traced_wall - base_wall, "s"),
        "trace.overhead_share": (share(traced_wall - base_wall, base_wall),
                                 "ratio"),
    }
    return m


def summary(records, metrics):
    """The result line: every run attempted counts, every gate failure
    counts against it, and no metric is reported as correct without a
    passing run behind it."""
    failed = sum(1 for r in records if r["error"])
    metrics = metrics or {}
    return {
        "correct": (failed == 0 and bool(metrics) and
                    all(v is not None for v, _ in metrics.values())),
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def host_record(b):
    """nproc, CPU model, load, build type, compiler and source identity."""
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    cache = {}
    try:
        with open(os.path.join(b.build, "CMakeCache.txt")) as f:
            for line in f:
                m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):"
                             r"\w+=(.*)", line)
                if m:
                    cache[m.group(1)] = m.group(2).strip()
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"],
                                 capture_output=True, text=True,
                                 timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.SubprocessError):
        version = "unknown"
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        commit = r.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "online_cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "compiler": version,
        "commit": commit,
        "source_sha256": source_digest(),
    }


def source_digest():
    """Digest of the sources the benchmark builds (the checkout may not
    be a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    for top in ("src", "tools", "e2ebench"):
        for d, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                if name.endswith((".cc", ".hh", ".txt", ".py")):
                    p = os.path.join(d, name)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    load1 = os.getloadavg()[0]
    b = Bench()
    try:
        build(b)
    except (OSError, subprocess.CalledProcessError) as e:
        log("e2ebench: build failed: %s" % e)
        return 2
    w = WORKLOADS[opts.workload]
    host = host_record(b)
    host["load1_at_start"] = load1

    records = []
    if opts.trace:
        metrics = measure_layers(b, w, opts.seed, opts.seconds, records)
    else:
        metrics = measure_e2e(b, w, opts.seed, opts.seconds, records)
    for r in records:
        r["oversubscribed"] = r.get("width", w["width"]) > host[
            "online_cores"]
        if r["error"]:
            log("e2ebench: FAILED %s run %s: %s" % (
                r["kind"], " ".join(r["argv"]), r["error"]))
    print(json.dumps({"host": host, "workload": opts.workload,
                      "seed": opts.seed, "trace": opts.trace,
                      "runs": records}))
    print(json.dumps(summary(records, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
