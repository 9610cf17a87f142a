#!/usr/bin/env python3
"""Repository benchmark for the Decongestant simulator.

Run from the repository root:

    python3 perfbench/run.py --workload ycsb_shift --seed 1 --trace 0
    python3 perfbench/run.py --self-test

Builds libdecongestant and the runner from source (Release) on first use,
then runs the workload as a number of repetitions set by --seconds, one
process each, every repetition a single-threaded closed-loop simulation on
its own sub-seed derived from --seed. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics:
  host time (the simulator's own cost, median of the repetitions; set-up
  and loop times calibrated against a reference timed beside them):
    setup_s, calibrated_us_per_op, peak_rss_mb
  simulated time (the simulated system, mean over repetitions; bit-exact
  for a given --seed and --seconds):
    read_tput_per_s, read_p50_ms, read_p80_ms, read_p99_ms,
    write_tput_per_s, write_p99_ms, served_age_mean_ms, served_age_p99_ms
--trace 1 runs one traced and one untraced repetition and reports the
per-layer metrics and the layer ledger instead. perfbench/NOTES.md explains
every workload and metric.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Repetitions per run at --seconds 20, each on its own sub-seed; --seconds
# scales the count. Never derived from the wall clock, so the simulated
# metrics of a (--seed, --seconds) pair are bit-exact. Sized so a YCSB run
# costs about 10 s on a shared 4-core machine; tpcc_bound costs about 35 s,
# because its served-age metrics vary with each sub-seed's checkpoint
# stalls and need seven repetitions to settle (perfbench/NOTES.md).
NOMINAL_SECONDS = 20
WORKLOADS = {
    "ycsb_shift": 4,
    "tpcc_bound": 7,
    "ycsb_sharded": 4,
    "ycsb_failover": 5,
}

# Host metrics: the median over the repetitions. Set-up and loop times are
# the calibrated ones (perfbench/NOTES.md, "Host time"); the raw wall
# timings are per-layer metrics.
HOST_METRICS = [
    ("setup_s", "s"),
    ("calibrated_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
]
SIM_METRICS = [
    ("read_tput_per_s", "1/s"),
    ("read_p50_ms", "ms"),
    ("read_p80_ms", "ms"),
    ("read_p99_ms", "ms"),
    ("write_tput_per_s", "1/s"),
    ("write_p99_ms", "ms"),
    ("served_age_mean_ms", "ms"),
    ("served_age_p99_ms", "ms"),
]

# Layers the ledger has a unit cost for; everything else is residual.
LEDGER_LAYERS = ["sim", "net", "store", "command"]
UNCOSTED = ("repl (getMore batches, heartbeats, oplog append), core (balancer "
            "ticks), workload op generation, the benchmark's own observers")


class BenchError(Exception):
    pass


def build_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def build():
    """Configures and builds the runner; a no-op when up to date."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench_runner",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=840)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return os.path.join(out, "perfbench_runner")


def sub_seed(seed, rep):
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def run_runner(binary, mode, workload, seed):
    done = subprocess.run([binary, mode, workload, str(seed)],
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=170)
    lines = done.stdout.strip().splitlines()
    # A failed correctness check or a DCG_CHECK abort exits non-zero.
    if done.returncode != 0 or not lines:
        raise BenchError(f"runner {mode} {workload} {seed} exited with "
                         f"{done.returncode}")
    return json.loads(lines[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(binary, workload, seed, seconds):
    count = max(3, round(WORKLOADS[workload] * seconds / NOMINAL_SECONDS))
    reps = [run_runner(binary, "run", workload, sub_seed(seed, i))
            for i in range(count)]
    metrics = {}
    for name, unit in HOST_METRICS:
        metrics[name] = metric(
            statistics.median(r["host"][name] for r in reps), unit)
    for name, unit in SIM_METRICS:
        metrics[name] = metric(statistics.fmean(r["sim"][name] for r in reps),
                               unit)
    fingerprint = hashlib.sha256(
        "".join(r["fingerprint"] for r in reps).encode()).hexdigest()[:16]
    print(f"{workload} seed {seed}: {len(reps)} repetitions, "
          f"simulation fingerprint {fingerprint}")
    return reps, metrics


def per_layer(binary, workload, seed):
    """One traced and one untraced repetition of the first sub-seed."""
    s = sub_seed(seed, 0)
    plain = run_runner(binary, "run", workload, s)
    traced = run_runner(binary, "trace", workload, s)
    if traced["fingerprint"] != plain["fingerprint"]:
        raise BenchError(f"{workload}: tracing changed the simulation")
    t = traced["traced"]
    c = plain["counters"]
    ops = max(1, plain["ops"])
    writes = max(1, c["repl_committed_writes"])
    host = plain["host"]
    m = {}

    def put(name, value, unit):
        m[name] = metric(value, unit)

    msgs = c["net_messages"]
    put("host.wall_us_per_op", host["wall_us_per_op"], "us")
    put("host.sim_s_per_wall_s", host["sim_s_per_wall_s"], "sim_s/s")
    put("host.reference_ns", host["reference_ns"], "ns")
    put("host.setup_wall_s", host["setup_wall_s"], "s")
    put("sim.events_per_op", plain["events"] / ops, "1/op")
    put("sim.event_ns", t["sim.event_ns"], "ns")
    put("sim.pending_events_max", plain["pending_events_max"], "count")
    put("net.msgs_per_op", msgs / ops, "1/op")
    put("net.send_ns", t["net.send_ns"], "ns")
    put("server.cmds_per_op", c["client_cmds"] / ops, "1/op")
    put("server.busy_ms_per_op", c["server_busy_ms"] / ops, "ms")
    put("server.service_ms_mean", t["server.service_ms_mean"], "ms")
    put("repl.applied_per_write", c["repl_applied"] / writes, "1/op")
    put("repl.oplog_entries_end", c["repl_oplog_entries"], "count")
    put("repl.getmore_stalls", c["repl_getmore_stalls"], "count")
    put("repl.commit_wait_ms_mean", t["repl.commit_wait_ms_mean"], "ms")
    put("repl.elections", c["repl_elections"], "count")
    put("store.point_find_ns", t["store.point_find_ns"], "ns")
    put("store.range_scan_ns", t["store.range_scan_ns"], "ns")
    put("store.update_ns", t["store.update_ns"], "ns")
    put("doc.compare_ns", t["doc.compare_ns"], "ns")
    put("store.load_s", t["store.load_s"], "s")
    put("driver.checkouts_per_op", c["driver_checkouts"] / ops, "1/op")
    put("driver.checkout_ns", t["driver.checkout_ns"], "ns")
    put("server.cmd_ns", t["server.cmd_ns"], "ns")
    put("driver.retries_per_op", plain["retries"] / ops, "1/op")
    put("driver.checkout_ms_mean",
        c["driver_checkout_wait_ms"] / max(1, c["driver_checkouts"]), "ms")
    put("driver.pending_ops_max", plain["driver_pending_max"], "count")
    put("driver.pool_clears", c["driver_pool_clears"], "count")
    put("driver.failed_op_share", plain["sim"]["failed_op_share"], "share")
    put("core.secondary_read_share", plain["sim"]["secondary_read_share"],
        "share")
    put("core.over_bound_read_share", plain["sim"]["over_bound_read_share"],
        "share")
    put("core.fraction_moves", c["core_fraction_moves"], "count")
    put("core.gate_events", c["core_gate_events"], "count")
    put("shard.router_cmds_per_op", c["shard_router_cmds"] / ops, "1/op")
    put("shard.router_ms_mean", t["shard.router_ms_mean"], "ms")
    put("shard.stale_refreshes", c["shard_stale_refreshes"], "count")
    put("fault.events_applied", c["fault_events_applied"], "count")
    put("mem.allocs_per_op", plain["allocs"] / ops, "1/op")
    put("mem.alloc_bytes_per_op", plain["alloc_bytes"] / ops, "B/op")
    put("trace.overhead_pct",
        100.0 * (traced["host"]["calibrated_us_per_op"] /
                 host["calibrated_us_per_op"] - 1.0), "%")
    put("trace.dropped_spans", t["trace.dropped_spans"], "count")
    for key, value in t.items():
        if key.startswith("span."):
            put(key, value, "ms")

    # The ledger: per-op counts of the untraced run times the unit costs.
    # Each network message is one delivery event, so it leaves the sim
    # share and is costed whole by net.send_ns.
    store_calls = (c["workload_point_reads"] * t["store.point_find_ns"] +
                   (c["repl_committed_writes"] + c["repl_applied"]) *
                   t["store.update_ns"])
    ledger = {
        "sim": (plain["events"] - msgs) * t["sim.event_ns"],
        "net": msgs * t["net.send_ns"],
        "store": store_calls,
        # Driver + server per command: application commands plus, when
        # sharded, the client->router leg the router answers.
        "command": (c["client_cmds"] + c["shard_router_cmds"]) *
                   t["server.cmd_ns"],
    }
    wall_us = host["calibrated_us_per_op"]
    attributed = 0.0
    for layer in LEDGER_LAYERS:
        us = ledger[layer] / 1000.0 / ops
        attributed += us
        put(f"ledger.{layer}_us_per_op", us, "us")
    residual = 1.0 - attributed / wall_us
    put("ledger.residual_share", residual, "share")
    print(f"ledger {workload}: calibrated {wall_us:.3f} us/op = " + " + ".join(
        f"{layer} {m[f'ledger.{layer}_us_per_op']['value']:.3f}"
        for layer in LEDGER_LAYERS) + f" + residual {residual:.1%}")
    if residual > 0.25:
        missing = UNCOSTED
        if c["workload_point_reads"] == 0:
            missing = ("store/doc transaction bodies (finds and scans), " +
                       missing)
        print(f"ledger {workload}: residual above 25 %; not costed: {missing}")
    return [plain, traced], m


def self_test():
    """Sliced runs match plain Experiment::Run(), and seeds repeat exactly."""
    binary = build()
    ok = True
    for workload in WORKLOADS:
        done = subprocess.run([binary, "selftest", workload, "7"],
                              stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=170)
        print(done.stdout.strip())
        ok = ok and done.returncode == 0
        a = run_runner(binary, "run", workload, 7)
        b = run_runner(binary, "run", workload, 7)
        same = a["fingerprint"] == b["fingerprint"] and a["sim"] == b["sim"]
        print(f"{workload}: repeat of seed 7 identical: {same}")
        ok = ok and same
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        start = time.monotonic()
        binary = build()
        if args.trace:
            reps, metrics = per_layer(binary, args.workload, args.seed)
        else:
            reps, metrics = end_to_end(binary, args.workload, args.seed,
                                       args.seconds)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload}: measured in {time.monotonic() - start:.1f} s",
          file=sys.stderr)
    print(json.dumps({
        "correct": all(r["ok"] for r in reps),
        "attempted": sum(r["issued"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
