#!/usr/bin/env python3
"""Compare BENCH_*.json artifacts against committed baselines.

Usage:
    check_regression.py --baseline bench/baselines --current <dir> [options]

Every artifact in the current directory is matched with the baseline of
the same name. For keys matching the guarded patterns, a worsening of
more than --threshold (default 20%) fails the check. "Worse" is
direction-aware: for throughput keys higher is better, for everything
else (times, latencies) lower is better.

Keys present only on one side are reported but never fail the check
(benches grow keys over time) — EXCEPT guarded keys: a baseline key that
matches a guarded pattern but is absent from the current artifact fails,
exactly like a guarded artifact missing wholesale, so a bench can't
silently stop emitting the number that gates it.
"""

import argparse
import fnmatch
import json
import os
import sys

# (artifact name, key glob) pairs that gate CI. Handover/recovery time and
# steady-state throughput are the paper's headline claims; the micro_lsm
# keys guard the block-granular read path (warm point-get latency, scan
# throughput, the cache-bounded scan memory profile) and the streaming
# write path (group-commit speedup and per-entry WAL cost, the bounded
# flush/compaction build buffer, and vnode-restore ingest throughput).
GUARDED = [
    ("fig1_reconfiguration_time", "recovery_total_s.*"),
    ("overhead_steady_state", "throughput_records_per_s.*"),
    ("overhead_steady_state", "latency_p99_ms.*"),
    ("micro_lsm", "point_get_us.warm"),
    ("micro_lsm", "point_get_us.cold_blockread"),
    ("micro_lsm", "throughput_scan_entries_per_s.*"),
    ("micro_lsm", "range_scan_peak_cache_bytes.*"),
    ("micro_lsm", "throughput_put_batched_per_s"),
    ("micro_lsm", "put_batched_speedup"),
    ("micro_lsm", "wal_appends_per_1k_entries.batched"),
    ("micro_lsm", "wal_bytes_per_entry.*"),
    ("micro_lsm", "write_peak_buffer_bytes.*"),
    ("micro_lsm", "throughput_ingest_vnodes_mb_per_s"),
    # Sharded-concurrency lane: multi-threaded put/get/scan throughput and
    # the machine-aware 4-thread put-scaling gate (1.0 = the speedup claim
    # holds, or the machine is too small to test it; 0.0 = a real miss).
    ("micro_lsm", "throughput_mt_put_per_s.*"),
    ("micro_lsm", "throughput_mt_get_per_s.*"),
    ("micro_lsm", "throughput_mt_scan_entries_per_s.*"),
    ("micro_lsm", "mt_put_speedup_4t_ok"),
    # Memtable blocks come from a process-wide pool: 1.0 when a DB's 3rd
    # through 20th memtables map no new block (exact).
    ("micro_lsm", "memtable_pool_reuse_ok"),
    # Pipelined data plane: ingest throughput under emulated service
    # latency, LSM commits and WAL appends per applied record (a node
    # commits each sub-batch as one commit and one WAL record; the store
    # counts commits with or without its WAL; lower is better, exact), the
    # data path's bytes per record (the driver's kProcessBatch requests and
    # replies over the records they carry; lower is better, exact), the
    # checkpoint chain bytes of a whole and of an incremental checkpoint at
    # three state sizes (exact), the credit window must really fill
    # (window 16 keeps nodes x 16 batches in flight), an incremental
    # checkpoint's bytes must not grow with the state (the same keys
    # written at every size), and the kill/recover/replay audit must stay
    # exactly-once.
    ("dist_pipeline", "throughput_records_per_s.pipelined"),
    ("dist_pipeline", "commits_per_record.pipelined_raw"),
    ("dist_pipeline", "wal_appends_per_record.pipelined_raw"),
    ("dist_pipeline", "bytes_per_record.data_path"),
    ("dist_pipeline", "checkpoint_bytes.base.*"),
    ("dist_pipeline", "checkpoint_bytes.incremental.*"),
    ("dist_pipeline", "window_fills_ok"),
    ("dist_pipeline", "checkpoint_bytes_flat_ok"),
    ("dist_pipeline", "exactly_once_ok"),
    # Replica-local handover: the move to the vnodes' holder takes over
    # the replica it holds (no state blobs on the wire) and the move to a
    # cold target takes the full path. Against state size (three sizes,
    # 16x apart): the replica-local handover's and the promotion's driver
    # bytes stay flat (at most 1.5x), the cold-target handover's grow with
    # the state (at least 4x), and the replica-local handover's LSM write
    # bytes stay flat (at most 1.5x with a 1-byte floor: the origin
    # demotes its rows, writing nothing). The cold-target handover's bytes
    # at each size are the state's entry runs on the wire (exact).
    ("dist_handover", "handover_replica_local_ok"),
    ("dist_handover", "reconfig_bytes_flat_ok"),
    ("dist_handover", "cold_bytes_grow_ok"),
    ("dist_handover", "reconfig_load_flat_ok"),
    ("dist_handover", "bytes.handover.cold.*"),
]

# (artifact name, key glob) pairs that are REPORT-ONLY: wall-clock numbers
# are host-dependent, so their deltas are printed for visibility but never
# gate CI. A report-only artifact missing from the current run is noted,
# not failed.
REPORT_ONLY = [
    ("dist_handover", "wall_s.*"),
    ("dist_handover", "bytes.*"),
    ("dist_handover", "lsm_bytes.*"),
    ("dist_handover", "handover_back_replica_local"),
    ("dist_handover", "records_per_s.*"),
    ("dist_handover", "records.*"),
    ("dist_handover", "vnodes.moved"),
    ("dist_handover", "nodes"),
    # Amplification accounting: WA/RA depend on workload shape and cache
    # budget, not code speed — tracked for drift, not gated (a genuine WA
    # regression shows up as a guarded throughput regression anyway).
    ("micro_lsm", "write_amplification"),
    ("micro_lsm", "read_amplification"),
    ("micro_lsm", "*_per_user_byte"),
    ("micro_lsm", "compaction_in_mb"),
    ("micro_lsm", "compaction_out_mb"),
    ("micro_lsm", "user_write_mb"),
    ("micro_lsm", "sst_read_bytes_per_get"),
    ("micro_lsm", "sst_blocks_read_per_get"),
    ("micro_lsm", "write_stall_ms"),
    ("micro_lsm", "mt_write_stall_ms.*"),
    ("micro_lsm", "mt_put_speedup_4t"),
    ("micro_lsm", "hardware_threads"),
    # Process CPU ns per operation beside the put, get, scan, point-get
    # and ingest walls: CPU time is not inflated by waiting for a core, so
    # a loaded host that fails the walls above can still read each path's
    # cost here. Report-only: it still moves with the host's caches and
    # clock.
    ("micro_lsm", "put_batched_cpu_ns_per_op"),
    ("micro_lsm", "mt_put_cpu_ns_per_op.*"),
    ("micro_lsm", "mt_get_cpu_ns_per_op.*"),
    ("micro_lsm", "mt_scan_cpu_ns_per_entry.*"),
    ("micro_lsm", "point_get_cpu_ns.*"),
    ("micro_lsm", "scan_cpu_ns_per_entry.*"),
    ("micro_lsm", "ingest_vnodes_cpu_ns_per_entry"),
    # Vnode extract/ingest in entries/s, beside the MB/s keys (the guarded
    # ingest MB/s reads lower when a blob spends fewer bytes per entry).
    ("micro_lsm", "throughput_*_vnodes_entries_per_s"),
    # Pipelined data plane: absolute throughputs other than the guarded
    # pipelined headline (the window sweep is exploratory), the window 16
    # over window 1 speedup (1.0-1.3x at smoke scale, too thin for a wall
    # gate), millisecond-scale checkpoint walls, which are too
    # scheduler-noisy on small hosts to gate as percentages, and the
    # checkpoint growth ratio (the byte curve itself is guarded). The
    # replication stream's bytes per record depend on how many writes of
    # a key one delta coalesces, which is timing.
    ("dist_pipeline", "throughput_records_per_s.*"),
    ("dist_pipeline", "bytes_per_record.replication"),
    ("dist_pipeline", "window_speedup"),
    ("dist_pipeline", "checkpoint_wall_s.*"),
    ("dist_pipeline", "checkpoint_growth.*"),
    ("dist_pipeline", "credit_stalls.*"),
    ("dist_pipeline", "max_inflight.*"),
    ("dist_pipeline", "records.*"),
    ("dist_pipeline", "service_delay_us"),
    ("dist_pipeline", "nodes"),
]

# Keys where a higher current value is an improvement. `*_ok` booleans
# encode "claim holds" as 1.0, so a drop to 0.0 must read as a regression.
HIGHER_IS_BETTER = ["throughput_*", "*speedup*", "*_ok"]


def load_artifacts(directory):
    artifacts = {}
    if not os.path.isdir(directory):
        return artifacts
    for entry in sorted(os.listdir(directory)):
        if not (entry.startswith("BENCH_") and entry.endswith(".json")):
            continue
        path = os.path.join(directory, entry)
        try:
            with open(path) as f:
                doc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot parse {path}: {e}")
            sys.exit(2)
        name = doc.get("bench", entry[len("BENCH_"):-len(".json")])
        artifacts[name] = doc.get("metrics", {})
    return artifacts


def is_guarded(bench, key):
    return any(
        bench == gb and fnmatch.fnmatch(key, gk) for gb, gk in GUARDED
    )


def is_report_only(bench, key):
    return any(
        bench == rb and fnmatch.fnmatch(key, rk) for rb, rk in REPORT_ONLY
    )


def higher_is_better(key):
    return any(fnmatch.fnmatch(key, pat) for pat in HIGHER_IS_BETTER)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", default="bench/baselines",
                        help="directory with committed BENCH_*.json baselines")
    parser.add_argument("--current", default=".",
                        help="directory with freshly produced BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=20.0,
                        help="allowed regression in percent (default 20)")
    parser.add_argument("--min-abs", type=float, default=1e-3,
                        help="ignore regressions where both values are below "
                             "this magnitude (noise floor)")
    args = parser.parse_args()

    baseline = load_artifacts(args.baseline)
    current = load_artifacts(args.current)
    if not baseline:
        print(f"error: no baselines found in {args.baseline}")
        return 2
    if not current:
        print(f"error: no artifacts found in {args.current}")
        return 2

    failures = []
    compared = 0
    for bench, base_metrics in sorted(baseline.items()):
        cur_metrics = current.get(bench)
        if cur_metrics is None:
            if any(gb == bench for gb, _ in GUARDED):
                failures.append(f"{bench}: guarded artifact missing from "
                                f"current run")
            else:
                print(f"note: {bench} not present in current run")
            continue
        for key, base_value in sorted(base_metrics.items()):
            if key not in cur_metrics:
                if is_guarded(bench, key):
                    failures.append(f"{bench}/{key}: guarded key missing "
                                    f"from current artifact")
                else:
                    print(f"note: {bench}/{key} missing from current run")
                continue
            cur_value = cur_metrics[key]
            compared += 1
            if not is_guarded(bench, key):
                if is_report_only(bench, key) and base_value != 0:
                    delta_pct = (cur_value - base_value) / abs(base_value) * 100
                    print(f"INFO {bench}/{key}: {base_value:.6g} -> "
                          f"{cur_value:.6g} ({delta_pct:+.1f}%, report-only)")
                continue
            if abs(base_value) < args.min_abs and abs(cur_value) < args.min_abs:
                continue
            if base_value == 0:
                continue
            if higher_is_better(key):
                delta_pct = (base_value - cur_value) / abs(base_value) * 100
            else:
                delta_pct = (cur_value - base_value) / abs(base_value) * 100
            status = "OK"
            if delta_pct > args.threshold:
                status = "FAIL"
                failures.append(
                    f"{bench}/{key}: {base_value:.6g} -> {cur_value:.6g} "
                    f"({delta_pct:+.1f}% worse)")
            print(f"{status:4} {bench}/{key}: {base_value:.6g} -> "
                  f"{cur_value:.6g} ({delta_pct:+.1f}%)")

    print(f"\ncompared {compared} keys across {len(current)} artifacts")
    if failures:
        print(f"\n{len(failures)} regression(s) over {args.threshold:.0f}%:")
        for f in failures:
            print(f"  {f}")
        return 1
    print("no regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
