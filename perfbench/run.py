#!/usr/bin/env python3
"""MLNClean benchmark: four seeded workloads, end to end, plus a traced run
that times each layer from outside.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The script builds the `perfbench` package
(release, into `$CARGO_TARGET_DIR`, default `.bench_build`), then starts
fresh `perfbench` processes one after another, as many as fill `--seconds`
at the workload's nominal process time.  Process i generates its rows from
its own input seed, derived from `--seed` and i, runs the workload through
the public APIs and checks its outputs outside the timed window.  The
spread lies between processes and between inputs, not within one process,
so every metric is pooled over the processes of a run: a timing is the
median of per-process values or a percentile of pooled samples, and peak
memory and F1 are means.  A percentile is only emitted with at least 10
samples beyond it; its sample count is printed beside it.

Workloads (rayon runs at `nproc` threads; closed loop, one client):
  tpch-clean   TPC-H 10^5 rows in 4,096-row batches into one session, then
               one outcome(): AGP over a single block dominates.
  hai-clean    HAI 8x10^4 rows under 6 FDs and 1 DC, the same way: per-block
               parallel AGP/RSC and 7-version FSCR fusion.
  tpch-mutate  a warm TPC-H 2x10^4-row session, then single updates,
               1-row inserts and deletes, each followed by outcome().
  hai-wire     HAI 6x10^4 rows through CleaningService (2 partitions,
               1,024-row batches, merge every 8) over a seeded lossy network.

With `--trace 0` the last line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced process, the
1-thread replay of the pipeline stages, and the tracing overhead against
untraced processes of the same run.  Spans are written to
`$CARGO_TARGET_DIR/perfbench-spans/`.  A layer the workload bypasses reads 0.
The exit code is non-zero when a build, a call or an output check fails.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("tpch-clean", "hai-clean", "tpch-mutate", "hai-wire")
# Every process of one measurement must run to completion; a workload that
# takes longer than this per process is broken, not slow.
CHILD_TIMEOUT_S = 150
# Wall time of one untraced process on 2 cores, checks included.  The
# process count of a run is derived from it, never from the clock, so one
# seed always gives the same inputs.
NOMINAL_PROCESS_S = {"tpch-clean": 6.0, "hai-clean": 4.5, "tpch-mutate": 5.0, "hai-wire": 9.0}
# Processes per untraced run, at least.
MIN_PLAIN = 3
# Untraced processes in a traced run: they give the overhead's base and
# pool enough merge-round batches for their median.
TRACE_PLAIN = 2

# Every workload reports every end-to-end metric.  The timed phase is the
# bulk ingest plus its outcome(), or on tpch-mutate the mutation loop (its
# base clean is set-up):
#   clean_s            wall time of the timed phase's calls
#   outcome_s          median outcome() latency in the timed phase
#   peak_live_mib      peak live heap during the timed phase
#   repair_f1          F1 of the first outcome against the clean twin
END_TO_END = [
    ("setup_s", "s"),
    ("clean_s", "s"),
    ("outcome_s", "s"),
    ("peak_live_mib", "MiB"),
    ("repair_f1", "ratio"),
]

# Printed beside the end-to-end metrics but not in the result: the rows the
# phase's change calls carry per second of them.  Ingest is a fraction of a
# second on three workloads, too short to repeat within the bounds.
REPORTED = [("ingest_rows_per_s", "rows/s")]

PER_PROCESS_LAYER = [
    ("session.ingest_s", "s"),
    ("session.first_outcome_s", "s"),
    ("session.touched_groups", "count"),
    ("session.dirty_blocks", "count"),
    ("session.recleaned_groups", "count"),
    ("index.build_s", "s"),
    ("index.groups", "count"),
    ("index.gammas", "count"),
    ("agp.process_s", "s"),
    ("agp.merges", "count"),
    ("agp.distance_lookups", "count"),
    ("agp.distance_hit_ratio", "ratio"),
    ("weights.assign_s", "s"),
    ("rsc.clean_s", "s"),
    ("rsc.repairs", "count"),
    ("fscr.plan_s", "s"),
    ("fscr.fuse_s", "s"),
    ("fscr.changed_cells", "count"),
    ("fscr.conflict_tuples", "count"),
    ("dataset.dedup_s", "s"),
    ("dataset.clone_s", "s"),
    ("coordinator.merge_rounds", "count"),
    ("coordinator.partition_skew", "ratio"),
    ("coordinator.footprint_entries", "count"),
    ("net.sent", "count"),
    ("net.delivered", "count"),
    ("net.dropped", "count"),
    ("net.retransmits", "count"),
    ("net.bytes_sent", "bytes"),
    ("worker.journaled_batches", "count"),
    ("codec.encode_s", "s"),
    ("codec.decode_s", "s"),
    ("codec.bytes_per_row", "bytes"),
    ("mem.peak_live_ingest_mib", "MiB"),
    ("mem.peak_live_outcome_mib", "MiB"),
    ("mem.allocs_ingest", "count"),
    ("mem.allocs_outcome", "count"),
    ("mem.allocs_per_mutation", "count"),
    ("mem.alloc_mib_per_mutation", "MiB"),
    ("mem.rss_hwm_mib", "MiB"),
    ("trace.unattributed_ratio", "ratio"),
]

# Means over processes: exact per input, so their spread is between inputs.
MEANS = ("peak_live_mib", "repair_f1")

# Pooled-sample percentiles of the per-layer set: (metric, samples, quantile).
PER_LAYER_PERCENTILES = [
    ("session.apply_p50_s", "session.apply_s", 0.50),
    ("session.outcome_p50_s", "session.outcome_s", 0.50),
    ("agp.block_replan_p50_s", "agp.block_replan_s", 0.50),
    ("coordinator.batch_plain_p50_s", "coordinator.batch_plain_s", 0.50),
    ("coordinator.batch_merge_p50_s", "coordinator.batch_merge_s", 0.50),
    ("mutation_p50_s", "mutation_s", 0.50),
    ("mutation_p95_s", "mutation_s", 0.95),
]

ONE_THREAD = ["index.build_1t_s", "agp.process_1t_s", "rsc.clean_1t_s", "fscr.fuse_1t_s"]


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(ROOT, "perfbench", "Cargo.toml")
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        log("perfbench: the MLNClean crates are not beside perfbench/")
        return None
    command = ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
               "--manifest-path", manifest]
    done = subprocess.run(command, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log("perfbench: build failed")
        return None
    return os.path.join(target_dir(), "release", "perfbench")


def percentile(values, q):
    """Nearest-rank percentile, or None unless 10 samples lie beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(round(q * n, 9)))
    if n - rank < 10:
        return None
    return ordered[rank - 1]


class Run:
    """The processes of one measurement and their pooled results."""

    def __init__(self, binary, workload, seed):
        self.binary = binary
        self.workload = workload
        self.seed = seed  # the run's seed; process inputs derive from it
        self.processes = []  # (mode, parsed output)
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def spawn(self, index, mode, reference=False, spans=None, threads=None):
        """Run process `index` of this run on its own input seed."""
        seed = (self.seed * 1000 + index) % 2**64
        command = [self.binary, "--workload", self.workload, "--seed", str(seed),
                   "--mode", mode, "--reference", "1" if reference else "0"]
        if spans:
            command += ["--spans", spans]
        env = dict(os.environ)
        if threads:
            env["RAYON_NUM_THREADS"] = str(threads)
        try:
            done = subprocess.run(command, env=env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{mode} process timed out")
            return
        sys.stderr.write(done.stderr)
        try:
            out = json.loads(done.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{mode} process exited {done.returncode} without a result")
            return
        self.attempted += out["attempted"]
        self.failed += out["failed"]
        self.problems += out["errors"]
        if done.returncode != 0 and out["failed"] == 0:
            self.failed += 1
            self.problems.append(f"{mode} process exited {done.returncode}")
        self.processes.append((mode, out))

    def outputs(self, *modes):
        return [out for mode, out in self.processes if mode in modes]

    def median_of(self, name, *modes):
        values = [out["values"][name] for out in self.outputs(*modes) if name in out["values"]]
        return statistics.median(values) if values else 0.0

    def mean_of(self, name, *modes):
        values = [out["values"][name] for out in self.outputs(*modes) if name in out["values"]]
        return statistics.fmean(values) if values else 0.0

    def pooled(self, name, *modes):
        return [v for out in self.outputs(*modes) for v in out["samples"].get(name, [])]


def measure(binary, workload, seed, seconds, trace):
    run = Run(binary, workload, seed)
    if trace:
        spans_dir = os.path.join(target_dir(), "perfbench-spans")
        os.makedirs(spans_dir, exist_ok=True)
        spans = os.path.join(spans_dir, f"{workload}-seed{seed}.jsonl")
        run.spawn(0, "traced", spans=spans)
        run.spawn(0, "replay1t", threads=1)
        for index in range(TRACE_PLAIN):
            run.spawn(index, "plain", reference=index == 0)
    else:
        count = max(MIN_PLAIN, int(seconds // NOMINAL_PROCESS_S[workload]))
        for index in range(count):
            run.spawn(index, "plain", reference=index == 0)
    return run


def end_to_end(run):
    metrics, notes = {}, []
    for name, unit in END_TO_END:
        if name in MEANS:
            value = run.mean_of(name, "plain")
        else:
            value = run.median_of(name, "plain")
        metrics[name] = {"value": value, "unit": unit}
    for name, unit in REPORTED:
        notes.append(f"{name} = {run.median_of(name, 'plain')} {unit}")
    mutations = run.pooled("mutation_s", "plain")
    if mutations:
        for label, q in (("mutation_p50_s", 0.50), ("mutation_p95_s", 0.95)):
            value = percentile(mutations, q)
            shown = "refused (fewer than 10 samples beyond it)" if value is None else f"{value:.6f} s"
            notes.append(f"{label} = {shown} over {len(mutations)} samples")
    processes = len(run.outputs("plain"))
    notes.append(f"{processes} processes; failed_ratio = {run.failed}/{run.attempted}")
    return metrics, notes


def per_layer(run):
    metrics, notes = {}, []
    traced = run.outputs("traced")
    if not traced:
        run.failed += 1
        run.problems.append("the traced process produced no result")
        return metrics, notes
    for name, unit in PER_PROCESS_LAYER:
        metrics[name] = {"value": run.median_of(name, "traced"), "unit": unit}
    for name, samples_name, q in PER_LAYER_PERCENTILES:
        # Session-call latencies are timed the same way with tracing on or
        # off, so untraced processes add samples.
        samples = run.pooled(samples_name, "plain", "traced")
        value = percentile(samples, q)
        metrics[name] = {"value": 0.0 if value is None else value, "unit": "s"}
        metrics[name.rsplit("_", 2)[0] + "_samples"] = {"value": len(samples), "unit": "count"}
        if samples and value is None:
            notes.append(f"{name} refused: {len(samples)} samples leave fewer than 10 beyond it")
    for name in ONE_THREAD:
        metrics[name] = {"value": run.median_of(name, "replay1t"), "unit": "s"}
    # Process 0's input in both modes, so the ratio compares like with like.
    plain = [out["values"].get("headline_s", 0.0) for out in run.outputs("plain")][:1]
    traced_headline = traced[0]["values"].get("headline_s", 0.0)
    overhead = traced_headline / plain[0] - 1.0 if plain and plain[0] else 0.0
    metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    for key, value in sorted(traced[0]["values"].items()):
        if key.startswith("self."):
            notes.append(f"self time {key[5:]} = {value:.6f}")
    if traced[0]["values"].get("replay_matches") != 1.0:
        notes.append("the stage replay does not equal the session: its layer times do not describe it")
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    binary = build()
    if binary is None:
        return 1
    run = measure(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    metrics, notes = (per_layer if args.trace else end_to_end)(run)
    print(f"workload {args.workload}, seed {args.seed}, threads {os.cpu_count()}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']} {metric['unit']}")
    for note in notes:
        print(f"  {note}")
    for problem in run.problems:
        print(f"  FAILED: {problem}")
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
