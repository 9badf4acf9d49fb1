#!/usr/bin/env python3
"""The repo benchmark: end-to-end runs of the release `harness`, and a
traced per-layer run through the crates' public functions.

    python3 perfbench/run.py --workload sweep|cache-rerun|refine-sharded \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. It builds the release `harness` and the
traced driver (`perfbench/driver`) into `$CARGO_TARGET_DIR` (default
`.bench_build`), then:

- `--trace 0` times the workload's harness command, with tracing off,
  as often as `--seconds` allows, checks every sample's stdout against a
  reference, and reports the end-to-end metrics;
- `--trace 1` runs the driver over the same inputs for the per-layer
  metrics, checks its rendered stdout against the harness's, and times
  the harness with and without `--stats-json`/`--trace`.

Human-readable lines go first; the last stdout line is one JSON object
with `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
only when every output was correct. Scratch files live under
`.bench_scratch/` and are removed before exit. See README.md for the
workloads and the layer-to-metric map.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

THREADS = 2
SHARDS = 2
# Per-process limit; a stuck sample is killed and counted as failed.
PROCESS_TIMEOUT_S = 60.0
# Timed samples per run: at least MIN_SAMPLES (past `--seconds` if need
# be), at most MAX_SAMPLES however short they are.
MIN_SAMPLES = 3
MAX_SAMPLES = 200
# Set-ups per run on the workloads whose set-up is the reference run.
REFERENCE_REPEATS = {"sweep": 3, "refine-sharded": 9}
# Share of `--seconds` the traced run gives the driver; the rest goes to
# the tracing-overhead pairs.
DRIVER_SHARE = 0.6

WORKLOADS = {
    "sweep": 20000,
    "cache-rerun": 2000,
    "refine-sharded": 200,
}

END_TO_END = [
    ("wall_s", "s", "lower"),
    ("cells_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("key.intern_s", "s", "lower"),
    ("key.bytes_per_key", "B", "lower"),
    ("exec.explore_s", "s", "lower"),
    ("exec.eval_s", "s", "lower"),
    ("exec.series_eval_p50_s", "s", "lower"),
    ("exec.series_eval_max_s", "s", "lower"),
    ("exec.cells_evaluated", "count", "lower"),
    ("exec.unattributed_s", "s", "lower"),
    ("store.frontier_replay_s", "s", "lower"),
    ("store.frontier_size", "count", "lower"),
    ("store.frontier_inserts", "count", "lower"),
    ("store.frontier_evictions", "count", "lower"),
    ("store.assemble_s", "s", "lower"),
    ("cache.load_s", "s", "lower"),
    ("cache.save_s", "s", "lower"),
    ("cache.fill_save_s", "s", "lower"),
    ("cache.file_bytes", "B", "lower"),
    ("cache.bytes_per_cell", "B", "lower"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.lookup_p50_s", "s", "lower"),
    ("cache.lookup_p99_s", "s", "lower"),
    ("cache.records_decoded", "count", "lower"),
    ("report.render_s", "s", "lower"),
    ("report.stdout_bytes", "B", "lower"),
    ("refine.total_s", "s", "lower"),
    ("refine.engine_s", "s", "lower"),
    ("refine.rounds", "count", "lower"),
    ("refine.knees", "count", "lower"),
    ("refine.rates_appended", "count", "lower"),
    ("shard.round_s", "s", "lower"),
    ("shard.spawn_s", "s", "lower"),
    ("shard.wait_s", "s", "lower"),
    ("shard.merge_s", "s", "lower"),
    ("shard.fixed_s", "s", "lower"),
    ("shard.merge_bytes", "B", "lower"),
    ("shard.workers_spawned", "count", "lower"),
    ("shard.leases_issued", "count", "lower"),
    ("shard.leases_reclaimed", "count", "lower"),
    ("shard.worker_wall_p50_s", "s", "lower"),
    ("telemetry.trace_overhead_s", "s", "lower"),
    ("self.exec_s", "s", "lower"),
    ("self.store_s", "s", "lower"),
    ("self.cache_s", "s", "lower"),
    ("self.report_s", "s", "lower"),
    ("self.refine_s", "s", "lower"),
    ("self.shard_s", "s", "lower"),
    ("trace.workload_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
]

# Span totals reported under a metric name.
SPAN_TOTALS = {
    "key.intern_s": "key.intern",
    "exec.explore_s": "exec.explore",
    "exec.eval_s": "exec.eval",
    "store.frontier_replay_s": "store.frontier_replay",
    "store.assemble_s": "store.assemble",
    "cache.load_s": "cache.load",
    "cache.save_s": "cache.save",
    "cache.fill_save_s": "fill.save",
    "report.render_s": "report.render",
    "refine.total_s": "refine.total",
    "shard.round_s": "shard.round",
    "shard.spawn_s": "shard.spawn",
    "shard.wait_s": "shard.wait",
    "shard.merge_s": "shard.merge",
    "trace.workload_s": "workload",
}

# Self times reported under a metric name: the span minus its children.
SPAN_SELF = {
    "exec.unattributed_s": "exec.explore",
    "refine.engine_s": "refine.total",
    "shard.fixed_s": "shard.round",
}

SELF_LAYERS = ["exec", "store", "cache", "report", "refine", "shard"]

# Measured by the runner itself, from harness runs with and without tracing.
OVERHEAD = "telemetry.trace_overhead_s"


class BenchError(Exception):
    """A failure that ends the run without a result."""


CACHE_LINE = r"cache: (\d+) hits, (\d+) misses"


def count(pattern, sample):
    """The integers `pattern` captures in a harness sample's stderr."""
    match = re.search(pattern, sample.stderr)
    if not match:
        raise BenchError(f"no `{pattern}` line in the harness's stderr")
    return [int(g) for g in match.groups()]


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def layer_metrics(nodes, values):
    """The per-layer metrics of one driver iteration, from its spans and
    values."""
    own = stats.self_times(nodes)
    inside = stats.in_subtree(nodes, "workload")
    metrics = {}
    for metric, span in SPAN_TOTALS.items():
        metrics[metric] = sum(n["seconds"] for n in nodes if n["name"] == span)
    for metric, span in SPAN_SELF.items():
        metrics[metric] = sum(s for n, s in zip(nodes, own) if n["name"] == span)
    for layer in SELF_LAYERS:
        metrics[f"self.{layer}_s"] = sum(
            s
            for n, s, i in zip(nodes, own, inside)
            if i and n["name"].split(".")[0] == layer
        )
    has_children = {n["parent"] for n in nodes if n["parent"] is not None}
    metrics["trace.unattributed_s"] = sum(
        s for k, (s, i) in enumerate(zip(own, inside)) if i and k in has_children
    )
    # The rest are the driver's values; a layer the workload does not
    # touch reads 0.
    for name, _, _ in PER_LAYER:
        if name not in metrics and name != OVERHEAD:
            metrics[name] = values.get(name, 0)
    return metrics


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Sample:
    """One finished process: wall time, peak RSS, exit code, output."""

    def __init__(self, wall_s, rss_mb, code, stdout_path, stderr_text):
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.code = code
        self.stdout_path = stdout_path
        self.stderr = stderr_text

    def digest(self):
        return sha256_file(self.stdout_path)


class Bench:
    def __init__(self, root, workload, seed, seconds):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.rates = stats.rates_for_seed(WORKLOADS[workload], seed)
        target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.target = os.path.join(root, target)
        self.harness = os.path.join(self.target, "release", "harness")
        self.driver = os.path.join(self.target, "release", "perfbench-driver")
        self.scratch = os.path.join(root, ".bench_scratch", f"{workload}-{os.getpid()}")
        self.env = dict(os.environ, TMPDIR=self.scratch)
        self.attempted = 0
        self.failed = 0
        self.cache_format = None

    # -- processes -----------------------------------------------------

    def spawn(self, argv, name):
        """Runs `argv` in the scratch directory with stdout and stderr in
        files, returning its Sample. The whole process group is killed
        after PROCESS_TIMEOUT_S."""
        out_path = os.path.join(self.scratch, f"{name}.out")
        err_path = os.path.join(self.scratch, f"{name}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            started = time.perf_counter()
            child = subprocess.Popen(
                argv,
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                cwd=self.scratch,
                env=self.env,
                start_new_session=True,
            )
            killer = threading.Timer(PROCESS_TIMEOUT_S, kill_group, (child.pid,))
            killer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        with open(err_path, encoding="utf-8", errors="replace") as f:
            stderr_text = f.read()
        return Sample(wall, usage.ru_maxrss / 1024.0, child.returncode, out_path, stderr_text)

    def timed_command(self):
        grid = [self.harness, "grid", "--rates", str(self.rates), "--threads", str(THREADS)]
        if self.workload == "sweep":
            return grid
        if self.workload == "cache-rerun":
            return grid + ["--cache", self.cache_path()]
        return [self.harness, "refine", "--rates", str(self.rates), "--shards", str(SHARDS)]

    def reference_command(self):
        if self.workload == "sweep":
            return [self.harness, "grid", "--rates", str(self.rates), "--threads", "1"]
        if self.workload == "cache-rerun":
            return [self.harness, "grid", "--rates", str(self.rates), "--threads", str(THREADS)]
        return [self.harness, "refine", "--rates", str(self.rates)]

    def cache_path(self):
        return os.path.join(self.scratch, "grid.cache")

    def remove_cache(self):
        if os.path.exists(self.cache_path()):
            os.remove(self.cache_path())

    def clean_shard_scratch(self):
        """Removes shard scratch directories a run left in TMPDIR."""
        for entry in os.listdir(self.scratch):
            if entry.startswith("memstream-shard-"):
                shutil.rmtree(os.path.join(self.scratch, entry), ignore_errors=True)

    # -- checks ----------------------------------------------------------

    def check(self, sample, reference_digest, what):
        """Counts one attempted sample; returns whether it was correct."""
        self.attempted += 1
        ok = sample.code == 0 and sample.digest() == reference_digest
        if not ok:
            self.failed += 1
            why = f"exit {sample.code}" if sample.code else "stdout differs from the reference"
            print(f"FAILED {what}: {why}", file=sys.stderr)
            sys.stderr.write(sample.stderr[-2000:])
        return ok

    def cells(self, sample):
        """Unique cells the sample resolved, from the harness's own
        accounting on stderr."""
        if self.workload == "sweep":
            return count(r"exploring (\d+) cells", sample)[0]
        if self.workload == "cache-rerun":
            return sum(count(CACHE_LINE, sample))
        return count(r"refine cache: \d+ hits, (\d+) misses", sample)[0]

    # -- phases ----------------------------------------------------------

    def build(self):
        env = dict(os.environ, CARGO_TARGET_DIR=self.target)
        for argv in (
            ["cargo", "build", "--release", "--offline", "-p", "memstream-bench", "--bin", "harness"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             os.path.join("perfbench", "driver", "Cargo.toml")],
        ):
            done = subprocess.run(argv, cwd=self.root, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if done.returncode != 0:
                raise BenchError(f"build failed: {' '.join(argv)}")

    def references(self, repeats):
        """Runs the reference command `repeats` times; every run must
        succeed with the same stdout. Returns (digest, wall times)."""
        digests, walls = set(), []
        for i in range(repeats):
            sample = self.spawn(self.reference_command(), f"reference-{i}")
            if sample.code != 0:
                raise BenchError(f"reference run exited {sample.code}:\n{sample.stderr[-2000:]}")
            digests.add(sample.digest())
            walls.append(sample.wall_s)
            self.clean_shard_scratch()
        if len(digests) != 1:
            raise BenchError("reference runs disagree with each other")
        return digests.pop(), walls

    def fill(self, reference_digest):
        """The cache-rerun set-up: a run from an empty cache file, which
        must miss on every cell. Returns its wall time."""
        self.remove_cache()
        sample = self.spawn(self.timed_command(), "fill")
        if self.check(sample, reference_digest, "fill"):
            hits, misses = count(CACHE_LINE, sample)
            if hits != 0 or misses == 0:
                raise BenchError(f"fill expected only misses, saw {hits} hits, {misses} misses")
        if self.cache_format is None and os.path.exists(self.cache_path()):
            with open(self.cache_path(), "rb") as f:
                self.cache_format = f.readline(64).decode("ascii", "replace").strip()
        return sample.wall_s

    def timed_sample(self, reference_digest, name="timed", extra=()):
        """One sample of the timed command; returns it when correct."""
        sample = self.spawn(self.timed_command() + list(extra), name)
        self.clean_shard_scratch()
        if not self.check(sample, reference_digest, name):
            return None
        if self.workload == "cache-rerun":
            _, misses = count(CACHE_LINE, sample)
            if misses != 0:
                raise BenchError(f"warm re-run missed {misses} cells")
        return sample

    def end_to_end(self):
        reference, reference_walls = self.references(REFERENCE_REPEATS.get(self.workload, 1))
        samples = {"wall_s": [], "cells_per_s": [], "peak_rss_mb": [],
                   "setup_s": [] if self.workload == "cache-rerun" else reference_walls}
        deadline = time.perf_counter() + self.seconds
        tries = 0
        while (time.perf_counter() < deadline or tries < MIN_SAMPLES) and tries < MAX_SAMPLES:
            tries += 1
            if self.workload == "cache-rerun":
                samples["setup_s"].append(self.fill(reference))
            sample = self.timed_sample(reference)
            if sample is not None:
                samples["wall_s"].append(sample.wall_s)
                samples["cells_per_s"].append(self.cells(sample) / sample.wall_s)
                samples["peak_rss_mb"].append(sample.rss_mb)
        if not samples["wall_s"]:
            raise BenchError("no sample succeeded")
        self.remove_cache()
        for name in ("wall_s", "setup_s"):
            q1, q2, q3 = stats.quartiles(samples[name])
            print(f"{name} samples: n={len(samples[name])} q1={q1:.4f} median={q2:.4f} q3={q3:.4f}")
        return {name: (stats.median(samples[name]), unit) for name, unit, _ in END_TO_END}

    def traced(self):
        reference, _ = self.references(1)
        driver_json = os.path.join(self.scratch, "driver.json")
        driver_out = os.path.join(self.scratch, "driver.stdout")
        budget = self.seconds * DRIVER_SHARE
        started = time.perf_counter()
        sample = self.spawn(
            [self.driver, "--workload", self.workload, "--rates", str(self.rates),
             "--harness", self.harness, "--cache", os.path.join(self.scratch, "driver.cache"),
             "--seconds", str(budget), "--stdout", driver_out, "--out", driver_json],
            "driver",
        )
        self.clean_shard_scratch()
        if sample.code != 0:
            raise BenchError(f"driver exited {sample.code}:\n{sample.stderr[-2000:]}")
        self.attempted += 1
        if sha256_file(driver_out) != reference:
            self.failed += 1
            print("FAILED driver: rendered stdout differs from the harness's", file=sys.stderr)
        with open(driver_json, encoding="utf-8") as f:
            iterations = json.load(f)["iterations"]
        per_iteration = [layer_metrics(it["spans"], it["values"]) for it in iterations]
        print(f"driver iterations: {len(per_iteration)}")

        # Tracing overhead: the timed command with and without
        # --stats-json/--trace, alternating which goes first.
        trace_flags = ["--stats-json", os.path.join(self.scratch, "stats.json"),
                       "--trace", os.path.join(self.scratch, "trace.json")]
        plain, traced = [], []
        deadline = started + self.seconds
        pairs = 0
        while (time.perf_counter() < deadline or pairs == 0) and pairs < MAX_SAMPLES:
            pairs += 1
            for with_trace in (False, True) if pairs % 2 else (True, False):
                if self.workload == "cache-rerun":
                    self.fill(reference)
                extra = trace_flags if with_trace else []
                sample = self.timed_sample(reference, "overhead", extra)
                if sample is not None:
                    (traced if with_trace else plain).append(sample.wall_s)
        self.remove_cache()
        metrics = {}
        for name, unit, _ in PER_LAYER:
            if name == OVERHEAD:
                value = (stats.median(traced) - stats.median(plain)) if traced and plain else 0.0
            else:
                value = stats.median([m[name] for m in per_iteration])
            metrics[name] = (value, unit)
        return metrics

    def provenance(self):
        commit = None
        if os.path.exists(os.path.join(self.root, ".git")):
            try:
                commit = subprocess.run(
                    ["git", "rev-parse", "HEAD"], cwd=self.root, capture_output=True, text=True
                ).stdout.strip() or None
            except OSError:
                pass
        return {
            "git_commit": commit,
            "source_sha256": source_digest(self.root),
            "host": platform.node(),
            "machine": platform.machine(),
            "nproc": len(os.sched_getaffinity(0)),
            "workload": self.workload,
            "seed": self.seed,
            "rates": {w: stats.rates_for_seed(b, self.seed) for w, b in WORKLOADS.items()},
            # refine-sharded passes no --threads: the harness uses the
            # machine width and splits it across the shard workers.
            "threads": THREADS if self.workload != "refine-sharded" else os.cpu_count(),
            "shards": SHARDS if self.workload == "refine-sharded" else 0,
            "profile": "release",
            "cache_format": self.cache_format,
            "seconds": self.seconds,
        }


def source_digest(root):
    """sha256 over the program's sources: the workspace manifests and
    every file under `src/` and `crates/`, in path order."""
    digest = hashlib.sha256()
    paths = [p for p in ("Cargo.toml", "Cargo.lock") if os.path.isfile(os.path.join(root, p))]
    for top in ("src", "crates"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames.sort()
            for name in sorted(filenames):
                paths.append(os.path.relpath(os.path.join(dirpath, name), root))
    for rel in paths:
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update(sha256_file(os.path.join(root, rel)).encode())
    return digest.hexdigest()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv):
    args = parse_args(argv)
    root = os.getcwd()
    for required in ("Cargo.toml", os.path.join("crates", "bench", "Cargo.toml"),
                     os.path.join("perfbench", "driver", "Cargo.toml")):
        if not os.path.isfile(os.path.join(root, required)):
            print(f"perfbench: {required} not found; run from the repository root",
                  file=sys.stderr)
            return 2
    bench = Bench(root, args.workload, args.seed, args.seconds)
    try:
        bench.build()
        shutil.rmtree(bench.scratch, ignore_errors=True)
        os.makedirs(bench.scratch)
        metrics = bench.traced() if args.trace else bench.end_to_end()
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.scratch))
        except OSError:
            pass
    print("provenance: " + json.dumps(bench.provenance(), sort_keys=True))
    print(f"fail_frac: {stats.fail_frac(bench.failed, bench.attempted):.4f} "
          f"({bench.failed} of {bench.attempted} samples)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
