"""Clone-dedup benchmark: one workload, one result line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Set-up starts a local Ray session
(``RAY_NUM_CPUS`` CPUs), writes the workload's seeded corpus (see
``inputs.py``) and warms the session up.  The timed loop then calls
``clonebas_ray.pipelines.dedup.run_dedup_pipeline`` on the corpus,
at least ``MIN_CALLS`` times and until ``--seconds`` have passed,
checks every call's output (``checks.py``) and reports medians over
the calls.  ``--trace 1`` adds one traced call and an in-process
kernel pass and reports the per-layer metrics instead (``trace.py``).

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
carries the samples, the set-up breakdown and the host certificate;
the full record, spans included, is written under ``.pb/results``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import uuid
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: work area inside the checkout (corpora, run dirs, Ray session files)
WORK = os.path.join(ROOT, ".pb")
#: ``fingerprint_stage`` needs >= 2 CPUs; 2 leaves one parse actor
RAY_NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 * 1024 * 1024
#: the timed loop runs at least this many calls, then until --seconds
MIN_CALLS = 3
#: one pipeline call past this fails the run instead of hanging it
CALL_TIMEOUT_S = 100
#: a run may take this long beyond --seconds: set-up, the call that
#: crosses --seconds, the traced call and its passes, teardown; past
#: it the whole run is aborted
RUN_SLACK_S = 155
#: kept free before the run deadline: a call's timeout is cut short so
#: that a stalled call is still reported before the run is aborted
TEARDOWN_S = 30
#: longest Ray session path under a temp dir: AF_UNIX paths are capped
#: at 107 bytes and Ray appends about this much to the temp dir
_RAY_SOCKET_SUFFIX = 68

END_TO_END = {"wall_s": "s", "files_per_s": "1/s", "cpu_s": "s",
              "driver_peak_rss_mb": "MB", "setup_s": "s"}


class CallTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CallTimeout("pipeline call timed out")


def _stop_session_processes(probes) -> None:
    """SIGKILL whatever the Ray session left behind and wait until
    every such process has ended."""
    pids = probes.session_pids()
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        for pid in pids:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        if not any(os.path.exists(f"/proc/{p}") and _alive(p) for p in pids):
            return
        time.sleep(0.1)


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _watchdog(probes, seconds: float):
    def abort():
        print(f"run exceeded {seconds:.0f} s; aborting", file=sys.stderr,
              flush=True)
        _stop_session_processes(probes)
        os._exit(3)

    timer = threading.Timer(seconds, abort)
    timer.daemon = True
    timer.start()
    return timer


def _file_stamps(path: str) -> dict[str, tuple[int, int, int]]:
    """Path → (inode, mtime_ns, size) of every file under ``path``."""
    out = {}
    for root, _, files in os.walk(path):
        for f in files:
            full = os.path.join(root, f)
            st = os.stat(full)
            out[full] = (st.st_ino, st.st_mtime_ns, st.st_size)
    return out


def _bytes_written(before: dict, after: dict) -> int:
    """Bytes in the files that are new or rewritten since ``before``."""
    return sum(size for path, (ino, mtime, size) in after.items()
               if before.get(path, (None, None))[:2] != (ino, mtime))


def _init_ray():
    import ray
    import ray.data

    temp_dir = os.path.join(WORK, "r")
    if len(temp_dir) + _RAY_SOCKET_SUFFIX > 107:
        print(f"checkout path too long for Ray sockets under {temp_dir}; "
              "using Ray's default temp dir", file=sys.stderr)
        temp_dir = None
    ray.init(address="local", num_cpus=RAY_NUM_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             log_to_driver=False, logging_level="ERROR", _temp_dir=temp_dir)
    ray.data.DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    return ray


class Bench:
    """One run of one workload: set-up, timed calls, checks."""

    def __init__(self, workload: str, seed: int, work: str,
                 n_files: int | None, deadline: float):
        from clonebas_ray.config import PipelineConfig
        from perfbench import inputs

        self.workload = workload
        self.seed = seed
        self.work = work
        self.n_files = n_files
        #: ``time.monotonic()`` at which the watchdog aborts the run
        self.deadline = deadline
        self.shape = inputs.SHAPES[workload]
        self.config = PipelineConfig(block_mode=self.shape.block_mode)
        self.calls: list[dict] = []
        self.setup: dict = {}

    def prepare(self) -> None:
        """Generate the corpus, pin the expected digest, then seed or
        warm up."""
        from clonebas_ray.pipelines.dedup import run_dedup_pipeline
        from perfbench import checks, inputs

        t0 = time.perf_counter()
        self.inputs = inputs.generate(self.workload, self.seed,
                                      os.path.join(self.work, "inputs"),
                                      self.n_files)
        self.setup["generate_s"] = time.perf_counter() - t0

        if self.n_files is None:
            pins = checks.load_pins().get(self.workload, {})
            self.expected = pins.get(str(self.inputs.variant))
        else:
            self.expected = checks.oracle_digest(self.inputs.files,
                                                 self.shape.block_mode)

        t0 = time.perf_counter()
        if self.shape.checkpoint:
            # the seed run checkpoints the first shards with the code
            # under test; every timed call resumes from a fresh copy
            self.seed_dir = os.path.join(self.work, "seeded")
            run_dedup_pipeline(self.inputs.shards[:self.shape.seed_shards],
                               self.seed_dir, config=self.config)
            self.setup["seed_run_s"] = time.perf_counter() - t0
        else:
            # warm the session (worker processes, imports) with one
            # untimed call; a shard-sized warm-up left the first timed
            # call ~5% slower than the rest
            run_dedup_pipeline(self.inputs.input_dir,
                               os.path.join(self.work, "warmup"),
                               config=self.config, checkpoint=False)
            self.setup["warmup_s"] = time.perf_counter() - t0

    def call(self, tracer=None) -> dict:
        """One checked pipeline call (optionally instrumented)."""
        from clonebas_ray.pipelines.dedup import run_dedup_pipeline
        from perfbench import checks, probes, trace

        run_dir = os.path.join(self.work, f"run{len(self.calls)}")
        if self.shape.checkpoint:
            shutil.copytree(self.seed_dir, run_dir)
        stamps = _file_stamps(run_dir)
        rec: dict = {"traced": tracer is not None}
        probes.reset_peak_rss()
        cpu = probes.SessionCpu()
        timeout = int(self.deadline - time.monotonic() - TEARDOWN_S)
        t0 = time.perf_counter()
        signal.alarm(max(1, min(CALL_TIMEOUT_S, timeout)))
        try:
            with cpu, trace.instrument(tracer) if tracer else nullcontext():
                res = run_dedup_pipeline(
                    self.inputs.input_dir, run_dir, config=self.config,
                    checkpoint=self.shape.checkpoint,
                )
            t1 = time.perf_counter()
            signal.alarm(0)
            rec.update(wall_s=t1 - t0, start=t0, end=t1, cpu_s=cpu.seconds,
                       driver_peak_rss_mb=probes.peak_rss_mb())
            ok, detail = checks.check_result(
                res.clusters, checks.high_edges(res, self.config),
                self.inputs.dup_pairs,
                self.expected,
            )
            rec.update(ok=ok, check=detail, metrics=res.metrics,
                       bytes_written=_bytes_written(
                           stamps, _file_stamps(run_dir)))
            rec["result"] = res
        except Exception as exc:  # a failed call is reported, not fatal
            signal.alarm(0)
            t1 = time.perf_counter()
            rec.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                       wall_s=t1 - t0, cpu_s=cpu.seconds,
                       driver_peak_rss_mb=probes.peak_rss_mb())
            print(f"call failed: {rec['error']}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        self.calls.append(rec)
        return rec

    def timed_loop(self, seconds: float) -> None:
        t_begin = time.perf_counter()
        while True:
            rec = self.call()
            rec.pop("result", None)
            if rec.get("error", "").startswith("CallTimeout"):
                break
            if (len(self.calls) >= MIN_CALLS
                    and time.perf_counter() - t_begin >= seconds):
                break

    def end_to_end(self, setup_s: float) -> dict:
        untraced = [c for c in self.calls if not c["traced"]]
        walls = [c["wall_s"] for c in untraced]
        return {
            "wall_s": statistics.median(walls),
            "files_per_s": statistics.median(
                self.inputs.n_files / w for w in walls),
            "cpu_s": statistics.median(c["cpu_s"] for c in untraced),
            "driver_peak_rss_mb": statistics.median(
                c["driver_peak_rss_mb"] for c in untraced),
            "setup_s": setup_s,
        }

    def per_layer(self, tracer, rec: dict) -> dict:
        from perfbench import trace

        res = rec["result"]
        # the shards the traced call fingerprinted
        shards = (tracer.todo_shards if self.shape.checkpoint
                  else self.inputs.shards)
        ingest = trace.ingest_pass(shards) if shards else {
            "ingest.busy_s": 0.0, "ingest.rows_out": 0}
        census = trace.band_census(tracer.sig_groups, self.config)
        kern = trace.kernel_pass(self.inputs.files, self.config, census)
        busy = trace.layer_busy(tracer)
        c = tracer.counts
        untraced = [x for x in self.calls if not x["traced"] and x["ok"]]

        def stage(key):
            return trace.median([x["metrics"].get(key, 0.0) for x in untraced])

        rows_in = ingest["ingest.rows_out"]
        near = c.get("candidates.near_edges", 0)
        m = {
            **ingest,
            "fingerprint.busy_s": busy.get("fingerprint", 0.0),
            "fingerprint.rows_in": rows_in,
            "fingerprint.units_out": c.get("fingerprint.units_out", 0),
            "fingerprint.files_per_s": (
                rows_in / busy["fingerprint"] if busy.get("fingerprint")
                else 0.0),
            **kern,
            "candidates.sig_groups_s": tracer.total("candidates.sig_groups"),
            "candidates.distinct_sigs": c.get("candidates.distinct_sigs", 0),
            "candidates.edges_s": tracer.total("candidates.edges"),
            "candidates.band_rows": census["band_rows"],
            "candidates.pairs_examined": census["pairs_examined"],
            "candidates.near_edges": near,
            "candidates.verify_yield": (
                near / census["pairs_examined"]
                if census["pairs_examined"] else 0.0),
            "candidates.max_bucket": census["max_bucket"],
            "candidates.max_partition_rows": census["max_partition_rows"],
            "candidates.membership_s": tracer.total("candidates.membership"),
            "candidates.membership_edges":
                c.get("candidates.membership_edges", 0),
            "cluster.edge_pull_s": res.metrics.get("edge_pull_s", 0.0),
            "cluster.union_find_s": tracer.total("cluster.union_find"),
            "cluster.union_find_edges": c.get("cluster.union_find_edges", 0),
            "cluster.refine_s": tracer.total("cluster.refine"),
            "cluster.components": c.get("cluster.components", 0),
            "cluster.max_component": c.get("cluster.max_component", 0),
            "cluster.block_refine_s": tracer.total("cluster.block_refine"),
            "cluster.clusters_out": res.metrics.get("n_clusters", 0),
            "stats.busy_s": busy.get("stats", 0.0),
            "checkpoint.shards_cached":
                res.metrics.get("fingerprint_shards_cached", 0),
            "checkpoint.shards_computed": len(tracer.shard_walls),
            "checkpoint.shard_s": trace.median(tracer.shard_walls),
            "checkpoint.bytes_written": rec["bytes_written"],
            "checkpoint.bytes_read": c.get("checkpoint.bytes_read", 0),
            "stage.fingerprint_s": stage("fingerprint_s"),
            "stage.edges_s": stage("edges_s"),
            "stage.cluster_s": stage("cluster_s"),
            "stage.stats_s": stage("stats_s"),
            "trace.overhead_s": rec["wall_s"] - trace.median(
                [x["wall_s"] for x in untraced]),
            "trace.coverage": tracer.coverage(rec["start"], rec["end"]),
        }
        missing = set(trace.LAYER_METRICS) ^ set(m)
        if missing:
            raise RuntimeError(f"per-layer metric mismatch: {sorted(missing)}")
        return m


def _json_safe(value):
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--files", type=int, default=None,
                    help="corpus size override for small runs; the "
                         "expected digest then comes from the oracle")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "clonebas_ray")):
        print(f"clonebas_ray not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    # Ray workers inherit the environment, not the driver's sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    from perfbench import inputs, probes, trace

    if args.workload not in inputs.SHAPES:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(inputs.SHAPES)}", file=sys.stderr)
        return 2

    run_id = uuid.uuid4().hex[:12]
    work = os.path.join(WORK, f"w{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run_s = args.seconds + RUN_SLACK_S
    deadline = time.monotonic() + run_s
    watchdog = _watchdog(probes, run_s)
    signal.signal(signal.SIGALRM, _on_alarm)
    ray = None
    try:
        t0 = time.perf_counter()
        import clonebas_ray.pipelines.dedup  # noqa: F401  (import cost)
        import_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        ray = _init_ray()
        init_s = time.perf_counter() - t0
        host = probes.host_certificate(RAY_NUM_CPUS)

        bench = Bench(args.workload, args.seed, work, args.files, deadline)
        bench.prepare()
        setup = dict(bench.setup, import_s=import_s, ray_init_s=init_s)
        setup_s = (import_s + init_s + setup["generate_s"]
                   + setup.get("seed_run_s", 0.0) + setup.get("warmup_s", 0.0))

        bench.timed_loop(args.seconds)
        spans, self_times = [], {}
        if args.trace:
            tracer = trace.Tracer(run_id)
            rec = bench.call(tracer)
            spans, self_times = tracer.dump(), tracer.self_times()
            values = (bench.per_layer(tracer, rec) if rec["ok"]
                      else {k: 0.0 for k in trace.LAYER_METRICS})
            rec.pop("result", None)
            units = trace.LAYER_METRICS
        else:
            values = bench.end_to_end(setup_s)
            units = END_TO_END
    finally:
        session_dir = None
        if ray is not None and ray.is_initialized():
            session_dir = ray._private.worker._global_node.get_session_dir_path()
            ray.shutdown()
        _stop_session_processes(probes)
        watchdog.cancel()
        shutil.rmtree(work, ignore_errors=True)
        if session_dir and session_dir.startswith(WORK):
            shutil.rmtree(session_dir, ignore_errors=True)

    failed = sum(1 for c in bench.calls if not c["ok"])
    record = {
        "workload": args.workload, "seed": args.seed,
        "variant": bench.inputs.variant, "files": bench.inputs.n_files,
        "run_id": run_id, "host": host, "setup": setup, "setup_s": setup_s,
        "calls": bench.calls, "spans": spans, "self_times": self_times,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out = os.path.join(
        WORK, "results",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json")
    with open(out, "w") as f:
        json.dump(_json_safe(record), f, indent=1)
    summary = {k: v for k, v in record.items()
               if k not in ("calls", "spans", "self_times")}
    summary["samples"] = [
        {k: c.get(k) for k in ("traced", "wall_s", "cpu_s",
                               "driver_peak_rss_mb", "ok", "error")}
        for c in bench.calls
    ]
    print(json.dumps(_json_safe(summary)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.calls),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
