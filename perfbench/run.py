#!/usr/bin/env python3
"""Same-host benchmark of the Mosaic pipeline: campaign, fit, predict.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid-full --seed 1 \\
        --seconds 30 --trace 0

It builds the shipped tools and the traced-run program into
.bench_build (see perfbench/CMakeLists.txt), then repeats the
workload's pipeline for --seconds seconds:

  1. mosaic_campaign produces the workload's dataset CSV;
  2. mosaic_serve is launched over it five times, and each launch is
     stopped once it accepts a connection: the set-up samples;
  3. one client pipelines a PREDICT for every row to the run's daemon,
     started over the first CSV. Its first pass fits every pair; later
     passes are warm. The fit pass is timed and printed, but it is not
     a reported metric: it is too unsteady on a shared host (see
     perfbench/README.md).

Every output is checked (see perfbench/README.md). --trace 1 instead
runs one untraced pipeline and then perfbench_trace, which runs the
same pipeline in process with a span around every layer call, and
reports per-layer numbers. The last line of standard output is the
JSON result.
"""

import argparse
import fcntl
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ beside the sources

import benchlib  # noqa: E402

BUILD = ROOT / ".bench_build"
DATASET = ROOT / "mosaic_dataset.csv"
PLATFORMS = ["SandyBridge", "Broadwell"]

#: Frame pool of grid-paged: 192 MiB, below both workloads' footprint
#: (demand faults, evictions and writebacks all occur) but above the
#: point where every fault evicts.
PAGED_FRAMES = 49152

WORKLOADS = {
    "grid-full": {
        "workloads": ["gups/8GB", "spec06/mcf", "gapbs/bc-twitter"],
        "flags": [],
        "reference": DATASET,
        "exact": True,
        "model": "mosmodel",
    },
    "grid-sampled": {
        "workloads": ["graph500/8GB", "gapbs/pr-twitter"],
        "flags": ["--sample-mode", "interval"],
        "reference": DATASET,
        "exact": False,
        "model": "mosmodel",
    },
    "grid-paged": {
        "workloads": ["spec06/mcf", "xsbench/4GB"],
        "flags": ["--mem-frames", str(PAGED_FRAMES),
                  "--replacement", "clock", "--no-1gb"],
        "reference": HERE / "reference" / "grid-paged.csv",
        "exact": True,
        "model": "mosmodel-s",
    },
    # The committed paper-grid dataset is complete, so its campaign is
    # a --resume that only loads, validates and re-saves it.
    "predict": {
        "workloads": None,
        "flags": ["--resume"],
        "reference": DATASET,
        "exact": True,
        "model": "mosmodel",
    },
}

END_TO_END = [
    ("setup_s", "s"), ("campaign_s", "s"), ("predict_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("r_accuracy_min_pct", "%"), ("est_err_coverage_pct", "%"),
    ("mosmodel_err_max_pct", "%"),
]

MIN_REPS = 3
RESUME_REPEATS = 15     # the predict campaign takes ~30 ms; take a median
WARM_SECONDS = 0.4      # warm predict passes per repetition
SETUP_REPEATS = 5       # set-up-only daemon launches per repetition
WARM_MIN_REQUESTS = 2000
SERVE_JOBS = 2
CHILD_TIMEOUT = 150


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------- build

def build(jobs):
    """Configure once, then build the three targets (a no-op when up
    to date). Serialized by a lock so concurrent runs share one tree."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    with open(BUILD / ".lock", "w") as lock, open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
        steps.append(["cmake", "--build", str(BUILD), "-j", str(jobs),
                      "--target", "mosaic_campaign", "mosaic_serve",
                      "perfbench_trace"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                tail = log_path.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))
    return {
        "campaign": BUILD / "mosaic" / "tools" / "mosaic_campaign",
        "serve": BUILD / "mosaic" / "tools" / "mosaic_serve",
        "trace": BUILD / "perfbench_trace",
    }


# ----------------------------------------------------------- processes

class Child:
    """A child process with a kill-on-timeout watchdog, reaped with
    wait4 so its own peak RSS is known."""

    def __init__(self, argv, **popen):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen([str(a) for a in argv], **popen)
        self.watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self.watchdog.start()

    def reap(self):
        """Wait; returns (exit status, wall seconds, peak RSS in MB)."""
        _, status, usage = os.wait4(self.proc.pid, 0)
        wall = time.perf_counter() - self.started
        self.watchdog.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        return self.proc.returncode, wall, usage.ru_maxrss / 1024.0

    def stop(self):
        if self.proc.returncode is None:
            self.await_handler(signal.SIGTERM)
            self.proc.send_signal(signal.SIGTERM)
        return self.reap()

    def await_handler(self, signum, limit=5.0):
        """Wait until the child catches @p signum. mosaic_serve installs
        its SIGTERM handler just after it prints that it listens, so a
        daemon stopped right after it accepts could otherwise die of the
        signal instead of draining and exiting 0."""
        bit = 1 << (signum - 1)
        deadline = time.perf_counter() + limit
        while time.perf_counter() < deadline:
            try:
                status = Path(f"/proc/{self.proc.pid}/status").read_text()
            except OSError:
                return
            caught = next((line.split()[1] for line in status.splitlines()
                           if line.startswith("SigCgt:")), "0")
            if int(caught, 16) & bit or self.proc.poll() is not None:
                return
            time.sleep(0.001)


def run_tool(argv, log):
    child = Child(argv, stdout=log, stderr=log)
    return child.reap()


# ------------------------------------------------------------- campaign

def campaign_argv(tools, spec, rng, out, manifest, jobs):
    """The workload's campaign command line; the seed orders the
    workload and platform lists (the CSV is canonical either way)."""
    if spec["workloads"]:
        workloads, platforms = list(spec["workloads"]), list(PLATFORMS)
    else:
        keys = reference(DATASET)[0]
        workloads = sorted({k[1] for k in keys})
        platforms = sorted({k[0] for k in keys})
    rng.shuffle(workloads)
    rng.shuffle(platforms)
    return [tools["campaign"], "--workloads", ",".join(workloads),
            "--platforms", ",".join(platforms), "--jobs", jobs,
            *spec["flags"], "--out", out, "--metrics-out", manifest]


def campaign_setup(manifest):
    """Wall seconds the campaign spent before its cells: trace
    generation, miss profile, layout derivation and sample plan (or,
    for a resume, the dataset load). That is its total less the busiest
    worker's cell time, the checkpoints and the final save. Workloads
    are prepared in parallel, so this is the wait a user sees, not the
    per-workload sum (the traced run reports those per layer)."""
    phases = manifest["phases"]
    busy = [v["seconds"] for k, v in phases.items()
            if k.startswith("campaign/worker/")]

    def seconds(name):
        return phases.get(name, {}).get("seconds", 0.0)

    return (seconds("campaign/total") - max(busy, default=0.0)
            - seconds("campaign/checkpoint") - seconds("campaign/save"))


def run_campaign(tools, spec, rng, work, tag, jobs, log):
    """One campaign; returns its CSV path and measurements."""
    out = work / f"{tag}.csv"
    manifest_path = work / f"{tag}.json"
    if not spec["workloads"]:
        shutil.copyfile(DATASET, out)
    argv = campaign_argv(tools, spec, rng, out, manifest_path, jobs)
    status, wall, rss = run_tool(argv, log)
    manifest = json.loads(manifest_path.read_text()) \
        if manifest_path.exists() else None
    return {"csv": out, "status": status, "wall": wall, "rss": rss,
            "manifest": manifest,
            "setup": campaign_setup(manifest) if manifest else 0.0}


# ---------------------------------------------------------------- serve

def request_lines(rows, model, rng):
    """One PREDICT per row by its measured (h, m, c[, s]), in a seeded
    order; returns (payload bytes, measured R per request)."""
    keys = sorted(rows)
    rng.shuffle(keys)
    lines = []
    measured = []
    for key in keys:
        row = rows[key]
        line = (f"PREDICT {row['platform']} {row['workload']} "
                f"h={row['h']} m={row['m']} c={row['c']}")
        if model != "mosmodel":
            line += f" s={row['s']} model={model}"
        lines.append(line + "\n")
        measured.append(float(row["runtime"]))
    return "".join(lines).encode(), measured


def exchange(sock, payload, count):
    """Pipeline @p payload on one connection and read @p count answer
    lines; the send runs on a thread so neither side's buffer stalls."""
    sender = threading.Thread(target=sock.sendall, args=(payload,))
    sender.start()
    chunks = []
    seen = 0
    while seen < count:
        data = sock.recv(1 << 20)
        if not data:
            break
        chunks.append(data)
        seen += data.count(b"\n")
    sender.join()
    return b"".join(chunks).split(b"\n")[:count]


class Daemon:
    """mosaic_serve over one CSV with one client connection. A daemon
    or request that fails counts as a failed operation, never as a
    crash; take_counts() hands the tallies to the caller."""

    def __init__(self, tools, csv_path, log):
        self.log = log
        self.attempted, self.failed = 1, 0
        self.sock = None
        self.setup = None
        self.child = Child([tools["serve"], "--dataset", csv_path,
                            "--port", "0", "--jobs", SERVE_JOBS,
                            "--no-cold"],
                           stdout=subprocess.PIPE, stderr=log)
        try:
            line = self.child.proc.stdout.readline().decode()
            if "listening on tcp:" not in line:
                raise RuntimeError(f"mosaic_serve did not start: {line!r}")
            port = int(line.split("tcp:")[1].split()[0])
            self.sock = socket.create_connection(("127.0.0.1", port),
                                                 timeout=60)
            self.setup = time.perf_counter() - self.child.started
        except (OSError, RuntimeError, ValueError) as error:
            self.error(error)

    def error(self, error):
        print(f"  serve: {error}", file=self.log, flush=True)
        self.failed += 1
        if self.sock:
            self.sock.close()
            self.sock = None

    def take_counts(self):
        counts = (self.attempted, self.failed)
        self.attempted = self.failed = 0
        return counts

    def first_pass(self, payload, measured):
        """Time the first pass, which fits every pair; returns
        {fit, answers, err_max}, empty if the daemon is gone."""
        if not self.sock:
            return {}
        try:
            t0 = time.perf_counter()
            answers = exchange(self.sock, payload, len(measured))
            fit = time.perf_counter() - t0
        except OSError as error:
            self.error(error)
            return {}
        bad, worst = benchlib.prediction_errors(answers, measured)
        self.attempted += len(measured)
        self.failed += bad
        return {"fit": fit, "err_max": worst,
                "answers": [benchlib.parse_answer(a) for a in answers]}

    def warm_rate(self, payload, measured):
        """Median rate of warm passes of at least WARM_MIN_REQUESTS
        requests over WARM_SECONDS (at least three); None if the daemon
        is gone."""
        copies = max(1, -(-WARM_MIN_REQUESTS // max(len(measured), 1)))
        count = len(measured) * copies
        rates = []
        start = time.perf_counter()
        while self.sock and (len(rates) < 3 or
                             time.perf_counter() - start < WARM_SECONDS):
            try:
                t0 = time.perf_counter()
                answers = exchange(self.sock, payload * copies, count)
                rates.append(count / (time.perf_counter() - t0))
            except OSError as error:
                self.error(error)
                return None
            bad, _ = benchlib.prediction_errors(answers, measured * copies)
            self.attempted += count
            self.failed += bad
        return statistics.median(rates) if rates else None

    def peak_rss_mb(self):
        """Peak RSS so far, while the daemon runs."""
        try:
            status = Path(f"/proc/{self.child.proc.pid}/status").read_text()
        except OSError:
            return 0.0
        return next((int(line.split()[1]) / 1024.0
                     for line in status.splitlines()
                     if line.startswith("VmHWM:")), 0.0)

    def stop(self):
        """Stop the daemon; returns its peak RSS in MB."""
        if self.sock:
            self.sock.close()
            self.sock = None
        status, _, rss = self.child.stop()
        self.failed += status != 0
        return rss


# ------------------------------------------------------------- pipeline

_REFERENCES = {}


def reference(path):
    """(raw line, dict row) maps of a reference CSV, parsed once."""
    if path not in _REFERENCES:
        _REFERENCES[path] = benchlib.parse_csv(path.read_text())[1:]
    return _REFERENCES[path]


def expected_rows(spec):
    """Reference rows for the workload's pairs."""
    ref_raw, ref_rows = reference(spec["reference"])
    if spec["workloads"] is None:
        return ref_raw, ref_rows
    keep = {k for k in ref_raw
            if k[0] in PLATFORMS and k[1] in spec["workloads"]}
    return ({k: ref_raw[k] for k in keep}, {k: ref_rows[k] for k in keep})


def pipeline(tools, name, seed, rep, work, jobs, log, state):
    """One repetition of the workload's pipeline: measurements, checks
    and the files the traced run reuses. @p state carries what outlives
    a repetition: the run's fitted daemon."""
    spec = WORKLOADS[name]
    rng = random.Random(f"{name}/{seed}/{rep}")
    repeats = RESUME_REPEATS if spec["workloads"] is None else 1
    runs = [run_campaign(tools, spec, rng, work, f"rep{rep}-{i}", jobs,
                         log) for i in range(repeats)]
    camp = runs[-1]
    attempted = failed = 0
    for run in runs:
        attempted += 1
        failed += run["status"] != 0 or run["manifest"] is None
    if spec["workloads"] is None:
        # A resume must leave the complete dataset byte-identical.
        committed = DATASET.read_bytes()
        for run in runs:
            attempted += 1
            failed += (not run["csv"].exists() or
                       run["csv"].read_bytes() != committed)

    text = camp["csv"].read_text() if camp["csv"].exists() else ""
    header, out_raw, out_rows = benchlib.parse_csv(text)
    ref_raw, ref_rows = expected_rows(spec)
    check = benchlib.match_rows(out_raw, out_rows, ref_raw, ref_rows,
                                spec["exact"])
    attempted += check["attempted"]
    failed += check["failed"]
    if "s" in header:
        over = benchlib.swap_bounded(out_rows)
        attempted += len(out_rows)
        failed += len(over)
    if check["mismatches"]:
        print(f"  row check: {check['mismatches']}", file=log, flush=True)

    payload, measured = request_lines(out_rows, spec["model"], rng)
    # Every repetition's CSV holds the same rows (checked above), so one
    # daemon, fitted in the first repetition, serves the later ones warm.
    fitted = "daemon" not in state
    if fitted:
        state["daemon"] = Daemon(tools, camp["csv"], log)
        state["first"] = state["daemon"].first_pass(payload, measured)
    daemon, first = state["daemon"], state["first"]
    rate = daemon.warm_rate(payload, measured)
    # Launches that only connect give the set-up samples.
    setups = []
    rss = [daemon.peak_rss_mb()] + [r["rss"] for r in runs]
    for _ in range(SETUP_REPEATS):
        launch = Daemon(tools, camp["csv"], log)
        setups.append(launch.setup or 0.0)
        rss.append(launch.stop())
        a, f = launch.take_counts()
        attempted, failed = attempted + a, failed + f
    a, f = daemon.take_counts()
    attempted, failed = attempted + a, failed + f + (rate is None)
    # Each metric maps to this repetition's samples.
    metrics = {
        "setup_s": [statistics.median(r["setup"] for r in runs)
                    + statistics.median(setups)],
        "campaign_s": [r["wall"] for r in runs],
        "predict_per_s": [rate or 0.0],
        "peak_rss_mb": [max(rss)],
        "r_accuracy_min_pct": [check["accuracy"]],
        "est_err_coverage_pct": [check["coverage"]],
        "mosmodel_err_max_pct": [first.get("err_max", 0.0)],
    }
    return {"metrics": metrics, "fit": first.get("fit") if fitted else None,
            "attempted": attempted, "failed": failed,
            "campaign": camp, "payload": payload,
            "answers": first.get("answers", []), "spec": spec}


# ---------------------------------------------------------------- traced

#: Per-layer metric -> (unit). The README maps each to the end-to-end
#: metric it should move and the workload where it matters most.
PER_LAYER_UNITS = {
    "workloads.generate_s": "s", "trace.miss_profile_s": "s",
    "layouts.derive_s": "s", "sampling.plan_s": "s",
    "mosalloc.setup_s": "s", "cpu.build_s": "s", "cpu.replay_s": "s",
    "cpu.records": "count", "cpu.ns_per_record": "ns",
    "cpu.ns_per_record_slowest": "ns", "sampling.replay_s": "s",
    "sampling.replay_fraction": "ratio", "vm.translate_ns": "ns",
    "memhier.access_ns": "ns", "vm.l1_tlb_hits": "count",
    "vm.l2_tlb_hits": "count", "vm.tlb_misses": "count",
    "vm.walk_cycles": "cycles", "vm.walker_queue_cycles": "cycles",
    "memhier.prog_l1_loads": "count", "memhier.prog_l2_loads": "count",
    "memhier.prog_l3_loads": "count", "memhier.prog_dram_loads": "count",
    "memhier.walk_l1_loads": "count", "memhier.walk_l2_loads": "count",
    "memhier.walk_l3_loads": "count", "memhier.walk_dram_loads": "count",
    "vm.major_faults": "count", "vm.evictions": "count",
    "vm.writebacks": "count", "vm.swap_cycles": "cycles",
    "experiments.save_s": "s", "experiments.load_s": "s",
    "experiments.worker_busy_share": "ratio", "models.fit_s": "s",
    "models.fit_p50_s": "s", "models.fit_max_s": "s",
    "stats.lasso_fits": "count", "stats.lasso_iterations": "count",
    "stats.lasso_nonconverged": "count",
    "models.degree_fallbacks": "count", "models.predict_ns": "ns",
    "serve.parse_ns": "ns", "serve.registry_predict_ns": "ns",
    "serve.load_s": "s", "tracing.campaign_overhead_s": "s",
    "tracing.fit_overhead_s": "s",
}

#: Per-layer simulated counter -> the CSV column it must equal.
COUNTER_COLUMNS = {
    "vm.l1_tlb_hits": "l1tlbhits", "vm.l2_tlb_hits": "h",
    "vm.tlb_misses": "m", "vm.walk_cycles": "c",
    "vm.walker_queue_cycles": "queue",
    "memhier.prog_l1_loads": "progL1", "memhier.prog_l2_loads": "progL2",
    "memhier.prog_l3_loads": "progL3",
    "memhier.prog_dram_loads": "progDram",
    "memhier.walk_l1_loads": "walkL1", "memhier.walk_l2_loads": "walkL2",
    "memhier.walk_l3_loads": "walkL3",
    "memhier.walk_dram_loads": "walkDram", "vm.swap_cycles": "s",
}


def close(state):
    """Stop the daemon a run kept, if any; returns its
    (attempted, failed)."""
    daemon = state.pop("daemon", None)
    if daemon is None:
        return 0, 0
    daemon.stop()
    return daemon.take_counts()


def traced(tools, name, seed, work, jobs, log):
    """One untraced repetition, then the same inputs through
    perfbench_trace; per-layer metrics plus the same-work checks."""
    state = {}
    try:
        base = pipeline(tools, name, seed, 0, work, jobs, log, state)
    finally:
        kept = close(state)
    base["attempted"] += kept[0]
    base["failed"] += kept[1]
    spec = base["spec"]
    camp = base["campaign"]
    requests = work / "requests.txt"
    requests.write_bytes(base["payload"])
    argv = [tools["trace"], "--csv", work / "traced.csv",
            "--spans", work / "spans.tsv", "--summary", work / "summary.json",
            "--requests", requests, "--predictions", work / "predictions.txt",
            "--model", spec["model"]]
    if spec["workloads"] is None:
        argv += ["--resume-from", DATASET]
    else:
        argv += ["--workloads", ",".join(spec["workloads"]),
                 "--platforms", ",".join(PLATFORMS), "--jobs", jobs,
                 *spec["flags"]]
    status, _, _ = run_tool(argv, log)
    attempted, failed = base["attempted"] + 1, base["failed"] + (status != 0)
    if status != 0:
        return {}, attempted, failed

    summary = json.loads((work / "summary.json").read_text())
    spans = benchlib.read_spans((work / "spans.tsv").read_text())
    own = benchlib.layer_self_seconds(spans)
    header, out_raw, out_rows = benchlib.parse_csv(camp["csv"].read_text())

    # Same work: the traced CSV is the untraced one, byte for byte, and
    # its summed counters are the untraced CSV's column totals.
    _, traced_raw, _ = benchlib.parse_csv(
        (work / "traced.csv").read_text())
    attempted += len(out_raw)
    failed += sum(traced_raw.get(k) != v for k, v in out_raw.items())
    counters = summary.get("counters", {})
    if spec["workloads"] is not None:
        columns = set(COUNTER_COLUMNS.values()) | {"refs"}
        for column in sorted(columns & set(header)):
            total = sum(int(r[column]) for r in out_rows.values())
            attempted += 1
            if counters.get(column) != total:
                failed += 1
                print(f"  counter {column}: traced {counters.get(column)}"
                      f" != untraced {total}", file=log, flush=True)
        attempted += 1
        failed += summary["failed_cells"] != 0
    traced_answers = [float(v) for v in
                      (work / "predictions.txt").read_text().split()]
    attempted += len(traced_answers)
    for mine, theirs in zip(traced_answers, base["answers"]):
        failed += theirs is None or abs(mine - theirs) > 1e-6 * max(
            1.0, abs(theirs))
    failed += summary["failed_queries"]

    def spans_named(span_name):
        return [s for s in spans if s["name"] == span_name]

    fits = [(s["end"] - s["start"]) / 1e9 for s in spans_named("models.fit")]
    replays = spans_named("cpu.replay")
    per_cell = [(s["end"] - s["start"]) / s["work"] for s in replays
                if s["work"]]
    tail = benchlib.tail_percentile(per_cell) if per_cell else None
    manifest = camp["manifest"] or {"phases": {}}
    busy = [v["seconds"] for k, v in manifest["phases"].items()
            if k.startswith("campaign/worker/")]
    total = manifest["phases"].get("campaign/total", {}).get("seconds", 0)
    fit_counters = summary.get("fit_counters", {})
    replayed = summary.get("records_replayed", 0)
    metrics = {
        "workloads.generate_s": own.get("workloads.generate", 0.0),
        "trace.miss_profile_s": own.get("trace.miss_profile", 0.0),
        "layouts.derive_s": own.get("layouts.derive", 0.0),
        "sampling.plan_s": own.get("sampling.plan", 0.0),
        "mosalloc.setup_s": own.get("mosalloc.setup", 0.0),
        "cpu.build_s": own.get("cpu.build", 0.0),
        "cpu.replay_s": own.get("cpu.replay", 0.0),
        "cpu.records": replayed,
        "cpu.ns_per_record": benchlib.ns_per_work(spans, "cpu.replay"),
        "cpu.ns_per_record_slowest": tail[1] if tail else 0.0,
        "sampling.replay_s": own.get("sampling.replay", 0.0),
        "sampling.replay_fraction":
            replayed / summary["records_total"]
            if summary.get("records_total") else 0.0,
        "vm.translate_ns": benchlib.ns_per_work(spans, "vm.translate"),
        "memhier.access_ns": benchlib.ns_per_work(spans, "memhier.access"),
        "vm.major_faults": counters.get("major_faults", 0),
        "vm.evictions": counters.get("evictions", 0),
        "vm.writebacks": counters.get("writebacks", 0),
        "experiments.save_s": own.get("experiments.save", 0.0),
        "experiments.load_s": own.get("experiments.load", 0.0),
        "experiments.worker_busy_share":
            sum(busy) / (len(busy) * total) if busy and total else 0.0,
        "models.fit_s": sum(fits),
        "models.fit_p50_s": benchlib.percentile(fits, 50) if fits else 0.0,
        "models.fit_max_s": max(fits, default=0.0),
        "stats.lasso_fits": fit_counters.get("lasso/fits", 0),
        "stats.lasso_iterations": fit_counters.get("lasso/iterations", 0),
        "stats.lasso_nonconverged":
            fit_counters.get("lasso/nonconverged", 0),
        "models.degree_fallbacks":
            fit_counters.get("fit/degree_fallbacks", 0),
        "models.predict_ns": benchlib.ns_per_work(spans, "models.predict"),
        "serve.parse_ns": benchlib.ns_per_work(spans, "warm.serve.parse"),
        "serve.registry_predict_ns":
            benchlib.ns_per_work(spans, "warm.serve.registry_predict"),
        "serve.load_s": own.get("serve.load", 0.0),
        "tracing.campaign_overhead_s":
            sum((s["end"] - s["start"]) / 1e9
                for s in spans_named("campaign"))
            - statistics.median(base["metrics"]["campaign_s"]),
        "tracing.fit_overhead_s":
            sum((s["end"] - s["start"]) / 1e9
                for s in spans_named("fit_pass"))
            - (base["fit"] or 0.0),
    }
    for metric, column in COUNTER_COLUMNS.items():
        metrics[metric] = counters.get(column, 0)
    if tail:
        print(f"  cpu ns/record per cell: p{tail[0]:g} = {tail[1]:.1f} ns "
              f"over {len(per_cell)} cells")
    if fits:
        print(f"  models.fit per pair: p50 {metrics['models.fit_p50_s']:.4f}"
              f" s, max {metrics['models.fit_max_s']:.4f} s over "
              f"{len(fits)} pairs")
    return metrics, attempted, failed


# ----------------------------------------------------------------- main

def fingerprint(tools):
    """CPU model, usable CPUs, TSC rate and load: what a number from
    this host must be read with."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    tsc = subprocess.run([str(tools["trace"]), "--host-tsc"],
                         capture_output=True, text=True).stdout.strip()
    return {"cpu": model, "nproc": len(os.sched_getaffinity(0)),
            "tsc_ghz": float(tsc) if tsc else 0.0,
            "loadavg_1m_before": os.getloadavg()[0]}


def self_test(verbosity=0):
    """Run test_benchlib.py; returns (passed, tests run)."""
    suite = unittest.defaultTestLoader.discover(str(HERE),
                                                pattern="test_*.py")
    with open(os.devnull, "w") as devnull:
        stream = sys.stderr if verbosity else devnull
        result = unittest.TextTestRunner(stream=stream,
                                         verbosity=verbosity).run(suite)
    return result.wasSuccessful(), result.testsRun


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="run the benchmark's own unit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        ok, _ = self_test(verbosity=2)
        return 0 if ok else 1
    if not args.workload:
        parser.error("--workload is required")
    missing = [p for p in ("CMakeLists.txt", "src", "tools",
                           "mosaic_dataset.csv",
                           "perfbench/reference/grid-paged.csv")
               if not (ROOT / p).exists()]
    if missing:
        fail(f"not a Mosaic checkout (missing {', '.join(missing)})", 2)
    ok, count = self_test()
    if not ok:
        fail("self-tests failed (run with --self-test)", 3)

    jobs = min(4, len(os.sched_getaffinity(0)))
    tools = build(jobs)
    host = fingerprint(tools)
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = open(work / "run.log", "w")
    print(f"workload {args.workload}, seed {args.seed}, jobs {jobs}, "
          f"trace {args.trace}, {count} self-tests ok")

    try:
        if args.trace:
            values, attempted, failed = traced(tools, args.workload,
                                               args.seed, work, jobs, log)
            units = PER_LAYER_UNITS
            for name in units:
                values.setdefault(name, 0.0)
        else:
            # Repeat while another repetition as long as the last one
            # still ends within --seconds (at least MIN_REPS). The first
            # one also fits, so the last one is the better guess.
            reps = []
            state = {}
            start = time.perf_counter()
            last = 0.0
            try:
                while (len(reps) < MIN_REPS or time.perf_counter() - start
                       + last <= args.seconds):
                    began = time.perf_counter()
                    reps.append(pipeline(tools, args.workload, args.seed,
                                         len(reps), work, jobs, log, state))
                    last = time.perf_counter() - began
            finally:
                attempted, failed = close(state)
            print(f"  {len(reps)} repetitions in "
                  f"{time.perf_counter() - start:.1f} s")
            attempted += sum(r["attempted"] for r in reps)
            failed += sum(r["failed"] for r in reps)
            units = dict(END_TO_END)
            values = {}
            for name in units:
                samples = [v for r in reps for v in r["metrics"][name]]
                values[name] = statistics.median(samples)
                tail = benchlib.tail_percentile(samples)
                tail = f", p{tail[0]:g} {tail[1]:.6g}" if tail else ""
                print(f"  {name}: median {values[name]:.6g} {units[name]}"
                      f"{tail} over {len(samples)} samples, spread "
                      f"{benchlib.relative_spread(samples):.3f} "
                      f"({', '.join(f'{v:.4g}' for v in samples)})")
            if reps[0]["fit"] is not None:
                print(f"  fit pass (not reported): {reps[0]['fit']:.6g} s")
    finally:
        log.close()

    host["loadavg_1m_after"] = os.getloadavg()[0]
    print("host: " + json.dumps(host))
    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host}
    (BUILD / "results").mkdir(exist_ok=True)
    (BUILD / "results" / f"{work.name}-{int(time.time())}.json").write_text(
        json.dumps({**record, "metrics": values}, indent=1))
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    else:
        print(f"  {failed} failed operation(s); logs kept in {work}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
