#!/usr/bin/env python3
"""The miner's benchmark: one command, one JSON result line.

    python3 perfbench/run.py --workload gse-dense --seed 1 --seconds 25 \
        --trace 0

Run from the root of a qcm checkout. It builds the miner and the
benchmark's helper binaries (perfbench/CMakeLists.txt) into
.bench_build/qcm, generates the workload's SNAP edge list from --seed,
packs it with qcm_pack (the set-up), computes a reference digest through
an independent path, then runs the shipped mining command back to back for
--seconds and checks every run's result digest against the reference.

--trace 0 reports the end-to-end metrics, medians over the timed runs:
wall_s, cpu_s, setup_s and peak_rss_mb. --trace 1 makes the same untraced
runs, then one separate traced run, and reports the per-layer metrics
(perfbench/README.md lists them all). Failed runs (nonzero exit, timeout,
wrong digest) are counted in "attempted"/"failed" and never retried.

Every working file lives in .bench_build/work/run-<pid> and is removed on
exit, also after a failed or interrupted run. The traced run's artifact
(spans, per-layer metrics, top-5 straggler roots) is kept in
.bench_build/artifacts.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "qcm"
TOOLS = BUILD / "qcm"  # the repository's own tools
QCMB = BUILD / "qcmb"
ARTIFACTS = ROOT / ".bench_build" / "artifacts"
TARGETS = ["qcm_mine", "qcm_cluster", "qcm_worker", "qcm_pack", "qcmb",
           "qcmb_tmpdir"]

# One mining run may take at most RUN_TIMEOUT_S; no new run starts after
# DEADLINE_S, which keeps an invocation well inside 180 s.
RUN_TIMEOUT_S = 60.0
DEADLINE_S = 120.0
# The traced run's phase spans must add up to its wall time within this.
LEDGER_TOLERANCE_S = 0.25
MB = float(1 << 20)

WORKLOADS = {
    # Kernels, time-delayed decomposition and spill do the work.
    "gse-dense": dict(kind="mine", gamma=0.9, min_size=30, tau_split=200,
                      tau_time=0.02, threads=4, reference="serial"),
    # Candidate volume: ~300k raw candidates, FilterMaximal called twice.
    "youtube-social": dict(kind="mine", gamma=0.9, min_size=18,
                           tau_split=100, tau_time=0.01, threads=4,
                           reference="size"),
    # Remote pulls, the transport and the pager under a 512 KiB budget
    # (8 frames of 64 KiB, about 1/9 of a rank's adjacency share).
    "cluster-ooc": dict(kind="cluster", gamma=0.85, min_size=14, workers=3,
                        threads=1, tau_split=100, tau_time=0.01,
                        budget=1 << 19, reference="serial"),
}

PER_LAYER = [
    "graph.parse_s", "graph.pack_s", "graph.load_s", "graph.rank_ready_s",
    "graph.ego_build_s", "graph.page_pins", "graph.page_ins",
    "graph.page_evictions", "graph.fault_stall_s",
    "quick.mine_cpu_s", "quick.nodes_explored", "quick.bitset_words",
    "quick.raw_candidates", "quick.maximal", "quick.maximal_per_raw",
    "quick.filter_s", "quick.emit_s", "quick.serial_s",
    "mining.run_s", "mining.engine_s", "mining.tasks", "mining.big_tasks",
    "mining.small_tasks", "mining.top_root_share",
    "mining.parallel_efficiency",
    "gthinker.busy_s", "gthinker.idle_s", "gthinker.wait_s",
    "gthinker.busy_imbalance", "gthinker.spill_mb_written",
    "gthinker.spill_mb_read", "gthinker.pulled_vertices",
    "gthinker.pull_rounds", "gthinker.pull_mb", "gthinker.task_suspensions",
    "gthinker.cache_hit_ratio",
    "sched.stolen_tasks", "sched.steal_commands",
    "net.flushes", "net.frames_per_flush", "net.flush_mb",
    "net.mean_park_us", "net.launcher_tail_s",
    "bench.ledger_gap_s", "bench.trace_overhead",
]


def unit_of(name):
    if "_mb" in name:
        return "MB"
    for suffix, unit in (("_s", "s"), ("_us", "us")):
        if name.endswith(suffix):
            return unit
    if name.endswith(("_share", "_ratio", "_efficiency", "_imbalance",
                      "_per_raw", "_per_flush", "_overhead")):
        return "ratio"
    return "count"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# --------------------------------------------------------------- processes --

_running = {}  # pid -> Popen of the children still running


class Proc:
    """Runs one command to completion. wall is spawn to reap; cpu is user +
    sys of the whole process tree and rss_mb the largest peak RSS of any
    single process in it, both from wait4 (children reaped by the command,
    such as cluster workers, are included). On timeout the command is
    killed; cluster workers follow their launcher (PR_SET_PDEATHSIG)."""

    def __init__(self, cmd, env, stderr_path, timeout=RUN_TIMEOUT_S):
        with open(stderr_path, "wb") as err:
            self.start = time.monotonic()
            child = subprocess.Popen([str(c) for c in cmd], env=env,
                                     stdout=subprocess.DEVNULL, stderr=err)
            _running[child.pid] = child
            timer = threading.Timer(timeout, child.kill)
            timer.start()
            _, status, usage = os.wait4(child.pid, 0)
            self.end = time.monotonic()
            timer.cancel()
            del _running[child.pid]
            child.returncode = os.waitstatus_to_exitcode(status)
        self.wall = self.end - self.start
        self.timed_out = self.wall >= timeout
        self.code = child.returncode
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB
        self.stderr = Path(stderr_path).read_text(errors="replace")
        self.ok = self.code == 0 and not self.timed_out


def digest_of(text):
    found = re.findall(r"result-digest: ([0-9a-f]{16})", text)
    return found[-1] if found else None


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no qcm sources next to {ROOT / 'perfbench'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", ROOT / "perfbench", "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _checked(cmd, "configure")
    _checked(["cmake", "--build", BUILD, "-j", "4", "--target", *TARGETS],
             "build")


def _checked(cmd, what):
    done = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if done.returncode != 0:
        sys.stderr.write(done.stdout.decode(errors="replace")[-4000:])
        raise BenchError(f"{what} failed")


# --------------------------------------------------------------- workload --

class Bench:
    def __init__(self, workload, seed, work):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.work = work
        self.edges = work / "graph.txt"
        self.snapshot = work / "graph.qcsr"
        (work / "tmp").mkdir()
        # The tools create their spill directories under a fixed /tmp
        # template; the shim re-roots them in the work directory.
        self.env = dict(os.environ,
                        LD_PRELOAD=str(BUILD / "libqcmb_tmpdir.so"),
                        QCMB_TMPDIR=str(work / "tmp"))
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.samples = []  # (wall, cpu, rss_mb) of correct timed runs
        self.started = time.monotonic()

    def run(self, cmd, tag):
        return Proc(cmd, self.env, self.work / f"{tag}.err")

    def mining_cmd(self, extra=()):
        w = self.w
        common = ["--gamma", w["gamma"], "--min-size", w["min_size"],
                  "--threads", w["threads"], "--tau-split", w["tau_split"],
                  "--tau-time", w["tau_time"]]
        if w["kind"] == "mine":
            return [TOOLS / "qcm_mine", "--input-snapshot", self.snapshot,
                    "--machines", 1, *common, *extra]
        # qcm_cluster still demands an --input beside --snapshot; with a
        # snapshot the launcher never reads it.
        return [TOOLS / "qcm_cluster", "--input", self.edges,
                "--snapshot", self.snapshot, "--workers", w["workers"],
                *common, "--graph-memory-budget", w["budget"],
                "--log-dir", self.work / "logs",
                "--checkpoint-dir", self.work / "ckpt", *extra]

    def generate(self):
        p = self.run([QCMB, "gen", self.name, self.seed,
                      self.edges], "gen")
        if not p.ok:
            raise BenchError("workload generation failed:\n" + p.stderr)

    def setup(self, min_reps=3, max_reps=25, min_seconds=1.0):
        """qcm_pack edge list -> .qcsr, repeated for at least `min_reps`
        runs and `min_seconds`; the median wall."""
        walls = []
        for i in range(max_reps):
            if len(walls) >= min_reps and sum(walls) >= min_seconds:
                break
            p = self.run([TOOLS / "qcm_pack", "--input", self.edges,
                          "--output", self.snapshot, "--quiet"], f"pack{i}")
            if not p.ok:
                raise BenchError("qcm_pack failed:\n" + p.stderr)
            walls.append(p.wall)
        return statistics.median(walls)

    def compute_reference(self):
        w = self.w
        if w["reference"] == "serial":
            cmd = [QCMB, "reference", self.snapshot, w["gamma"],
                   w["min_size"]]
        else:
            # SerialMiner is too slow here: size-threshold decomposition
            # (not the timed time-delayed one) in a single-process qcm_mine.
            cmd = [TOOLS / "qcm_mine", "--input-snapshot", self.snapshot,
                   "--gamma", w["gamma"], "--min-size", w["min_size"],
                   "--machines", 1, "--threads", w["threads"],
                   "--mode", "size"]
        p = self.run(cmd, "reference")
        self.reference = digest_of(p.stderr)
        if not p.ok or self.reference is None:
            raise BenchError("reference run failed:\n" + p.stderr[-2000:])
        log(f"[{self.name}] seed {self.seed}: reference digest "
            f"{self.reference} ({w['reference']}, {p.wall:.2f} s)")

    def check(self, p, what):
        """Counts one attempted run. True if it exited 0 in time with the
        reference digest."""
        self.attempted += 1
        digest = digest_of(p.stderr)
        if p.ok and digest == self.reference:
            return True
        self.failed += 1
        why = ("timeout" if p.timed_out else
               f"exit {p.code}" if p.code != 0 else
               f"digest {digest} != reference {self.reference}")
        log(f"[{self.name}] {what} FAILED: {why}\n{p.stderr[-2000:]}")
        return False

    def timed_runs(self, seconds, min_runs=3):
        """One warm-up run (checked, not timed: the first run after an idle
        gap is several times slower), then timed runs for `seconds`."""
        self.check(self.run(self.mining_cmd(), "warmup"), "warm-up run")
        begin = time.monotonic()
        walls = []
        while time.monotonic() - self.started < DEADLINE_S:
            elapsed = time.monotonic() - begin
            # Start another run only if it is expected to end in time.
            if (len(walls) >= min_runs and
                    elapsed + statistics.median(walls) > seconds):
                break
            p = self.run(self.mining_cmd(), "timed")
            walls.append(p.wall)
            if self.check(p, f"timed run {len(walls)}"):
                self.samples.append((p.wall, p.cpu, p.rss_mb))
        if not self.samples:
            raise BenchError("no correct timed run")

    def median(self, i):
        return statistics.median(s[i] for s in self.samples)


# ------------------------------------------------------------- traced run --

def span_total(spans, name):
    return sum(s["end"] - s["start"] for s in spans if s["name"] == name)


def busy_imbalance(threads):
    """1 - mean/max per-thread busy time, in [0, 1)."""
    busy = [t["busy_seconds"] for t in threads]
    if not busy or max(busy) == 0:
        return 0.0
    return 1.0 - statistics.mean(busy) / max(busy)


def engine_layers(r, threads_per_rank, rank_reports):
    """Per-layer metrics read from an EngineReport JSON (merged for the
    cluster) and its per-rank reports."""
    c, d = r["counters"], r["derived"]
    wait = sum(rr["wall_seconds"] * threads_per_rank -
               rr["total_busy_seconds"] - rr["total_idle_seconds"]
               for rr in rank_reports)
    return {
        "graph.ego_build_s": r["total_build_seconds"],
        "graph.page_pins": c["graph_page_pins"],
        "graph.page_ins": c["graph_page_ins"],
        "graph.page_evictions": c["graph_page_evictions"],
        "graph.fault_stall_s": c["graph_fault_stall_usec"] / 1e6,
        "quick.mine_cpu_s": r["total_mining_seconds"],
        "quick.nodes_explored": c["mining_nodes_explored"],
        "quick.bitset_words": c["mining_bitset_words_touched"],
        "mining.engine_s": r["wall_seconds"],
        "mining.tasks": c["tasks_completed"],
        "mining.big_tasks": c["big_tasks"],
        "mining.small_tasks": c["small_tasks"],
        "gthinker.busy_s": r["total_busy_seconds"],
        "gthinker.idle_s": r["total_idle_seconds"],
        "gthinker.wait_s": wait,
        "gthinker.busy_imbalance": busy_imbalance(r["threads"]),
        "gthinker.spill_mb_written": c["spill_bytes_written"] / MB,
        "gthinker.spill_mb_read": c["spill_bytes_read"] / MB,
        "gthinker.pulled_vertices": c["pulled_vertices"],
        "gthinker.pull_rounds": c["pull_rounds"],
        "gthinker.pull_mb": c["pull_bytes"] / MB,
        "gthinker.task_suspensions": c["task_suspensions"],
        "gthinker.cache_hit_ratio": d["cache_hit_ratio"],
        "sched.stolen_tasks": c["stolen_tasks"],
        "net.flushes": c["net_flushes"],
        "net.frames_per_flush": d["frames_per_flush"],
        "net.flush_mb": c["net_flush_bytes"] / MB,
        "net.mean_park_us": d["mean_flush_park_usec"],
    }


def traced_run(b, untraced_wall):
    """One traced run: spans around each layer call, read back with the
    program's own reports. Returns (per-layer metrics, artifact)."""
    w = b.w
    art_path = b.work / "trace.json"
    trace_cmd = [QCMB, "trace", "--edges", b.edges,
                 "--snapshot", b.snapshot, "--out", art_path]
    begin = time.monotonic()
    phases = []  # leaf phase spans of the traced run: (name, start, end)

    def inproc(proc, art):
        # The helper's spans are on its own clock, which starts just
        # after exec; place them at the process start.
        for s in art["spans"]:
            if s["parent"] == 0:
                phases.append((s["name"], proc.start - begin + s["start"],
                               proc.start - begin + s["end"]))

    if w["kind"] == "mine":
        trace_cmd += ["--mine", "--gamma", w["gamma"], "--min-size",
                      w["min_size"], "--threads", w["threads"],
                      "--tau-split", w["tau_split"], "--tau-time",
                      w["tau_time"], "--spill-dir", b.work / "tmp" / "spill"]
        if w["reference"] == "serial":
            trace_cmd.append("--serial")
        p = b.run(trace_cmd, "trace")
        if not b.check(p, "traced run"):
            raise BenchError("traced run failed")
        art = json.loads(art_path.read_text())
        inproc(p, art)
        if "serial_digest" in art and art["serial_digest"] != b.reference:
            b.failed += 1
            log(f"[{b.name}] traced serial digest {art['serial_digest']} "
                f"!= reference {b.reference}")
        spans, r = art["spans"], art["report"]
        m = engine_layers(r, w["threads"], [r])
        serial_s = art.get("serial_seconds", 0.0)
        # The qcm_mine-equivalent part of the traced process.
        not_mine = sum(span_total(spans, n) for n in (
            "graph.parse", "graph.pack", "graph.drop_parsed", "quick.serial",
            "quick.serial_filter"))
        traced_wall = p.wall - not_mine
        roots = art["top_roots"]
        m.update({
            "graph.parse_s": span_total(spans, "graph.parse"),
            "graph.pack_s": span_total(spans, "graph.pack"),
            "graph.load_s": span_total(spans, "graph.open") +
                            span_total(spans, "graph.to_graph"),
            "graph.rank_ready_s": 0.0,
            "quick.raw_candidates": art["raw_candidates"],
            "quick.maximal": art["maximal"],
            "quick.filter_s": span_total(spans, "quick.filter"),
            "quick.emit_s": span_total(spans, "quick.emit"),
            "quick.serial_s": serial_s,
            "mining.run_s": span_total(spans, "mining.run"),
            "mining.top_root_share":
                roots[0]["mining_seconds"] / art["root_mining_seconds"]
                if roots and art["root_mining_seconds"] > 0 else 0.0,
            "mining.parallel_efficiency":
                serial_s / (w["threads"] * r["wall_seconds"])
                if serial_s else 0.0,
            "sched.steal_commands": r["counters"]["steal_events"],
            "net.launcher_tail_s": traced_wall - r["wall_seconds"],
        })
        artifact = {"top_roots": roots, "inproc_spans": spans}
    else:
        # Parse + pack in-process, then one qcm_cluster run with its
        # per-rank reports (--stats-json) and worker logs.
        p = b.run(trace_cmd, "trace")
        if not p.ok:
            raise BenchError("traced pack failed:\n" + p.stderr)
        art = json.loads(art_path.read_text())
        inproc(p, art)
        stats_path = b.work / "stats.json"
        c = b.run(b.mining_cmd(["--stats", "--stats-json", stats_path]),
                  "trace-cluster")
        phases.append(("qcm_cluster", c.start - begin, c.end - begin))
        if not b.check(c, "traced cluster run"):
            raise BenchError("traced cluster run failed")
        stats = json.loads(stats_path.read_text())
        r = stats["merged"]
        m = engine_layers(r, w["threads"], stats["ranks"])
        traced_wall = c.wall
        ready = [float(x) for f in (b.work / "logs").glob("worker*.log")
                 for x in re.findall(r"graph ready in ([0-9.]+) s",
                                     f.read_text(errors="replace"))]

        def launcher_count(pattern):
            found = re.search(pattern, c.stderr)
            return int(found.group(1)) if found else 0

        spans = art["spans"]
        m.update({
            "graph.parse_s": span_total(spans, "graph.parse"),
            "graph.pack_s": span_total(spans, "graph.pack"),
            "graph.load_s": 0.0,
            "graph.rank_ready_s": max(ready) if ready else 0.0,
            "quick.raw_candidates": launcher_count(r"(\d+) raw candidates"),
            "quick.maximal": launcher_count(r"(\d+) maximal quasi-cliques"),
            "quick.filter_s": 0.0,
            "quick.emit_s": 0.0,
            "quick.serial_s": 0.0,
            "mining.run_s": c.wall,
            "mining.top_root_share": 0.0,
            "mining.parallel_efficiency": 0.0,
            "sched.steal_commands":
                launcher_count(r"\((\d+) steal commands\)"),
            "net.launcher_tail_s": c.wall - r["wall_seconds"],
        })
        artifact = {"top_roots": [], "inproc_spans": spans,
                    "rank_wall_seconds": [x["wall_seconds"]
                                          for x in stats["ranks"]]}
    run_wall = time.monotonic() - begin
    gap = run_wall - sum(e - s for _, s, e in phases)
    raw = m["quick.raw_candidates"]
    m["quick.maximal_per_raw"] = m["quick.maximal"] / raw if raw else 0.0
    m["bench.ledger_gap_s"] = gap
    m["bench.trace_overhead"] = traced_wall / untraced_wall
    if abs(gap) > LEDGER_TOLERANCE_S:
        b.failed += 1
        log(f"[{b.name}] ledger check FAILED: phases leave {gap:.3f} s of "
            f"{run_wall:.3f} s unaccounted (tolerance "
            f"{LEDGER_TOLERANCE_S} s)")
    artifact.update({
        "workload": b.name, "seed": b.seed, "reference": b.reference,
        "run_wall_s": run_wall,
        "spans": [{"name": "perfbench.traced_run", "start": 0.0,
                   "end": run_wall, "parent": -1}] +
                 [{"name": n, "start": s, "end": e, "parent": 0}
                  for n, s, e in phases],
        "metrics": m,
    })
    return m, artifact


# ------------------------------------------------------------------- main --

def measure(args, work):
    b = Bench(args.workload, args.seed, work)
    b.generate()
    setup_s = b.setup() if args.trace == 0 else b.setup(1, 1, 0)
    b.compute_reference()
    b.timed_runs(args.seconds)
    e2e = {"wall_s": (b.median(0), "s"), "cpu_s": (b.median(1), "s"),
           "setup_s": (setup_s, "s"), "peak_rss_mb": (b.median(2), "MB")}
    log(f"[{b.name}] seed {b.seed}: {len(b.samples)} timed runs; " +
        ", ".join(f"{k} {v:.4g} {u}" for k, (v, u) in e2e.items()))
    if args.trace == 0:
        metrics = e2e
    else:
        layers, artifact = traced_run(b, b.median(0))
        metrics = {k: (layers[k], unit_of(k)) for k in PER_LAYER}
        ARTIFACTS.mkdir(parents=True, exist_ok=True)
        out = ARTIFACTS / f"{b.name}-seed{b.seed}.json"
        out.write_text(json.dumps(artifact, indent=1) + "\n")
        for k in PER_LAYER:
            log(f"  {k:28s} {layers[k]:14.6g} {unit_of(k)}")
        for root in artifact["top_roots"]:
            log(f"  straggler root {root['root']}: ego {root['ego_vertices']}"
                f" vertices, {root['mining_seconds']:.3f} s mining")
        log(f"[{b.name}] traced artifact: {out}")
    log(f"[{b.name}] fail_frac {b.failed / b.attempted:.3f} "
        f"({b.failed} of {b.attempted} runs)")
    return {
        "correct": b.failed == 0,
        "attempted": b.attempted,
        "failed": b.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = None
    try:
        build()
        work = ROOT / ".bench_build" / "work" / f"run-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        result = measure(args, work)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    finally:
        for child in list(_running.values()):
            child.kill()
            child.wait()
        if work is not None:
            shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
