#!/usr/bin/env python3
"""End-to-end benchmark of the rprism CLI.

    python3 perfbench/run.py --workload long-loop|threads|regress-hunt \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds `rprism` and the helper
`perfbench_tool` from source into .bench_build, generates the workload's
programs from the seed, then drives the CLI the way users run it: a
closed loop with one client, one child process at a time, each command
started after the previous one exits. `perfbench_tool cli` starts the
children and takes each one's wall time from outside and its peak RSS from
its rusage. Every output is checked (see Checker); any failure makes the
run exit 1.

--trace 0 prints the end-to-end metrics. --trace 1 instead runs each job
three ways in turn (CLI children, in-process plain, in-process traced),
checks that the traced in-process job reproduces the CLI's bytes, and
prints the per-layer metrics. The last stdout line is the JSON result.

--write-pins records the current program's report digests and compare-op
totals for the seed in pinned.json (maintenance only).
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORK = BUILD / "work"
PINS = HERE / "pinned.json"
WORKLOADS = ("long-loop", "threads", "regress-hunt")
# Set-up repeats: up to SETUP_REPEATS, fewer (at least one) once the
# budget is spent. The first set-up makes the inputs; later ones, one after
# each job, sample the host's speed across the whole run as the jobs do.
SETUP_REPEATS = 31
SETUP_BUDGET_S = 1.0
RESETUP_BUDGET_S = 0.05
BUILD_JOBS = 4  # parallel compile jobs

ENTRIES_RE = re.compile(rb"\[(\d+) trace entries")
COMPARE_RE = re.compile(rb"\[(\d+) compare ops")

E2E_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "entries_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def sha256_bytes(data):
    return hashlib.sha256(data).hexdigest()


def pin_digest(data):
    """Digest of a command's stdout as pinned (64 bits are plenty)."""
    return sha256_bytes(data)[:16]


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def clean_env():
    """The children's environment: no RPRISM_* switch (trace format, SIMD
    and dispatch kill switches, fault injection, retry policy) leaks in."""
    return {k: v for k, v in os.environ.items() if not k.startswith("RPRISM_")}


# --- build and set-up --------------------------------------------------------


def sources_present():
    return all((ROOT / p).is_file() for p in
               ("src/CMakeLists.txt", "tools/CMakeLists.txt", "tools/rprism.cpp"))


def build(env):
    gen = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(CMAKE_DIR),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
        ["cmake", "--build", str(CMAKE_DIR), "--target", "rprism",
         "perfbench_tool", "-j", str(BUILD_JOBS)],
    ]
    for cmd in steps:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT)
        if res.returncode != 0:
            sys.stderr.write(res.stdout.decode(errors="replace")[-4000:])
            raise SystemExit("build failed: " + " ".join(cmd))
    rprism = CMAKE_DIR / "rprism_tools" / "rprism"
    tool = CMAKE_DIR / "perfbench_tool"
    return str(rprism), str(tool)


def setup(tool, workload, seed, workdir, env, budget=SETUP_BUDGET_S):
    """Generates the workload's inputs into workdir (the same files every
    time); returns the seconds of each set-up repeat."""
    out = subprocess.run(
        [tool, "setup", "--workload", workload, "--seed", str(seed),
         "--dir", str(workdir), "--repeat", str(SETUP_REPEATS),
         "--budget", str(budget)],
        env=env, stdout=subprocess.PIPE, check=True).stdout
    return json.loads(out)["setup_s"]


def host_facts(tool, jobs_flag, pair_entries, env):
    """nproc, git SHA and source digest, plus the SIMD tier, dispatch tier
    and the effective diff jobs for \p jobs_flag on a pair of this size."""
    facts = json.loads(subprocess.run(
        [tool, "host", "--jobs", str(jobs_flag), "--entries",
         str(pair_entries)], env=env, stdout=subprocess.PIPE,
        check=True).stdout)
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        sha = res.stdout.decode().strip() or None
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "tools"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0")
        h.update(p.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "effective_jobs": facts["effective_jobs"],
            "simd_tier": facts["simd_tier"],
            "dispatch_tier": facts["dispatch_tier"], "git_sha": sha,
            "source_sha256": h.hexdigest()}


# --- one CLI command ------------------------------------------------------------


class Failures:
    """Commands attempted and failed; the first failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 20:
                log("FAIL: " + reason)


class Checker:
    """The correctness gate. A command fails when its exit code is not 0,
    its stdout differs from the value the benchmark computed (long-loop
    totals), its report or compare-op total differs from the pinned value
    for this seed, or it differs from an earlier run of the same command in
    this run."""

    def __init__(self, workload, seed, failures):
        pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        self.pins = pins.get(workload, {}).get(str(seed), {})
        self.failures = failures
        self.seen = {}

    def check(self, cmd, res):
        cid = cmd["id"]
        digest = sha256_bytes(res["stdout"])
        m = COMPARE_RE.search(res["stderr"])
        ops = int(m.group(1)) if m else None
        problems = []
        if res["code"] != 0:
            problems.append("exit code %d" % res["code"])
        if "expect_stdout" in cmd and res["stdout"] != cmd["expect_stdout"].encode():
            problems.append("stdout %r, expected %r" % (
                res["stdout"][:80], cmd["expect_stdout"]))
        if cmd["kind"] in ("diff-traces", "diff-nway") and ops is None:
            problems.append("no compare-op total on stderr")
        pin = self.pins.get(cid)
        if pin:
            if pin[0] != pin_digest(res["stdout"]):
                problems.append("stdout differs from the pinned report")
            if ops is not None and pin[1] != ops:
                problems.append("compare ops %d, pinned %s" % (ops, pin[1]))
        first = self.seen.setdefault(cid, (digest, ops))
        if first != (digest, ops):
            problems.append("output differs from this command's first run")
        self.failures.add(not problems, "%s: %s" % (cid, "; ".join(problems)))
        return ops

    def check_inproc_ops(self, cid, ops):
        """Compare-op totals the CLI does not print (analyze) are pinned
        from the in-process run."""
        pin = self.pins.get(cid)
        if pin and pin[1] != ops:
            self.failures.add(False, "%s: in-process compare ops %d, pinned %s"
                              % (cid, ops, pin[1]))


def run_cli_job(tool, rprism, manifest, workdir, env, checker):
    """One job (every command of the workload, in order) through the CLI.
    perfbench_tool starts the children and times them; this checks them."""
    out = workdir / "cli-job.json"
    subprocess.run([tool, "cli", "--dir", str(workdir), "--rprism", rprism,
                    "--out", str(out)], env=env, check=True,
                   stdin=subprocess.DEVNULL)
    results = []
    for cmd, child in zip(manifest["commands"], json.loads(out.read_text())):
        stem = workdir / ("cli-" + cmd["id"])
        res = {"id": cmd["id"], "kind": cmd["kind"], "wall": child["wall_s"],
               "code": child["code"], "rss": child["maxrss_kb"] * 1024,
               "stdout": stem.with_suffix(".stdout").read_bytes(),
               "stderr": stem.with_suffix(".stderr").read_bytes()}
        res["compare_ops"] = checker.check(cmd, res)
        if cmd["kind"] == "run":
            m = ENTRIES_RE.search(res["stderr"])
            res["entries"] = int(m.group(1)) if m else 0
            trace = workdir / cmd["trace"]
            res["trace_bytes"] = trace.stat().st_size if trace.exists() else 0
        else:
            res["entries"] = cmd.get("entries", 0)
        results.append(res)
    return results


# --- end-to-end run (--trace 0) --------------------------------------------------


def measure_e2e(tool, rprism, manifest, workdir, env, seconds, checker, resetup):
    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_cli_job(tool, rprism, manifest, workdir, env, checker))
        resetup()
    return jobs


def e2e_metrics(jobs, setup_times):
    job_s = [sum(r["wall"] for r in job) for job in jobs]
    entries = [sum(r["entries"] for r in job) for job in jobs]
    rss = [max(r["rss"] for r in job) / 1e6 for job in jobs]
    by_kind = {}
    for job in jobs:
        for r in job:
            by_kind.setdefault(r["kind"], []).append(r)
    metrics = {
        "setup_s": median(setup_times),
        "job_s": median(job_s),
        "entries_per_s": median([e / s for e, s in zip(entries, job_s)]),
        "peak_rss_mb": median(rss),
    }
    samples = {"setup_s": len(setup_times), "job_s": len(job_s),
               "entries_per_s": len(job_s), "peak_rss_mb": len(rss)}
    # Per-command figures; each applies only to the workloads that run the
    # command, so they are printed but not part of the JSON result.
    extra = {}
    for kind, name in (("run", "trace_s"), ("diff-traces", "diff_s"),
                       ("diff-nway", "nway_s"), ("analyze", "analyze_s")):
        walls = [r["wall"] for r in by_kind.get(kind, [])]
        if walls:
            extra[name] = (median(walls), "s", len(walls))
    walls = sorted(r["wall"] for r in by_kind.get("analyze", []))
    if len(walls) >= 100:
        extra["analyze_p90_s"] = (statistics.quantiles(walls, n=10)[-1], "s",
                                  len(walls))
    runs = by_kind.get("run", [])
    if runs:
        extra["trace_bytes_per_entry"] = (
            sum(r["trace_bytes"] for r in runs) / sum(r["entries"] for r in runs),
            "B", len(runs))
    return metrics, samples, extra


# --- per-layer run (--trace 1) ---------------------------------------------------


def run_inproc(tool, workdir, env, mode):
    out = workdir / ("inproc-%s.json" % mode)
    subprocess.run([tool, "inproc", "--dir", str(workdir), "--mode", mode,
                    "--out", str(out)],
                   env=env, check=True, stdin=subprocess.DEVNULL)
    return json.loads(out.read_text())


def check_equivalence(manifest, cli_job, traced, workdir, checker, failures):
    """The traced in-process job must print the CLI's bytes, count the
    CLI's compare ops and, for `run`, write the CLI's trace file."""
    ip = {c["id"]: c for c in traced["commands"]}
    for res in cli_job:
        cid = res["id"]
        cmd = next(c for c in manifest["commands"] if c["id"] == cid)
        got = ip[cid]
        problems = []
        if not got["ok"]:
            problems.append("in-process command failed")
        if (workdir / ("inproc-%s.out" % cid)).read_bytes() != res["stdout"]:
            problems.append("stdout differs")
        if res["compare_ops"] is not None and res["compare_ops"] != got["compare_ops"]:
            problems.append("compare ops %d vs CLI %d" % (got["compare_ops"], res["compare_ops"]))
        if cmd["kind"] == "run":
            if sha256_file(workdir / ("inproc-" + cmd["trace"])) != sha256_file(workdir / cmd["trace"]):
                problems.append("trace file digest differs")
        if cmd["kind"] == "analyze":
            checker.check_inproc_ops(cid, got["compare_ops"])
        failures.add(not problems, "traced == CLI, %s: %s" % (cid, "; ".join(problems)))


# Span name -> per-layer time metric.
SPAN_METRICS = {
    "lang.parse": "lang.parse_s", "lang.check": "lang.check_s",
    "runtime.compile": "runtime.compile_s", "runtime.run": "runtime.run_s",
    "trace.write": "trace.write_s", "trace.load": "trace.load_s",
    "views.web": "views.web_s", "correlate.correlate": "correlate.correlate_s",
    "diff.evaluate": "diff.evaluate_s", "diff.render": "diff.render_s",
    "diff.nway": "diff.nway_s", "diff.nway_render": "diff.nway_render_s",
    "analysis.analyze": "analysis.analyze_s",
    "analysis.render": "analysis.render_s",
}

LAYER_UNITS = {
    "lang.parse_s": "s", "lang.check_s": "s", "runtime.compile_s": "s",
    "runtime.run_s": "s", "runtime.entries_per_s": "1/s",
    "runtime.entries": "count", "runtime.steps": "count",
    "trace.write_s": "s", "trace.write_gb_per_s": "GB/s",
    "trace.load_s": "s", "trace.load_gb_per_s": "GB/s",
    "trace.file_bytes": "B", "trace.fp_recompute_share": "share",
    "views.web_s": "s", "views.count": "count",
    "correlate.correlate_s": "s", "correlate.thread_pairs": "count",
    "diff.evaluate_s": "s", "diff.compare_ops": "count",
    "diff.sequences": "count", "diff.effective_jobs": "count",
    "diff.render_s": "s", "diff.nway_s": "s", "diff.nway_render_s": "s",
    "cache.web_hit_ratio": "share", "analysis.analyze_s": "s",
    "analysis.render_s": "s", "analysis.compare_ops": "count",
    "cli.unattributed_s": "s", "bench.tracing_overhead_s": "s",
}


def traced_job_layers(job):
    """Per-layer figures of one traced job, plus the seconds under each
    command's direct child spans and the job's gauges."""
    spans = job["spans"]
    out = {name: 0.0 for name in SPAN_METRICS.values()}
    attributed = {}  # command span index -> seconds under direct children
    for s in spans:
        dur = (s["end_ns"] - s["start_ns"]) / 1e9
        if s["name"] in SPAN_METRICS:
            out[SPAN_METRICS[s["name"]]] += dur
        parent = s["parent"]
        if parent >= 0 and spans[parent]["name"].startswith("cmd."):
            attributed[parent] = attributed.get(parent, 0.0) + dur
    cmds = job["commands"]
    total = lambda key: sum(c[key] for c in cmds)
    counter = lambda name: sum(c["counters"].get(name, 0) for c in cmds)
    kinds = [s["name"][4:] for s in spans if s["name"].startswith("cmd.")]
    diffs = [c for c, k in zip(cmds, kinds) if k in ("diff-traces", "diff-nway")]
    analyses = [c for c, k in zip(cmds, kinds) if k == "analyze"]
    entries = total("entries")
    out["runtime.entries"] = entries
    out["runtime.steps"] = total("steps")
    out["runtime.entries_per_s"] = entries / out["runtime.run_s"] if out["runtime.run_s"] else 0.0
    out["trace.file_bytes"] = total("file_bytes")
    out["trace.write_gb_per_s"] = (total("file_bytes") / out["trace.write_s"] / 1e9
                                   if out["trace.write_s"] else 0.0)
    out["trace.load_gb_per_s"] = (total("loaded_bytes") / out["trace.load_s"] / 1e9
                                  if out["trace.load_s"] else 0.0)
    out["trace.fp_recompute_share"] = (counter("load.fp_recompute") / total("files_loaded")
                                       if total("files_loaded") else 0.0)
    out["views.count"] = counter("web.views")
    out["correlate.thread_pairs"] = counter("correlate.thread_pairs")
    out["diff.compare_ops"] = sum(c["compare_ops"] for c in diffs)
    out["diff.sequences"] = sum(c["counters"].get("diff.sequences", 0) for c in diffs)
    out["diff.effective_jobs"] = max(
        [c["effective_jobs"] for c in cmds] +
        [c["gauges"].get("diff.effective_jobs", 0) for c in cmds])
    hits, misses = counter("web.cache.hit"), counter("web.cache.miss")
    out["cache.web_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["analysis.compare_ops"] = sum(c["compare_ops"] for c in analyses)
    per_cmd_attributed = [attributed.get(i, 0.0) for i, s in enumerate(spans)
                          if s["name"].startswith("cmd.")]
    gauges = {}
    for c in cmds:
        gauges.update(c["gauges"])
    return out, per_cmd_attributed, gauges


def measure_layers(rprism, tool, manifest, workdir, env, seconds, checker, failures):
    cli_jobs, plain_walls, traced_walls = [], [], []
    layer_rows, attributed_rows, gauges = [], [], {}
    deadline = time.perf_counter() + seconds
    while not cli_jobs or time.perf_counter() < deadline:
        cli_jobs.append(run_cli_job(tool, rprism, manifest, workdir, env, checker))
        # Alternate which in-process mode goes first.
        order = ("plain", "traced") if len(cli_jobs) % 2 else ("traced", "plain")
        for mode in order:
            res = run_inproc(tool, workdir, env, mode)
            (plain_walls if mode == "plain" else traced_walls).append(res["wall_ns"] / 1e9)
            if mode == "traced":
                if len(cli_jobs) == 1:
                    check_equivalence(manifest, cli_jobs[0], res, workdir, checker,
                                      failures)
                row, attributed, g = traced_job_layers(res)
                layer_rows.append(row)
                attributed_rows.append(attributed)
                gauges.update(g)

    metrics = {name: median([r[name] for r in layer_rows]) for name in layer_rows[0]}
    cmd_median = [median(col) for col in zip(*[[r["wall"] for r in job] for job in cli_jobs])]
    attr_median = [median(col) for col in zip(*attributed_rows)]
    unattributed = [c - a for c, a in zip(cmd_median, attr_median)]
    metrics["cli.unattributed_s"] = sum(unattributed)
    metrics["bench.tracing_overhead_s"] = median(traced_walls) - median(plain_walls)
    by_kind = lambda values: {k: sum(v for c, v in zip(manifest["commands"], values)
                                     if c["kind"] == k)
                              for k in dict.fromkeys(c["kind"] for c in manifest["commands"])}
    detail = {
        "samples": {"traced_jobs": len(layer_rows), "plain_jobs": len(plain_walls),
                    "cli_jobs": len(cli_jobs)},
        "cli_s_by_kind": by_kind(cmd_median),
        "unattributed_s_by_kind": by_kind(unattributed),
        "inproc_plain_job_s": median(plain_walls),
        "inproc_traced_job_s": median(traced_walls),
        "gauges": gauges,
    }
    return metrics, detail, cli_jobs


def diffed_pair(manifest, job):
    """--jobs of the first diff-like command and the entries of the pair of
    traces it compares (in \p job, a CLI job's results)."""
    cmd = next(c for c in manifest["commands"] if c["kind"] != "run")
    if cmd["kind"] == "analyze":
        return cmd["jobs"], cmd["entries"] // 2
    entries = {c["trace"]: r["entries"] for c, r in
               zip(manifest["commands"], job) if c["kind"] == "run"}
    return cmd["jobs"], entries[cmd["files"][0]] + entries[cmd["files"][1]]


# --- pins ------------------------------------------------------------------------


def write_pins(rprism, tool, workload, seed, manifest, workdir, env):
    failures = Failures()
    checker = Checker(workload, seed, failures)
    checker.pins = {}
    cli = run_cli_job(tool, rprism, manifest, workdir, env, checker)
    traced = run_inproc(tool, workdir, env, "traced")
    check_equivalence(manifest, cli, traced, workdir, checker, failures)
    if failures.failed:
        raise SystemExit("not pinning: %d failures" % failures.failed)
    ip = {c["id"]: c for c in traced["commands"]}
    entry = {}
    for r in cli:
        ops = ip[r["id"]]["compare_ops"] if r["kind"] != "run" else None
        entry[r["id"]] = [pin_digest(r["stdout"]), ops]
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}
    pins.setdefault(workload, {})[str(seed)] = entry
    compact = lambda v: json.dumps(v, separators=(",", ":"), sort_keys=True)
    PINS.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: {\n%s\n}" % (json.dumps(w), ",\n".join(
            " %s: %s" % (json.dumps(k), compact(v))
            for k, v in sorted(seeds.items(), key=lambda kv: int(kv[0]))))
        for w, seeds in sorted(pins.items())))
    log("pinned %s seed %d (%d commands)" % (workload, seed, len(entry)))


# --- main ------------------------------------------------------------------------


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()

    if not sources_present():
        log("error: rprism sources (src/, tools/) not found beside %s" % HERE.name)
        return 2
    env = clean_env()
    rprism, tool = build(env)
    workdir = WORK / args.workload
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    try:
        setup_times = setup(tool, args.workload, args.seed, workdir, env)
        manifest = json.loads((workdir / "manifest.json").read_text())
        if args.write_pins:
            write_pins(rprism, tool, args.workload, args.seed, manifest, workdir, env)
            return 0
        failures = Failures()
        checker = Checker(args.workload, args.seed, failures)
        if args.trace == 0:
            resetup = lambda: setup_times.extend(setup(
                tool, args.workload, args.seed, workdir, env, RESETUP_BUDGET_S))
            jobs = measure_e2e(tool, rprism, manifest, workdir, env, args.seconds,
                               checker, resetup)
            metrics, samples, extra = e2e_metrics(jobs, setup_times)
            units = E2E_UNITS
        else:
            metrics, detail, jobs = measure_layers(rprism, tool, manifest, workdir,
                                                   env, args.seconds, checker,
                                                   failures)
            units = LAYER_UNITS
        first_job = jobs[0]
        host = host_facts(tool, *diffed_pair(manifest, first_job), env)
    finally:
        # Trace files run to hundreds of MB; keep only the small inputs.
        for p in workdir.glob("*.rpt"):
            p.unlink()

    failed_share = failures.failed / failures.attempted
    print("workload %s, seed %d, closed loop, 1 client, %s" % (
        args.workload, args.seed, "; ".join(manifest.get("notes", [])[:3]) or "-"))
    print("host " + json.dumps(host, sort_keys=True))
    for name, value in metrics.items():
        print("%-26s %16.6f %s" % (name, value, units[name]), end="")
        print("  (n=%d)" % samples[name] if args.trace == 0 else "")
    if args.trace == 0:
        for name, (value, unit, n) in extra.items():
            print("%-26s %16.6f %s  (n=%d)" % (name, value, unit, n))
    else:
        print("detail " + json.dumps(detail, sort_keys=True))
    print("%-26s %16.6f share  (%d of %d commands)" % (
        "failed_share", failed_share, failures.failed, failures.attempted))
    result = {
        "correct": failures.failed == 0,
        "attempted": failures.attempted,
        "failed": failures.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failures.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
