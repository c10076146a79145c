#!/usr/bin/env python3
"""Benchmark runner for the GPNM methods: builds the program from source,
runs one workload in a single Spark driver JVM and prints the result.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --all [--seed <n>]   # every workload and metric;
                                                  # also rewrites BENCHMARK.json

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; everything else goes to
standard error. The full result, with the pinned Spark settings, versions,
per-sample times and job counts per layer, is written to
`perfbench/results/<workload>-s<seed>-t<trace>.json`.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TARGET = BENCH / "target"
RESULTS = BENCH / "results"

RUN_SECONDS = 20
DRIVER_HEAP = "3g"
JAVA_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

WORKLOADS = [
    ("pattern-edit", "only the pattern changes, so SQuery is DER-I, the EH-Tree and BGS passes; SLen is never touched"),
    ("data-churn", "only the data graph changes, on a dense graph: SLen maintenance, the changed-pair diff and the two deletes' recompute dominate"),
]

METHODS = ["ua", "nopar", "eh", "inc"]
LAYERS = ["core.Bgs", "core.Der", "core.DataGraph", "sssp.IncApsp", "sssp.ApspBfs",
          "partition.PartitionedApsp", "partition.LabelPartition"]

# (name, unit, better, bound): wall seconds until SQuery is materialised,
# median over a run's reps; set-up is the median of several set-ups.
END_TO_END = [(f"squery_s.{m}", "s", "lower", 0.25) for m in METHODS] + [
    ("setup_s", "s", "lower", 0.25),
]


def _per_layer():
    out = []
    for m in METHODS:
        for layer in LAYERS:
            out += [(f"{m}.{layer}.jobs", "count", "lower"),
                    (f"{m}.{layer}.job_s", "s", "lower"),
                    (f"{m}.{layer}.shuffle_mb", "MB", "lower")]
        out += [(f"{m}.other.jobs", "count", "lower"),
                (f"{m}.jobs", "count", "lower"),
                (f"{m}.task_s", "s", "lower"),
                (f"{m}.driver_s", "s", "lower")]
    for kind in ["edge_ins", "edge_del", "node_ins", "node_del"]:
        out += [(f"slen.{kind}_s", "s", "lower"), (f"slen.{kind}_jobs", "count", "lower")]
    out += [
        ("slen.rows", "count", "lower"),
        ("der.aff_n_s", "s", "lower"),
        ("der.aff_n_size", "count", "lower"),
        ("der.changed_pairs", "count", "lower"),
        ("der.can_n_s", "s", "lower"),
        ("der.can_n_size", "count", "lower"),
        ("der.type1_pairs", "count", "higher"),
        ("der.type2_pairs", "count", "higher"),
        ("der.type3_cancels", "count", "higher"),
        ("ehtree.roots", "count", "lower"),
        ("ehtree.eliminated", "count", "higher"),
        ("ehtree.depth", "count", "higher"),
        ("bgs.pass_s", "s", "lower"),
        ("bgs.pass_jobs", "count", "lower"),
        ("partition.components", "count", "higher"),
        ("floor.localref_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return out


PER_LAYER = _per_layer()

JAVA_MODULE_OPTS = [
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
] + [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in [
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
    "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar"]]


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bd} for n, u, b, bd in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


# ------------------------------------------------------------------ build

def sources():
    """Every file the build reads: the program's and the benchmark's."""
    files = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
             BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in [ROOT / "src" / "main", ROOT / "jobs", BENCH / "src" / "main"]:
        files += sorted(p for p in d.rglob("*") if p.is_file())
    return files


def fingerprint():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def classpath():
    """Build with sbt (offline) once per source state; cache the classpath."""
    cache = TARGET / "classpath.txt"
    fp = fingerprint()
    if cache.exists():
        cached_fp, _, cp = cache.read_text().partition("\n")
        if cached_fp == fp and cp:
            return cp
    env = dict(os.environ)
    env["COURSIER_MODE"] = "offline"
    if "-Dsbt.offline=true" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    log("building the program and the benchmark with sbt")
    t0 = time.time()
    proc = run_child(["sbt", "--batch", "-Dsbt.log.noformat=true", "export Runtime/fullClasspath"],
                     BENCH, env, BUILD_TIMEOUT_S, capture=True)
    lines = [ln for ln in proc.stdout.splitlines() if ln.strip()]
    if proc.returncode != 0 or not lines or ".jar" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        raise SystemExit("build failed")
    log(f"built in {time.time() - t0:.1f} s")
    cp = lines[-1].strip()
    TARGET.mkdir(parents=True, exist_ok=True)
    cache.write_text(fp + "\n" + cp)
    return cp


def run_child(cmd, cwd, env, timeout, capture=False):
    """Run `cmd` in its own process group; on timeout kill the group and wait."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, start_new_session=True,
                            stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=subprocess.STDOUT if capture else sys.stderr,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{cmd[0]} timed out after {timeout} s")
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    proc.stdout = out
    return proc


# -------------------------------------------------------------------- run

def run_workload(cp, workload, seed, seconds, trace):
    """Run one workload in a fresh JVM; returns the result file's content."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    tmp = TARGET / "tmp"
    local = TARGET / "spark-local"
    tmp.mkdir(parents=True, exist_ok=True)
    local.mkdir(parents=True, exist_ok=True)
    out = RESULTS / f"{workload}-s{seed}-t{trace}.json"
    if out.exists():
        out.unlink()
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java, f"-Xmx{DRIVER_HEAP}", "-XX:-UsePerfData", f"-Djava.io.tmpdir={tmp}", *JAVA_MODULE_OPTS,
           "-cp", cp, "perfbench.Main", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
           "--local-dir", str(local)]
    proc = run_child(cmd, ROOT, dict(os.environ), JAVA_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise SystemExit(f"benchmark JVM failed (exit {proc.returncode})")
    return json.loads(out.read_text())


def result_line(res, trace):
    """The result as the last-line JSON object: every declared metric of
    the mode, with its unit."""
    declared = PER_LAYER if trace else END_TO_END
    got = res["metrics"]
    missing = [d[0] for d in declared if d[0] not in got]
    if missing:
        raise SystemExit(f"result lacks metrics: {missing[:5]}")
    metrics = {}
    ok = True
    for d in declared:
        v = got[d[0]]
        if v is None:  # e.g. every attempt of a method threw
            ok, v = False, -1.0
        metrics[d[0]] = {"value": v, "unit": d[1]}
    return {"correct": ok and res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main():
    # A terminated run must not leave its JVM or sbt behind: turn SIGTERM
    # into SystemExit, which run_child answers by killing its child's group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=[w for w, _ in WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--all", action="store_true", help="run every workload, traced and untraced")
    a = ap.parse_args()

    if not a.all and a.workload is None:
        ap.error("--workload or --all is required")
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        raise SystemExit(f"no program sources next to {BENCH.name}/: nothing to benchmark")

    cp = classpath()
    if a.all:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        log("wrote BENCHMARK.json")
        units = {d[0]: d[1] for d in END_TO_END + PER_LAYER}
        for w, _ in WORKLOADS:
            for trace in (0, 1):
                line = result_line(run_workload(cp, w, a.seed, a.seconds, trace), trace)
                print(f"# {w} trace={trace} correct={line['correct']} "
                      f"attempted={line['attempted']} failed={line['failed']}")
                for name, m in line["metrics"].items():
                    print(f"{w}\t{name}\t{m['value']}\t{units[name]}")
        return
    res = run_workload(cp, a.workload, a.seed, a.seconds, a.trace)
    print(json.dumps(result_line(res, a.trace)))


if __name__ == "__main__":
    main()
