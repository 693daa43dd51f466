#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload join --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run builds the program and the
benchmark's JVM side from the checkout's sources with sbt (see build.sbt);
later runs reuse that build until a source file changes. Each run starts
one JVM with a pinned heap and collector, sets the workload up several
times, runs verified ops in a closed loop for --seconds, and prints the
metrics named in BENCHMARK.json: the end-to-end ones with --trace 0, the
per-layer ones with --trace 1. The last line of standard output is one JSON
object; a full record of the run goes to .bench_build/perfbench/results/.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["join", "groupby", "joinseq"]

# Pinned for every benchmark JVM: the join's modular/monolith ratio moves
# with heap size and collector alone, so neither is left to JVM defaults.
HEAP = "4g"
JVM_FLAGS = [f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC", "-XX:-UsePerfData",
             "-Dfile.encoding=UTF-8"]
BUILD_TIMEOUT_S = 700
RUN_DEADLINE_S = 175
# Units of the figures printed beside the metrics BENCHMARK.json lists.
EXTRA_UNITS = {"op_ms_tail_percentile": "%", "op_ms_tail_samples": "count",
               "op_ms_iqr_share": "fraction", "op_failure_rate": "fraction",
               "reference_s": "s", "warmup_s": "s", "pairs": "count"}
PHASES = ["localHistogram", "globalHistogram", "networkPartition",
          "localPartition", "buildProbe", "aggregate"]


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    roots = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files += [os.path.join(d, n) for n in names]
    return sorted(files)


def source_stamp():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_home():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    if not home or not os.path.isdir(os.path.join(home, "jars")):
        fail("no Spark distribution found: set SPARK_HOME")
    return home


def build_env():
    env = dict(os.environ)
    env["SPARK_HOME"] = spark_home()
    env.setdefault("COURSIER_MODE", "offline")
    repos = os.path.expanduser("~/.sbt/repositories")
    if "SBT_OPTS" not in env and os.path.exists(repos):
        env["SBT_OPTS"] = (f"-Dsbt.override.build.repos=true -Dsbt.repository.config={repos} "
                           "-Dsbt.offline=true -Xmx2g")
    return env


def build():
    """Compile with sbt when the sources changed; returns the classpath."""
    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala")):
        fail(f"the program's sources (src/main/scala) are not in {ROOT}", 2)
    stamp = source_stamp()
    stamp_file = os.path.join(STATE, "stamp")
    cp_file = os.path.join(STATE, "classpath")
    if os.path.exists(stamp_file) and os.path.exists(cp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read()
    os.makedirs(STATE, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"]
    try:
        p = subprocess.run(cmd, cwd=HERE, env=build_env(), stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build took longer than {BUILD_TIMEOUT_S} s")
    lines = [l for l in p.stdout.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or "perfbench" not in lines[-1]:
        sys.stderr.write("\n".join(lines[-40:]) + "\n")
        fail(f"build failed (sbt exit {p.returncode})")
    cp = lines[-1].strip()
    with open(cp_file, "w") as f:
        f.write(cp)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return cp


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat, or None where there is none."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return [int(x) for x in fields[1:9]]  # user .. steal
    except (OSError, ValueError, IndexError):
        return None


def steal_share(before, after):
    if before is None or after is None:
        return None
    d = [b - a for a, b in zip(before, after)]
    total = sum(d)
    return d[7] / total if total > 0 else 0.0


def run_jvm(classpath, args, work, deadline):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") \
        if os.environ.get("JAVA_HOME") else "java"
    out = os.path.join(work, "result.json")
    log = os.path.join(work, "jvm.log")
    cmd = ([java] + JVM_FLAGS +
           [f"-Djava.io.tmpdir={work}", "-cp", classpath, "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", out])
    with open(log, "w") as logf:
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=logf, stderr=subprocess.STDOUT,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            code = None
    if code != 0 or not os.path.exists(out):
        with open(log) as f:
            sys.stderr.write("".join(f.readlines()[-40:]))
        fail("the benchmark JVM timed out" if code is None else f"the benchmark JVM exited with {code}")
    with open(out) as f:
        return json.load(f)


def wall(samples):
    return [s["wall_ms"] for s in samples]


def end_to_end(res):
    """The end-to-end metrics, plus figures printed beside them."""
    main = res["main_op"]
    ok = [s for s in res["samples"] if s["op"] == main and not s["traced"] and s["ok"]]
    if not ok:
        return {}, {}
    value, pct, n = stats.tail(wall(ok))
    m = {
        "setup_s": stats.median(res["setup_rep_s"]),
        "op_ms_p50": stats.median(wall(ok)),
        "op_ms_tail": value,
        "cpu_ms_per_op": stats.median([s["cpu_ms"] for s in ok]),
        "alloc_mb_per_op": stats.median([s["alloc_b"] for s in ok]) / 1e6,
        "resident_heap_mb": res["resident_heap_b"] / 1e6,
    }
    extra = {"op_ms_tail_percentile": pct, "op_ms_tail_samples": n,
             "op_ms_iqr_share": stats.iqr_share(wall(ok)),
             "reference_s": res["reference_s"], "warmup_s": res["warmup_s"]}
    pairs = stats.abab_pairs([s for s in res["samples"] if not s["traced"] and s["ok"]])
    if pairs:
        m["plans.modular_over_monolith"] = stats.pair_ratio_median(pairs)
        m["monolith.op_ms_p50"] = stats.median([b for _, b in pairs])
        extra["pairs"] = len(pairs)
    return m, extra


def per_layer(res):
    main = res["main_op"]
    samples = [s for s in res["samples"] if s["ok"]]
    traced = [s for s in samples if s["op"] == main and s["traced"]]
    untraced = [s for s in samples if s["op"] == main and not s["traced"]]
    mono = [s for s in samples if s["op"] == "monolith" and s["traced"]]
    m = {}
    if traced:
        for key in traced[0]["layers"]:
            name = "plans." + key if key.startswith("phase.") else key
            m[name] = stats.median([s["layers"][key] for s in traced])
        m["trace.op_ms_p50"] = stats.median(wall(traced))
    if traced and untraced:
        m["trace.overhead_ratio"] = m["trace.op_ms_p50"] / stats.median(wall(untraced))
    for p in PHASES[:-1]:  # the monolith has no aggregate phase
        if mono:
            m[f"monolith.phase.{p}_ms"] = stats.median([s["layers"][f"phase.{p}_ms"] for s in mono])
    if untraced:
        m["jvm.gc_ms_per_op"] = sum(s["gc_ms"] for s in untraced) / len(untraced)
        m["jvm.gc_count_per_op"] = sum(s["gc_count"] for s in untraced) / len(untraced)
    m.update(res["isolation"])
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + RUN_DEADLINE_S
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    classpath = build()
    deadline = max(deadline, time.monotonic() + RUN_DEADLINE_S - 30)

    work = os.path.join(STATE, "work", str(os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    t0 = cpu_times()
    try:
        res = run_jvm(classpath, args, work, deadline)
    finally:
        t1 = cpu_times()
        shutil.rmtree(work, ignore_errors=True)

    e2e, extra = end_to_end(res)
    if not e2e:
        sys.stderr.write("".join(f"# FAILED {f_}\n" for f_ in res["failures"][:20]))
        fail("no op passed verification")
    layers = {**e2e, **per_layer(res)} if args.trace else {}
    failed = len(res["failures"])
    attempted = res["attempted"]
    fp = res["fingerprint"]
    fp.update(nproc=os.cpu_count(), host_steal_share=steal_share(t0, t1),
              oversubscribed=fp["ranks"] > (os.cpu_count() or 1), jvm_flags=JVM_FLAGS,
              seconds=args.seconds)
    extra["op_failure_rate"] = failed / attempted

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    computed = layers if args.trace else e2e
    metrics = {}
    for w in wanted:
        value = computed.get(w["name"], 0.0 if args.trace else None)
        if value is None:
            fail(f"metric {w['name']} was not measured")
        metrics[w["name"]] = {"value": value, "unit": w["unit"]}

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "fingerprint": fp, "attempted": attempted, "failed": failed,
              "failures": res["failures"][:20],
              "attribution_violations": res["attribution_violations"], "end_to_end": e2e, "extra": extra,
              "per_layer": layers, "setup_rep_s": res["setup_rep_s"],
              "generate_rep_s": res["generate_rep_s"],
              "samples": [{k: s[k] for k in ("op", "step", "traced", "ok", "wall_ms", "cpu_ms",
                                             "alloc_b", "gc_ms", "gc_count")}
                          for s in res["samples"]]}
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    with open(os.path.join(STATE, "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ranks={fp['ranks']} machines={fp['machines']} nproc={fp['nproc']} "
          f"oversubscribed={fp['oversubscribed']} steal={fp['host_steal_share']}")
    print(f"# jvm {fp['jdk']} {' '.join(fp['jvm_args'])} collectors={fp['collectors']}")
    print(f"# sizes {json.dumps(fp['sizes'])}")
    units = {w["name"]: w["unit"] for w in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    for name, value in sorted({**computed, **extra}.items()):
        print(f"{name} = {value} {units.get(name, '')}".rstrip())
    for f_ in res["failures"][:20]:
        print(f"# FAILED {f_}")
    for v in res["attribution_violations"][:5]:
        print(f"# ATTRIBUTION {v}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
