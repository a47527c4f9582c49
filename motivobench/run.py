#!/usr/bin/env python3
"""Count-query benchmark runner.

Builds the program and the benchmark's code from source (sbt, offline), then
runs one workload in a fresh JVM:

    python3 motivobench/run.py --workload build-spark --seed 1 --seconds 20 --trace 0

The last line of standard output is the JSON result. The exit code is 0 when
every correctness gate passed, 1 when one failed, and 2 or 3 when the
benchmark could not build or run. `--selftest` runs every workload at tiny
size and checks that each metric in BENCHMARK.json is emitted with its unit
and that a perturbed reference makes the build-spark gate fail.

Run it from the root of a checkout; everything it writes stays inside it
(motivobench/target for the build, .bench_build for Spark's scratch space,
temporary files and span traces).
"""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "motivobench")
TARGET = os.path.join(BENCH, "target")
SCRATCH = os.path.join(ROOT, ".bench_build")
# Files whose change triggers a rebuild: the program's build and sources, and
# the benchmark's.
SOURCES = ["build.sbt", "src/main/scala", "jobs", "motivobench/src", "motivobench/build.sbt",
           "motivobench/project/build.properties"]
HEAP = ["-Xmx3g"]
# Spark's task threads: half the cores. The rest are left to the driver, the
# JIT compiler and the GC threads; with a task thread on every core of a
# shared host, query times follow the scheduler more than the program.
SPARK_THREADS = max(1, len(os.sched_getaffinity(0)) // 2)
# A run of a BENCHMARK.json workload must end within 180 s; sample-spark runs
# by hand only and one of its queries alone can take two minutes.
RUN_TIMEOUT_S = 170
MANUAL_RUN_TIMEOUT_S = 1800
SELFTEST_TIMEOUT_S = 900
BUILD_TIMEOUT_S = 840

# Spark 4 on JDK 17 needs the same module opens as the program's own build.
JVM_OPTS = [
    "--add-opens=java.base/java.lang=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.invoke=ALL-UNNAMED",
    "--add-opens=java.base/java.lang.reflect=ALL-UNNAMED",
    "--add-opens=java.base/java.io=ALL-UNNAMED",
    "--add-opens=java.base/java.net=ALL-UNNAMED",
    "--add-opens=java.base/java.nio=ALL-UNNAMED",
    "--add-opens=java.base/java.util=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent=ALL-UNNAMED",
    "--add-opens=java.base/java.util.concurrent.atomic=ALL-UNNAMED",
    "--add-opens=java.base/jdk.internal.ref=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
    "--add-opens=java.base/sun.nio.cs=ALL-UNNAMED",
    "--add-opens=java.base/sun.security.action=ALL-UNNAMED",
    "--add-opens=java.base/sun.util.calendar=ALL-UNNAMED",
    "-Djdk.reflect.useDirectMethodHandleAccessor=false",
    "-Dspark.driver.host=127.0.0.1",
    "-Dspark.ui.enabled=false",
    # Tungsten memory pages default to 32-64 MB at this heap size, so a
    # GC's heap reading depended on how many tasks held a page at that
    # moment. 1 MB pages make live_heap_mb follow the data instead.
    "-Dspark.buffer.pageSize=1m",
]


def fail(code, msg):
    print(f"motivobench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_stamp():
    h = hashlib.sha256()
    for rel in SOURCES:
        path = os.path.join(ROOT, rel)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def spark_jars():
    """The Spark jar directory of the program's own build, else $SPARK_HOME/jars."""
    with open(os.path.join(ROOT, "build.sbt")) as fh:
        m = re.search(r'Compile\s*/\s*unmanagedBase\s*:=\s*file\("([^"]+)"\)', fh.read())
    jars = m.group(1) if m else os.path.join(os.environ.get("SPARK_HOME", ""), "jars")
    if not os.path.isdir(jars):
        fail(2, f"Spark jars not found at '{jars}'")
    return jars


def build():
    """Compiles with sbt unless the sources are unchanged since the last build;
    returns the runtime classpath."""
    for rel in ("build.sbt", "src/main/scala/repro/core/Motivo.scala", "jobs/JobUtil.scala"):
        if not os.path.isfile(os.path.join(ROOT, rel)):
            fail(2, f"{rel} not found: run from the root of a full checkout")
    stamp_file = os.path.join(TARGET, "stamp.txt")
    cp_file = os.path.join(TARGET, "classpath.txt")
    stamp = source_stamp()
    if os.path.isfile(cp_file) and os.path.isfile(stamp_file):
        with open(stamp_file) as fh:
            if fh.read() == stamp:
                with open(cp_file) as cp:
                    return cp.read()
    sbt_opts = ["-Dsbt.log.noformat=true", "-Dsbt.offline=true"]
    repos = os.path.expanduser("~/.sbt/repositories")
    if os.path.isfile(repos):
        sbt_opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env = dict(os.environ, COURSIER_MODE="offline", MOTIVOBENCH_SPARK_JARS=spark_jars())
    print("motivobench: building with sbt", file=sys.stderr)
    try:
        done = subprocess.run(["sbt", "--batch", *sbt_opts, "compile", "writeClasspath"],
                              cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(2, "build timed out")
    if done.returncode != 0 or not os.path.isfile(cp_file):
        fail(2, f"build failed (sbt exit {done.returncode})")
    with open(stamp_file, "w") as fh:
        fh.write(stamp)
    with open(cp_file) as cp:
        return cp.read()


def java(classpath, args, capture, timeout):
    """Runs BenchMain in a fresh JVM on local[SPARK_THREADS] Spark, with every file
    Spark and the JVM write kept under .bench_build."""
    for d in ("spark-local", "tmp", "run", "traces"):
        os.makedirs(os.path.join(SCRATCH, d), exist_ok=True)
    env = dict(os.environ,
               SPARK_MASTER=f"local[{SPARK_THREADS}]",
               SPARK_LOCAL_DIRS=os.path.join(SCRATCH, "spark-local"))
    # the program's session builder decides the shuffle partitions
    env.pop("SPARK_SHUFFLE_PARTITIONS", None)
    cmd = ["java", *JVM_OPTS, *HEAP, "-Djava.io.tmpdir=" + os.path.join(SCRATCH, "tmp"),
           "-cp", classpath, "repro.perf.BenchMain", *args]
    try:
        return subprocess.run(cmd, cwd=os.path.join(SCRATCH, "run"), env=env,
                              stdin=subprocess.DEVNULL, timeout=timeout,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(3, f"benchmark did not finish within {timeout} s")


def selftest(classpath):
    """Checks the tiny runs against BENCHMARK.json; returns the exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    done = java(classpath, ["--selftest"], capture=True, timeout=SELFTEST_TIMEOUT_S)
    problems, cases = [], 0
    for line in done.stdout.splitlines():
        if not line.startswith("SELFTEST "):
            print(line)
            continue
        _, workload, trace, perturbed, payload = line.split(" ", 4)
        cases += 1
        out = json.loads(payload)
        label = f"{workload} trace={trace} perturbed={perturbed}"
        got = {k: v["unit"] for k, v in out["metrics"].items()}
        if got != want[int(trace)]:
            problems.append(f"{label}: metrics/units differ from BENCHMARK.json: "
                            f"missing {sorted(set(want[int(trace)]) - set(got))}, "
                            f"extra {sorted(set(got) - set(want[int(trace)]))}, "
                            f"unit mismatches {sorted(k for k in got if k in want[int(trace)] and got[k] != want[int(trace)][k])}")
        if set(out) != {"correct", "attempted", "failed", "metrics"} or out["attempted"] < 1:
            problems.append(f"{label}: malformed result {sorted(out)}")
        if perturbed == "1" and (out["correct"] or out["failed"] < 1):
            problems.append(f"{label}: perturbed reference did not fail the gate")
        if perturbed == "0" and (not out["correct"] or out["failed"] != 0):
            problems.append(f"{label}: {out['failed']} of {out['attempted']} queries failed")
        print(f"selftest {label}: attempted={out['attempted']} failed={out['failed']}")
    if done.returncode != 0 or cases != 7:
        problems.append(f"BenchMain exited {done.returncode} after {cases} of 7 cases")
    for p in problems:
        print(f"selftest FAILED: {p}", file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok", "cases": cases}))
    return 1 if problems else 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")
    classpath = build()
    if a.selftest:
        sys.exit(selftest(classpath))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = {w["name"] for w in json.load(fh)["workloads"]}
    timeout = RUN_TIMEOUT_S if a.workload in listed else MANUAL_RUN_TIMEOUT_S
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.trace:
        args += ["--trace-out", os.path.join(SCRATCH, "traces", f"{a.workload}-seed{a.seed}.jsonl")]
    sys.exit(java(classpath, args, capture=False, timeout=timeout).returncode)


if __name__ == "__main__":
    main()
