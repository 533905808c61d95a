#!/usr/bin/env python3
"""Build the program and the L2R benchmark from source, then run one workload.

    python3 l2rbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. The first run builds with sbt (offline)
and caches the classpath under $CARGO_TARGET_DIR (default .bench_build),
keyed by a hash of the sources; later runs start the JVM directly. The last
line of standard output is the run's JSON result; the exit code is the
JVM's (1 when an output check fails, 2 on bad arguments).
"""
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "l2rbench"

BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 175
# One JVM, fixed heap, so runs do not differ in how the heap grows.
JVM_OPTS = ["-Xms3g", "-Xmx3g", "-XX:+AlwaysPreTouch", "-XX:+UseG1GC", "-XX:+IgnoreUnrecognizedVMOptions",
            "--add-opens=java.base/java.lang=ALL-UNNAMED",
            "--add-opens=java.base/java.nio=ALL-UNNAMED",
            "--add-opens=java.base/sun.nio.ch=ALL-UNNAMED",
            "--add-opens=java.base/java.util=ALL-UNNAMED"]


def fail(msg):
    print(f"l2rbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    """Hash of everything the build reads from this checkout."""
    inputs = [ROOT / "build.sbt", ROOT / "project" / "build.properties",
              BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    for d in (ROOT / "src" / "main", ROOT / "jobs", BENCH / "src" / "main"):
        inputs += sorted(p for p in d.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in inputs:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def classpath():
    if not (ROOT / "build.sbt").is_file() or not (ROOT / "src" / "main" / "scala").is_dir():
        fail(f"no program sources at {ROOT}: run from a full checkout")
    cp_file = OUT / f"classpath-{source_hash()}.txt"
    if cp_file.is_file():
        return cp_file.read_text().strip()
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if "-Dsbt.offline" not in env.get("SBT_OPTS", ""):
        env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Dsbt.offline=true").strip()
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "export l2rbench/Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=BENCH, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              stdin=subprocess.DEVNULL, text=True, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    lines = proc.stdout.strip().splitlines()
    sys.stderr.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0 or not lines or "classes" not in lines[-1]:
        fail(f"build failed (sbt exit {proc.returncode})")
    OUT.mkdir(parents=True, exist_ok=True)
    for old in OUT.glob("classpath-*.txt"):
        old.unlink()
    cp_file.write_text(lines[-1] + "\n")
    return lines[-1]


def main():
    cp = classpath()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java",
           *JVM_OPTS,
           f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
           f"-Dl2rbench.out={OUT}",
           "-cp", cp, "l2rbench.Main", *sys.argv[1:]]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
