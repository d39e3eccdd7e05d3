#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload configure-geoi|serve-steady|serve-churn \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds the harness and the
library from source into .bench_build/ (a no-op when up to date), runs
one workload, prints a readable report, and prints as its last stdout
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones. See perfbench/README.md for what each metric means.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "perfbench")
WORK_DIR = os.path.join(".bench_build", "run")
WORKLOADS = ("configure-geoi", "serve-steady", "serve-churn")
HARNESS_TIMEOUT_S = 160

# End-to-end values under their per-workload headline names, as printed in the report.
HEADLINES = {
    "configure-geoi": [("setup_s", "s"), ("configure_s", "s"), ("configure_cpu_s", "s"),
                       ("peak_rss_mb", "MB"), ("fail_frac", "ratio")],
    "serve": [("setup_s", "s"), ("burst_ms", "ms"), ("p50_ms", "ms"), ("client.p90_ms", "ms"),
              ("client.p99_ms", "ms"), ("saturated_rps", "1/s"),
              ("server_cpu_us_per_report", "us"), ("peak_rss_mb", "MB"),
              ("fail_frac", "ratio")],
}
# Sample-count key of each timing the report prints.
SAMPLES = {"p50_ms": "latency_samples", "client.p90_ms": "latency_samples",
           "client.p99_ms": "latency_samples", "burst_ms": "bursts_timed"}


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/ (expected src/CMakeLists.txt)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_rev():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
        if rev.returncode == 0:
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha1:" + h.hexdigest()


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode (None if absent)."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def clean_work_dir():
    os.makedirs(WORK_DIR, exist_ok=True)
    for name in os.listdir(WORK_DIR):
        if name.startswith("fleet-") or ".sock" in name:
            os.remove(os.path.join(WORK_DIR, name))


def report(doc, args, rev):
    host = doc["host"]
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"host: {host['cores']} cores, {host['cpu_model']}, {host['compiler']}, "
          f"{host['build_type']}, rev {rev}")
    for name, ok in sorted(doc["checks"].items()):
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    detail = doc["detail"]
    key = "configure-geoi" if args.workload == "configure-geoi" else "serve"
    if not args.trace:
        for name, unit in HEADLINES[key]:
            note = f"  (n={detail[SAMPLES[name]]})" if name in SAMPLES else ""
            print(f"  {name:<28} {detail[name]:.6g} {unit}{note}")
    print("  metrics:")
    layers = {row["name"]: row for row in detail.get("layer_map", [])}
    for name, m in sorted(doc["metrics"].items()):
        tag = ""
        if name in layers:
            tag = f"  -> {layers[name]['moves']} ({layers[name]['workload']})"
        print(f"  {name:<32} {m['value']:.6g} {m['unit']}{tag}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    clean_work_dir()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--work-dir", WORK_DIR]
    # Its own process group, so a timeout also takes down any shard
    # fleet the harness forked.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload} did not finish within {HARNESS_TIMEOUT_S} s")
    finally:
        try:  # anything the harness left behind in its group
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        clean_work_dir()
    if proc.returncode != 0:
        fail(f"{args.workload} exited with code {proc.returncode}")
    doc = json.loads(out)

    expected = expected_metrics(args.trace)
    if expected is not None:
        missing = [n for n in expected if n not in doc["metrics"]]
        if missing:
            fail("harness did not report " + ", ".join(missing))
        doc["metrics"] = {n: doc["metrics"][n] for n in expected}

    rev = source_rev()
    report(doc, args, rev)
    doc["host"]["rev"] = rev
    with open(os.path.join(WORK_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
    print(json.dumps({"correct": bool(doc["correct"]), "attempted": int(doc["attempted"]),
                      "failed": int(doc["failed"]), "metrics": doc["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
