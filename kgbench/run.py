#!/usr/bin/env python3
"""Runs one benchmark workload end to end and prints its result.

    python3 kgbench/run.py --workload train-nscaching --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run builds the library and the
benchmark binary (CMake, Release) into $CARGO_TARGET_DIR or .bench_build;
later runs only check the build is current. Each run then

  1. generates the workload's graph for --seed into .bench_work/ (not
     part of set-up time),
  2. starts the benchmark process, which times its own set-up from the
     moment it starts loading the generated files,
  3. forwards the process's last line (one JSON object: correct,
     attempted, failed, metrics) as this script's last line, and keeps
     report.json and spans.json under .bench_work/reports/.

Extra flags: --threads N (training/eval threads, default 4; the README's
1-thread reference runs), --sampler-delay-ns X and --serve-fault-us Y
(injected slowdowns, used by --selftest), and --selftest, which runs the
checker self-test and shows that the bounds catch real slowdowns.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("train-nscaching", "train-bernoulli", "serve-mixed")


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    out = os.path.join(build_dir(), "kgbench")
    log = sys.stderr
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=log, stderr=log, timeout=600)
    subprocess.run(["cmake", "--build", out, "--target", "kgbench", "-j",
                    str(min(4, os.cpu_count() or 1))],
                   check=True, stdout=log, stderr=log, timeout=1200)
    return os.path.join(out, "kgbench")


def run_once(binary, workload, seed, seconds, trace, extra=()):
    """Generates inputs and runs one workload; returns the parsed result."""
    work_root = os.path.abspath(".bench_work")
    tag = "%s-seed%d-trace%d-pid%d" % (workload, seed, trace, os.getpid())
    data = os.path.join(work_root, "inputs", tag)
    work = os.path.join(work_root, "runs", tag)
    reports = os.path.join(work_root, "reports")
    for d in (data, work, reports):
        os.makedirs(d, exist_ok=True)
    try:
        subprocess.run([binary, "gen", "--workload", workload, "--seed",
                        str(seed), "--out", data], check=True, timeout=170)
        proc = subprocess.run(
            [binary, "run", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--data", data,
             "--work", work] + list(extra),
            stdout=subprocess.PIPE, timeout=175)
        if proc.returncode != 0:
            raise RuntimeError("benchmark exited with %d" % proc.returncode)
        lines = proc.stdout.decode().strip().splitlines()
        result = json.loads(lines[-1])
        for name in ("report.json", "spans.json"):
            src = os.path.join(work, name)
            if os.path.exists(src):
                shutil.move(src, os.path.join(reports, tag + "-" + name))
        return result
    finally:
        shutil.rmtree(data, ignore_errors=True)
        shutil.rmtree(work, ignore_errors=True)


def selftest(binary, seconds):
    """Checker self-test, then injected slowdowns against the bounds."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    failures = 0
    if subprocess.run([binary, "selftest"]).returncode != 0:
        failures += 1

    def compare(workload, metric, extra, higher_is_better):
        nonlocal failures
        base, slow = [], []
        for seed in (11, 12, 13):
            base.append(run_once(binary, workload, seed, seconds, 0)
                        ["metrics"][metric]["value"])
            slow.append(run_once(binary, workload, seed, seconds, 0, extra)
                        ["metrics"][metric]["value"])
        b, s = statistics.median(base), statistics.median(slow)
        worse = (b - s) / b if higher_is_better else (s - b) / b
        caught = worse > bounds[metric]
        print("selftest %s %s: baseline %.6g, injected %.6g, worse by %.1f%% "
              "(bound %.0f%%) -> %s" % (workload, metric, b, s, 100 * worse,
                                         100 * bounds[metric],
                                         "caught" if caught else "MISSED"))
        failures += 0 if caught else 1

    compare("serve-mixed", "serve_p99_us", ["--serve-fault-us", "20000"], False)
    compare("train-bernoulli", "train_triples_per_s",
            ["--sampler-delay-ns", "3000"], True)
    print("selftest: %s" % ("pass" if failures == 0 else "%d failure(s)" % failures))
    return 0 if failures == 0 else 1


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=4)
    ap.add_argument("--sampler-delay-ns", type=int, default=0)
    ap.add_argument("--serve-fault-us", type=int, default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
        if args.selftest:
            return selftest(binary, args.seconds)
        if args.workload is None:
            ap.error("--workload is required")
        extra = ["--threads", str(args.threads)]
        if args.sampler_delay_ns:
            extra += ["--sampler-delay-ns", str(args.sampler_delay_ns)]
        if args.serve_fault_us:
            extra += ["--serve-fault-us", str(args.serve_fault_us)]
        result = run_once(binary, args.workload, args.seed, args.seconds,
                          args.trace, extra)
    except (subprocess.SubprocessError, OSError, RuntimeError, ValueError,
            KeyError, IndexError) as e:
        print("kgbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
