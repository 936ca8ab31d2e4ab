#!/usr/bin/env python3
"""Build and run the Tonic serving benchmark.

One run measures one workload:

    python3 tonicbench/run.py --workload nlp-open --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer
metrics, each as `name value unit` lines. The last stdout line is the
result object {"correct", "attempted", "failed", "metrics"}. Each run
is also saved, with a host and config block, under
.bench_build/results/.

Other modes:

    run.py --all [--seed N] [--seconds S]  every workload, both modes
    run.py --self-test                     short runs plus a corrupted
                                           output that must be caught
    run.py --compare A.json B.json         diff two saved results; refuses
                                           when their host blocks differ

The benchmark compiles the repository's src/ tree with the CMake
package in this directory into .bench_build/ on first use.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "tonicbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD, "tonic_bench")
RUN_TIMEOUT_S = 170

# The layer a workload is chosen to stress must hold the largest
# share of its traced self time.
EXPECTED_TOP = {
    "nlp-open": {"server.queue_wait", "request_path"},
    "imc-closed": {"server.forward"},
    "asr-int8": {"tonic"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then build the benchmark target (a no-op when
    nothing changed). Build chatter goes to stderr."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "tonic_bench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            log("tonicbench: build failed: " + " ".join(cmd))
            return False
    return True


def cmake_cache(key):
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def host_block(info):
    """Everything that must match before two results compare."""
    model, flags = "", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name") and not model:
                    model = line.split(":", 1)[1].strip()
                elif line.startswith("flags") and not flags:
                    flags = set(line.split(":", 1)[1].split())
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    version = ""
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = out.stdout.splitlines()[0] if out.stdout else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "isa": {f: f in flags for f in ("avx512f", "avx512_vnni",
                                         "amx_tile")},
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "workload": info.get("workload"),
        "compute_threads": info.get("compute_threads"),
        "generator_threads": info.get("generator_threads"),
        "generator_cores": info.get("generator_cores"),
    }


def run_once(workload, seed, seconds, trace, extra=()):
    """Run the binary once; returns (exit code, info, result)."""
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, "spans-%s-seed%d.json" % (workload, seed))
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans", spans] + list(extra)
    try:
        out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("tonicbench: %s timed out after %d s" % (workload,
                                                     RUN_TIMEOUT_S))
        return 1, None, None
    info, result = None, None
    for line in out.stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "info" in obj:
            info = obj["info"]
        else:
            result = obj
    return out.returncode, info, result


def check_metrics(result, wanted):
    """Problems with @p result against the BENCHMARK.json metric list."""
    problems = []
    got = result.get("metrics", {}) if result else {}
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            problems.append("missing " + m["name"])
        elif entry.get("unit") != m["unit"]:
            problems.append("%s unit %r, expected %r"
                            % (m["name"], entry.get("unit"), m["unit"]))
        elif not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            problems.append("%s not finite" % m["name"])
    extra = set(got) - {m["name"] for m in wanted}
    problems += ["unexpected " + n for n in sorted(extra)]
    return problems


def print_metrics(result, wanted, info):
    for m in wanted:
        entry = result["metrics"].get(m["name"], {})
        print("%-32s %16.6g %s" % (m["name"], entry.get("value", float("nan")),
                                   m["unit"]))
    # Figures measured only where this workload supports them; they
    # are not in BENCHMARK.json, which needs each metric on every
    # workload. A null value lacks the samples for its percentile.
    for name, entry in info.get("scoped_metrics", {}).items():
        value = entry["value"]
        print("%-32s %16s %s (this workload only, %s samples)"
              % (name, "n/a" if value is None else "%.6g" % value,
                 entry["unit"], entry.get("samples", "?")))


def measure(args, bench):
    wanted = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]
    code, info, result = run_once(args.workload, args.seed, args.seconds,
                                  args.trace)
    if result is None or info is None:
        log("tonicbench: no result from %s" % args.workload)
        return code or 1
    problems = check_metrics(result, wanted)
    if problems:
        log("tonicbench: " + "; ".join(problems))
        return 1
    record = {"host": host_block(info),
              "loadavg_start": args.loadavg,
              "run": {"workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace},
              "info": info, "result": result}
    path = os.path.join(RESULTS, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    print("# %s seed %d trace %d -> %s" % (args.workload, args.seed,
                                          args.trace,
                                          os.path.relpath(path, ROOT)))
    print_metrics(result, wanted, info)
    print(json.dumps(result))
    return code


def run_all(args, bench):
    status = 0
    for w in bench["workloads"]:
        for trace in (0, 1):
            sub = argparse.Namespace(**vars(args))
            sub.workload, sub.trace = w["name"], trace
            code = measure(sub, bench)
            status = status or code
    return status


def self_test(bench):
    """Short mode of every workload must print every named metric with
    its unit and the expected dominant layer; a corrupted response must
    fail the run."""
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        for trace, wanted in ((0, bench["end_to_end"]),
                              (1, bench["per_layer"])):
            code, info, result = run_once(name, 1, 2, trace, ["--short"])
            problems = check_metrics(result, wanted) if result else \
                ["no result"]
            if code != 0 or not result or not result.get("correct"):
                problems.append("exit %d, correct %s"
                                % (code, result and result.get("correct")))
            if trace == 1 and info and \
                    info.get("largest_layer") not in EXPECTED_TOP[name]:
                problems.append("largest layer %s, expected %s"
                                % (info.get("largest_layer"),
                                   sorted(EXPECTED_TOP[name])))
            label = "%s trace %d" % (name, trace)
            print("%-24s %s" % (label, "ok" if not problems else
                                "FAIL: " + "; ".join(problems)))
            failures += [label] if problems else []
    name = bench["workloads"][0]["name"]
    code, info, result = run_once(name, 1, 2, 0, ["--short", "--corrupt"])
    caught = (code != 0 and result is not None and not result["correct"]
              and result["failed"] > 0 and info["mismatched"] > 0)
    print("%-24s %s" % ("corrupted output", "caught" if caught
                        else "FAIL: not detected"))
    failures += [] if caught else ["corrupt"]
    return 1 if failures else 0


def compare(paths):
    docs = []
    for p in paths:
        with open(p) as f:
            docs.append(json.load(f))
    a, b = docs
    if a["host"] != b["host"]:
        keys = sorted(set(a["host"]) | set(b["host"]))
        for k in keys:
            if a["host"].get(k) != b["host"].get(k):
                log("host differs: %s: %r vs %r"
                    % (k, a["host"].get(k), b["host"].get(k)))
        log("tonicbench: refusing to compare results from different "
            "host or config blocks")
        return 2
    ma, mb = a["result"]["metrics"], b["result"]["metrics"]
    for name in ma:
        if name not in mb:
            continue
        va, vb = ma[name]["value"], mb[name]["value"]
        delta = (vb - va) / va * 100.0 if va else float("nan")
        print("%-32s %14.6g %14.6g %+8.2f%% %s"
              % (name, va, vb, delta, ma[name]["unit"]))
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar="RESULT")
    args = ap.parse_args()
    if args.compare:
        return compare(args.compare)
    args.loadavg = list(os.getloadavg())
    bench = spec()
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    if not build():
        return 1
    if args.self_test:
        return self_test(bench)
    if args.all:
        return run_all(args, bench)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        ap.error("--workload must be one of the BENCHMARK.json workloads")
    return measure(args, bench)


if __name__ == "__main__":
    sys.exit(main())
