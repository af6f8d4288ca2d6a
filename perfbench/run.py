#!/usr/bin/env python3
"""PEACE deployment benchmark runner (see perfbench/README.md).

One run:
    python3 perfbench/run.py --workload handshake --seed 1 --seconds 10 --trace 0

builds the repo's libraries and the C++ benchmark program from source (CMake, Release)
into .bench_build/ (or $CARGO_TARGET_DIR when it points inside the checkout),
runs one seeded workload, and prints its detail line followed by
the result line {"correct", "attempted", "failed", "metrics"}. A wrong
protocol verdict or output makes the run exit non-zero without a result.

Steadiness report (repetitions with distinct seeds, per workload):
    python3 perfbench/run.py --report --reps 10 [--workloads a,b] \
        [--seed-base 1] [--out set1.json] [--compare set0.json]
prints median, quartiles and the quartile spread against each metric's
bound, and with --compare the drift of every median against an earlier set.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["handshake", "flash_crowd", "revocation_wave", "session_stream"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", "")
    if target:
        path = os.path.abspath(os.path.join(ROOT, target))
        if os.path.commonpath([path, ROOT]) == ROOT:
            return path
    return os.path.join(ROOT, ".bench_build")


def run_checked(cmd, timeout):
    """Runs a build step with its output on stderr; waits for it to end."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out: {' '.join(cmd)}")
        return 1


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no src/ tree next to perfbench/: not a full checkout")
        return None
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_checked(cmd, BUILD_TIMEOUT_S) != 0:
            log("configure failed")
            return None
    if run_checked(["cmake", "--build", out, "-j", jobs], BUILD_TIMEOUT_S) != 0:
        log("build failed")
        return None
    binary = os.path.join(out, "peace_perfbench")
    return binary if os.path.isfile(binary) else None


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this kind of run."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_once(binary, workload, seed, seconds, trace):
    """Runs the benchmark program; returns (detail, result) or raises RuntimeError."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"{workload}: timed out")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload}: benchmark program exited {proc.returncode}")
    lines = [l for l in stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise RuntimeError(f"{workload}: benchmark program printed no result")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise RuntimeError(f"{workload}: malformed result line")
    if result["correct"] is not True or result["attempted"] < 1:
        raise RuntimeError(f"{workload}: result not correct")
    declared = declared_metrics(trace)
    if declared is not None:
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != declared:
            diff = set(got.items()) ^ set(declared.items())
            raise RuntimeError(
                f"{workload}: metrics differ from BENCHMARK.json: {sorted(diff)}")
    return detail, result


def bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)
            if statistics.median(values) else float("inf"),
            "values": values}


def report(args):
    binary = build()
    if binary is None:
        return 1
    spec = bounds()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    out = {}
    for w in workloads:
        runs = {}
        for i in range(args.reps):
            seed = args.seed_base + i
            detail, result = run_once(binary, w, seed, args.seconds, False)
            for name, m in result["metrics"].items():
                runs.setdefault(name, []).append(m["value"])
            for name, m in detail["perfbench"]["named"].items():
                if isinstance(m, dict) and "value" in m:
                    runs.setdefault("named." + name, []).append(m["value"])
                elif isinstance(m, dict):  # the unnormalized figures
                    for k, v in m.items():
                        runs.setdefault(f"named.{name}.{k}", []).append(v)
            log(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
        out[w] = {name: summarize(v) for name, v in runs.items()}

    old = None
    if args.compare:
        with open(args.compare) as f:
            old = json.load(f)
    worst = []
    print(f"{'workload':16} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12}"
          f" {'spread':>8} {'bound':>6}" + (f" {'drift':>8}" if old else ""))
    for w, metrics in out.items():
        for name, s in sorted(metrics.items()):
            b = spec.get(name)
            bound = b["bound"] if b else None
            line = (f"{w:16} {name:36} {s['median']:12.6g} {s['q1']:12.6g} "
                    f"{s['q3']:12.6g} {s['spread']:8.3f} "
                    f"{(f'{bound:.2f}' if bound is not None else '-'):>6}")
            if old and name in old.get(w, {}):
                prev = old[w][name]["median"]
                drift = (s["median"] - prev) / prev if prev else 0.0
                if b and b["better"] == "higher":
                    drift = -drift
                line += f" {drift:8.3f}"
                if b and drift > bound:
                    worst.append(f"{w}/{name}: median worse by {drift:.3f} > {bound}")
            if b and s["spread"] > bound:
                worst.append(f"{w}/{name}: spread {s['spread']:.3f} > {bound}")
            print(line)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)
    for w in worst:
        print("OUT OF BOUND: " + w)
    return 1 if worst else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--reps", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", default="")
    args = ap.parse_args()

    try:
        if args.report:
            return report(args)
        if not args.workload:
            ap.error("--workload is required")
        binary = build()
        if binary is None:
            return 1
        detail, result = run_once(binary, args.workload, args.seed,
                                  args.seconds, bool(args.trace))
    except (RuntimeError, OSError, ValueError, KeyError) as e:
        log(str(e))
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
