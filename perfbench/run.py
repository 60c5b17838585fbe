#!/usr/bin/env python3
"""Host-time benchmark of the hprs stack.

Builds the harness (perfbench/main.cpp) from source, runs one workload and
prints the result.  The last line of standard output is one JSON object
with the keys "correct", "attempted", "failed" and "metrics"; the line
before it carries the run's provenance and details.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --steady N [--seed N]
                             [--seconds S]
    python3 perfbench/run.py --workload NAME --update-reference

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (and writes its Chrome trace under the build directory).
--steady N runs the workload N times on seeds seed..seed+N-1 and prints
each end-to-end metric's median, quartiles and spread against its bound
in BENCHMARK.json.  Command-line errors exit with code 2.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-diurnal", "paper-tables")
DEFAULT_SEED = 1
REFERENCE = HERE / "reference.json"
# One harness process may take this long; a run must end within 180 s.
RUN_TIMEOUT_S = 170


class UsageError(Exception):
    pass


def positive_int(text, name, allow_zero=False):
    try:
        value = int(text, 10)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"malformed {name} '{text}': expected a whole number") from None
    if value < 0 or (value == 0 and not allow_zero):
        raise argparse.ArgumentTypeError(
            f"{name} must be {'non-negative' if allow_zero else 'positive'}, "
            f"got {value}")
    return value


def seed_type(text):
    value = positive_int(text, "seed", allow_zero=True)
    if value >= 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed {value} does not fit 64 bits")
    return value


def seconds_type(text):
    value = positive_int(text, "seconds")
    if value > 60:
        raise argparse.ArgumentTypeError(f"seconds must be at most 60, "
                                         f"got {value}")
    return value


def steady_type(text):
    return positive_int(text, "steady run count")


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv):
    parser = Parser(prog="perfbench/run.py", add_help=False,
                    description=__doc__,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--help", action="store_true")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=seed_type, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=seconds_type, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--steady", type=steady_type)
    parser.add_argument("--update-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.help:
        raise UsageError("help requested\n\n" + parser.format_help())
    if args.workload is None:
        raise UsageError("--workload is required (one of "
                         + ", ".join(WORKLOADS) + ")")
    if args.steady is not None and args.trace == "1":
        raise UsageError("--steady measures end-to-end metrics; "
                         "it takes no --trace 1")
    return args


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return ROOT / target / "perfbench"


def build():
    """Configures (once) and builds the harness; returns its path."""
    out = build_dir()
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError("build step failed: " + " ".join(step))
    return out / "perfbench"


def git_describe():
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    text = done.stdout.strip()
    return text if done.returncode == 0 and text else "unavailable"


def run_harness(binary, workload, seed, seconds, trace, check=True):
    """Runs the harness once; returns (exit code, parsed document or None).

    With `check`, the default seed's hashes are compared with REFERENCE.
    """
    results = build_dir() / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", trace, "--out", str(results)]
    if check:
        cmd += ["--reference", str(REFERENCE)]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: harness exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    sys.stderr.write(done.stderr)
    try:
        doc = json.loads(done.stdout)
    except json.JSONDecodeError:
        return done.returncode or 1, None
    doc["provenance"]["git_describe"] = git_describe()
    name = f"{workload}.seed{seed}.trace{trace}.json"
    (results / name).write_text(json.dumps(doc, indent=1) + "\n")
    return done.returncode, doc


def result_line(doc, trace):
    metrics = doc["per_layer"] if trace == "1" else doc["end_to_end"]
    return json.dumps({"correct": doc["correct"],
                       "attempted": doc["attempted"],
                       "failed": doc["failed"],
                       "metrics": metrics})


def details_line(doc):
    keys = ("workload", "seed", "trace", "tail_percentile", "samples",
            "repeats", "peak_rss_mb", "traced_ops", "traced_repeats",
            "setup_s_samples", "hashes", "errors", "probed", "provenance")
    return json.dumps({"details": {k: doc[k] for k in keys}})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(binary, args):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    samples = {}
    status = 0
    for i in range(args.steady):
        code, doc = run_harness(binary, args.workload, args.seed + i,
                               args.seconds, "0")
        if doc is None:
            return code or 1
        status = status or code
        for name, metric in doc["end_to_end"].items():
            samples.setdefault(name, []).append(metric["value"])
    summary = {}
    print(f"{'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for name in sorted(samples):
        values = samples[name]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds.get(name)
        verdict = ("n/a" if bound is None else
                   "steady" if spread <= bound / 3 else
                   "within bound" if spread <= bound else "too wide")
        print(f"{name:<12} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {bound if bound is not None else '':>6}  "
              f"{verdict}")
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bound, "values": values}
    print(json.dumps({"workload": args.workload, "runs": args.steady,
                      "seeds": [args.seed, args.seed + args.steady - 1],
                      "seconds": args.seconds, "git_describe": git_describe(),
                      "metrics": summary}))
    return status


def update_reference(binary, args):
    code, doc = run_harness(binary, args.workload, DEFAULT_SEED, args.seconds,
                           "0", check=False)
    if doc is None or code != 0:
        print("perfbench: run failed; reference not updated", file=sys.stderr)
        return code or 1
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    refs = {k: v for k, v in refs.items()
            if not k.startswith(args.workload + ".")}
    refs[args.workload + ".warmup"] = doc["hashes"]["warmup"]
    for i, h in enumerate(doc["hashes"]["ops"]):
        refs[f"{args.workload}.op.{i}"] = h
    REFERENCE.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")
    print(f"perfbench: reference for {args.workload} written to {REFERENCE}")
    return 0


def main(argv):
    try:
        args = parse_args(argv)
    except (UsageError, argparse.ArgumentTypeError) as e:
        print(f"perfbench/run.py: error: {e}", file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, RuntimeError) as e:
        print(f"perfbench/run.py: error: {e}", file=sys.stderr)
        return 1
    if args.update_reference:
        return update_reference(binary, args)
    if args.steady is not None:
        return steady(binary, args)
    code, doc = run_harness(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    if doc is None:
        return code or 1
    print(details_line(doc))
    print(result_line(doc, args.trace))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
