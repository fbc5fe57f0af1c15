#!/usr/bin/env python3
"""End-to-end benchmark of the PRS runtime on the host wall clock.

Builds perfbench/prs_perfbench (and the PRS libraries it links) in Release
under .bench_build, runs one workload, turns its raw samples into the
metrics BENCHMARK.json names, checks the result against the digest and
virtual time pinned for the seed, and prints one JSON line:

  python3 perfbench/run.py --workload cmeans_iter --seed 3 --trace 0

--seconds defaults to BENCHMARK.json's run_seconds. --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the spans to .bench_build/spans/). The exit code is 0 only when every
job reproduced its pinned digest and virtual time. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PINS = os.path.join(HERE, "pins.json")

# Driver seeds map onto this many pinned input seeds (1..PIN_VARIANTS).
PIN_VARIANTS = 16
RUN_TIMEOUT_S = 170
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class BenchError(Exception):
    pass


def input_seed(seed):
    return seed % PIN_VARIANTS + 1


def percentile(xs, q):
    """Linear interpolation between closest ranks (prs::percentile)."""
    if not xs:
        raise BenchError("percentile of an empty sample")
    s = sorted(xs)
    pos = q / 100.0 * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    frac = pos - lo
    return s[lo] * (1.0 - frac) + s[hi] * frac


def median(xs):
    return percentile(xs, 50.0)


def end_to_end(raw):
    """Maps the harness's raw samples to {metric: (value, sample count)}."""
    samples = raw["samples"]

    def need(name):
        xs = samples.get(name)
        if not xs:
            raise BenchError("harness reported no '%s' samples" % name)
        return xs

    return {
        "setup_s": (median(need("setup_s")), len(samples["setup_s"])),
        "job_wall_s": (median(need("job_wall_s")), len(samples["job_wall_s"])),
        "job_wall_1t_s": (median(need("job_wall_1t_s")),
                          len(samples["job_wall_1t_s"])),
        "jobs_per_s": (median(need("jobs_per_s")), len(samples["jobs_per_s"])),
        "peak_rss_mb": (raw["scalars"]["peak_rss_mb"], 1),
    }


def per_layer(raw):
    return {name: (value, 1) for name, value in raw["layers"].items()}


def validate_spec(spec):
    """Checks BENCHMARK.json's metric names and units; returns {name: unit}
    for the end-to-end and per-layer lists."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        units = {}
        for m in spec[section]:
            name, unit = m["name"], m["unit"]
            if not NAME_RE.match(name):
                raise BenchError("bad metric name %r" % name)
            if not UNIT_RE.match(unit):
                raise BenchError("bad unit %r for %s" % (unit, name))
            if name in units or any(name in u for u in out.values()):
                raise BenchError("metric %r listed twice" % name)
            units[name] = unit
        out[section] = units
    return out


def check_names(measured, units):
    """The harness must report exactly the metrics BENCHMARK.json lists."""
    missing = sorted(set(units) - set(measured))
    extra = sorted(set(measured) - set(units))
    if missing or extra:
        raise BenchError("metric names differ from BENCHMARK.json: "
                         "missing %s, unexpected %s" % (missing, extra))
    for name, (value, _) in measured.items():
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError("metric %s is not a finite number: %r"
                             % (name, value))


def pin_key(workload, smoke):
    return workload + ("@smoke" if smoke else "")


def check_pin(raw, pins, key):
    """True when the run's digest and virtual time equal the pinned ones."""
    pin = pins.get(key, {}).get(str(raw["input_seed"]))
    if pin is None:
        print("perfbench: no pin for %s input seed %s"
              % (key, raw["input_seed"]), file=sys.stderr)
        return False
    ok = pin["digest"] == raw["digest"] and pin["virtual_s"] == raw["virtual_s"]
    if not ok:
        print("perfbench: pin mismatch for %s seed %s: digest %s virtual %r, "
              "pinned %s %r" % (key, raw["input_seed"], raw["digest"],
                               raw["virtual_s"], pin["digest"],
                               pin["virtual_s"]), file=sys.stderr)
    return ok


def result_line(correct, attempted, failed, measured, units):
    metrics = {name: {"value": measured[name][0], "unit": units[name]}
               for name in units}
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures (once) and builds the harness; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("PRS sources not found under %s; run from a full "
                         "checkout" % ROOT)
    bdir = os.path.join(build_dir(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(build_dir(), "perfbench-build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "--target", "prs_perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                raise BenchError("build failed; log in %s" % log_path)
    return os.path.join(bdir, "prs_perfbench")


def run_harness(binary, workload, seed, seconds, trace, smoke, pin=False):
    """Runs one workload in the harness; returns its raw JSON object."""
    tmp = os.path.join(build_dir(), "tmp", "%s-%d" % (workload, os.getpid()))
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload=" + workload,
           "--input-seed=%d" % input_seed(seed), "--seconds=%g" % seconds,
           "--tmp-dir=" + tmp]
    if trace:
        spans_dir = os.path.join(build_dir(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--trace", "--spans=" + os.path.join(
            spans_dir, "%s-seed%d.json" % (workload, seed))]
    if smoke:
        cmd.append("--smoke")
    if pin:
        cmd.append("--pin")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("harness exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def print_table(measured, units, raw, failed, correct):
    print("%-26s %16s %-8s %s" % ("metric", "value", "unit", "samples"),
          file=sys.stderr)
    for name in units:
        value, n = measured[name]
        print("%-26s %16.6g %-8s %d" % (name, value, units[name], n),
              file=sys.stderr)
    attempted = raw["attempted"]
    print("%s seed %d: %d jobs attempted, %d failed (fail_ratio %.4g), "
          "digest %s, correct=%s" % (raw["workload"], raw["input_seed"],
                                    attempted, failed, failed / attempted,
                                    raw["digest"], correct), file=sys.stderr)


def write_pins(binary, smoke):
    """Regenerates pins.json from the current build (every workload, every
    input seed). Only for a commit whose digests are known good."""
    pins = {}
    if os.path.isfile(PINS):
        with open(PINS) as f:
            pins = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    for w in workloads:
        entry = {}
        for s in range(PIN_VARIANTS):
            raw = run_harness(binary, w, s, 1, False, smoke, pin=True)
            entry[str(raw["input_seed"])] = {"digest": raw["digest"],
                                             "virtual_s": raw["virtual_s"]}
        pins[pin_key(w, smoke)] = entry
        print("pinned %s" % pin_key(w, smoke), file=sys.stderr)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs; checks the harness, not performance")
    ap.add_argument("--write-pins", action="store_true",
                    help="regenerate the pins from this build")
    args = ap.parse_args(argv)

    units = validate_spec(spec)
    binary = build()
    if args.write_pins:
        write_pins(binary, args.smoke)
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError("--workload must be one of %s" % names)
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    raw = run_harness(binary, args.workload, args.seed, args.seconds,
                      args.trace == 1, args.smoke)
    section = units["per_layer" if args.trace else "end_to_end"]
    measured = per_layer(raw) if args.trace else end_to_end(raw)
    check_names(measured, section)
    with open(PINS) as f:
        pins = json.load(f)
    pinned = check_pin(raw, pins, pin_key(args.workload, args.smoke))
    failed = raw["failed"] if pinned else raw["attempted"]
    correct = pinned and failed == 0
    print_table(measured, section, raw, failed, correct)
    print(result_line(correct, raw["attempted"], failed, measured, section))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: error: %s" % e, file=sys.stderr)
        sys.exit(2)
