#!/usr/bin/env python3
"""Runs the dmx pipeline benchmark for one workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of the repository. Steps:

1. build the `dmx-perfbench` package (release, offline) into
   $CARGO_TARGET_DIR, default `.bench_build`;
2. compute the exhaustive reference front for this workload and seed,
   unless `perfbench/out/ref/` already holds it (untimed);
3. run one measurement and check it.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`. The full
record (sample counts, quartiles, host fingerprint, span table) goes
to `perfbench/out/<workload>-seed<N>-trace<T>.json`, and a traced run
also writes a Perfetto timeline next to it. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("easyport-exhaustive", "embedded-mix-grammar-ga", "server-mix-fidelity")

BUILD_TIMEOUT_S = 700
RUN_LIMIT_S = 175


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout, capture=False):
    """Runs `cmd` from the repository root; stdout goes to our stderr
    unless captured. A timeout kills the child and waits for it."""
    try:
        return subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else sys.stderr,
            text=True,
            timeout=max(timeout, 1),
        )
    except subprocess.TimeoutExpired:
        fail(f"`{' '.join(cmd)}` timed out after {timeout:.0f} s")
    except OSError as e:
        fail(f"cannot run `{cmd[0]}`: {e}")


def probe(cmd):
    """A helper command's output lines, or [] if it fails."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return []
    return out.stdout.strip().splitlines() if out.returncode == 0 else []


def git_commit():
    """HEAD of the repository this benchmark sits in, or "unknown" when
    the checkout is not a git work tree of its own."""
    lines = probe(["git", "rev-parse", "--show-toplevel", "HEAD"])
    if len(lines) == 2 and os.path.realpath(lines[0]) == os.path.realpath(ROOT):
        return lines[1]
    return "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in (0, 120]")
    trace = args.trace == "1"
    started = time.monotonic()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = target if os.path.isabs(target) else os.path.join(ROOT, target)
    os.environ["CARGO_TARGET_DIR"] = target
    build = run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        BUILD_TIMEOUT_S,
    )
    if build.returncode != 0:
        fail("building dmx-perfbench failed")
    binary = os.path.join(target, "release", "dmx-perfbench")
    budget_start = time.monotonic()

    ref_dir = os.path.join(OUT, "ref")
    os.makedirs(ref_dir, exist_ok=True)
    ref = os.path.join(ref_dir, f"{args.workload}-seed{args.seed}.txt")
    if not os.path.exists(ref):
        tmp = f"{ref}.{os.getpid()}.tmp"
        made = run(
            [binary, "reference", "--workload", args.workload, "--seed", str(args.seed),
             "--out", tmp],
            RUN_LIMIT_S - (time.monotonic() - budget_start),
        )
        if made.returncode != 0:
            fail("computing the reference front failed")
        os.replace(tmp, ref)

    # One malloc arena: the evaluator starts a worker thread per batch,
    # and which glibc arena each one lands in moved the peak RSS of the
    # same work by a quarter from run to run.
    os.environ["MALLOC_ARENA_MAX"] = "1"
    measured = run(
        [binary, "measure", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", args.trace,
         "--reference", ref, "--out", OUT],
        RUN_LIMIT_S - (time.monotonic() - budget_start),
        capture=True,
    )
    lines = measured.stdout.strip().splitlines()
    if measured.returncode != 0 or not lines:
        fail("the measurement failed")
    result = json.loads(lines[-1])

    metrics = result["metrics"]
    for spec in expected_metrics(trace):
        m = metrics.get(spec["name"])
        if m is None or m["unit"] != spec["unit"] or not math.isfinite(m["value"]):
            fail(f"metric {spec['name']} is missing, non-finite or in the wrong unit")

    details = result.pop("details")
    details["host"] = {
        "nproc": details.pop("nproc"),
        "cpu_model": details.pop("cpu_model"),
        "workers": details.pop("workers"),
        "obs_compiled": details.pop("obs_compiled"),
        "rustc": (probe(["rustc", "--version"]) or ["unknown"])[0],
        "build_profile": "release",
        "git_commit": git_commit(),
    }
    details["wall_s"] = time.monotonic() - started
    record = dict(result, details=details)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    host = details["host"]
    print(f"workload {args.workload}, seed {args.seed}, {host['workers']} worker(s) on "
          f"{host['nproc']} CPU(s) ({host['cpu_model']}), {host['rustc']}, commit "
          f"{host['git_commit']}, obs compiled {'in' if host['obs_compiled'] else 'out'}")
    ex = details["explore_s"]
    print(f"explore_s over {ex['samples']} explorations: median {ex['median']:.4f} s, "
          f"quartiles {ex['q1']:.4f} .. {ex['q3']:.4f} s")
    if "kernel" in details:
        k = details["kernel"]
        print(f"slowest sampled config {k['worst_label']} at {k['worst_ns_per_pool_op']:.1f} "
              f"ns/pool op; fastest {k['best_label']} at {k['best_ns_per_pool_op']:.1f}")
    for name, m in metrics.items():
        print(f"  {name:<36} {m['value']:>16.6g} {m['unit']}")
    for msg in details["failures"]:
        print(f"FAILED: {msg}")
    print(f"full record: {os.path.relpath(path, ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
