#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scenario SEED]

Run from the root of a source checkout. Builds perfbench/bench.exe with
dune, runs the workload in a fresh process (and, with --trace 1, again
in a second, traced one), checks the outputs, and prints one JSON object
as the last line of standard output. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
OUT = os.path.join(HERE, "out")
REFERENCES = os.path.join(HERE, "references.json")

# Fixed runtime settings for every benchmark process: one domain on the
# sim engine, and a pinned GC configuration (recorded in each result).
OCAMLRUNPARAM = "s=256k,o=120"

WORKLOADS = ["kernel_cold_100k", "deploy_eq7_30k", "deploy_armed_2k", "soak_journal_600"]

# Primary scenario (generator seed) and held-out scenario per workload.
SCENARIOS = {name: (42, 7) for name in WORKLOADS}

# Relative utility tolerance against the recorded reference.
UTILITY_TOLERANCE = {
    "kernel_cold_100k": 1e-3,
    "deploy_eq7_30k": 1e-6,
    "deploy_armed_2k": 1e-6,
}

END_TO_END = [
    ("work_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("setup.generate_s", "s"),
    ("setup.compile_s", "s"),
    ("setup.compact_s", "s"),
    ("setup.create_s", "s"),
    ("setup.first_period_s", "s"),
    ("transport.channels", "count"),
    ("metrics.instances", "count"),
    ("kernel.allocate_ms", "ms"),
    ("kernel.resource_prices_ms", "ms"),
    ("kernel.path_prices_ms", "ms"),
    ("kernel.ticks", "count"),
    ("kernel.subtasks_touched", "count"),
    ("kernel.resources_touched", "count"),
    ("kernel.paths_touched", "count"),
    ("kernel.ns_per_subtask_touched", "ns"),
    ("kernel.bytes_moved_computed", "B"),
    ("kernel.minor_words_per_tick", "words"),
    ("soak.kernel_step_ms", "ms"),
    ("soak.non_kernel_ms", "ms"),
    ("soak.window_ms_p50", "ms"),
    ("soak.words_per_tick_late", "words"),
    ("soak.admits", "count"),
    ("soak.retires", "count"),
    ("soak.chaos_windows", "count"),
    ("dist.eq7_solve_ms", "ms"),
    ("dist.allocation_self_ms", "ms"),
    ("dist.allocation_calls", "count"),
    ("dist.price_update_ms", "ms"),
    ("dist.rounds", "count"),
    ("dist.unattributed_ms", "ms"),
    ("dist.messages", "count"),
    ("transport.delivered", "count"),
    ("transport.stale", "count"),
    ("engine.events_fired", "count"),
    ("engine.us_per_event", "us"),
    ("trace.records", "count"),
    ("monitor.samples", "count"),
    ("monitor.alerts_raised", "count"),
    ("gc.minor_words_per_round", "words"),
    ("dist.checkpoint_ms", "ms"),
    ("journal.appends", "count"),
    ("journal.bytes", "B"),
    ("journal.bytes_per_record", "B"),
    ("recovery.replayed", "count"),
    ("recovery.warm", "count"),
    ("recovery.cold", "count"),
    ("gc.major_collections", "count"),
    ("gc.minor_words_per_unit", "words"),
    ("ticks_to_optimum", "ticks"),
    ("settle_ticks_worst", "ticks"),
    ("recovery_ticks_worst", "ticks"),
    ("window_p99_ms", "ms"),
    ("trace.overhead_pct", "%"),
]

# Quality metrics printed with every run, where the workload has them.
QUALITY = ["ticks_to_optimum", "settle_ticks_worst", "recovery_ticks_worst", "window_p99_ms"]

# A process that overruns this is killed; the whole run stays under 180 s.
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project")) and os.path.isdir(os.path.join(ROOT, "lib"))):
        raise BenchError("no source tree here: run from the root of a checkout holding dune-project and lib/")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        raise BenchError("build failed:\n" + proc.stdout)


def child(args, scenario, trace):
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scenario", str(scenario),
        "--seconds", str(args.seconds),
        "--out", OUT,
    ]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, OCAMLRUNPARAM=OCAMLRUNPARAM)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"benchmark process overran {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"benchmark process failed ({proc.returncode}):\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def reference_checks(workload, scenario, result):
    with open(REFERENCES) as f:
        recorded = json.load(f)[workload][str(scenario)]
    checks = []
    for key, expected in recorded.items():
        if key.startswith("note"):
            continue
        got = result["reference"].get(key)
        if key == "utility":
            tol = UTILITY_TOLERANCE[workload]
            ok = got is not None and abs(got - expected) <= tol * max(1.0, abs(expected))
            checks.append((f"utility within {tol:g} of reference", ok, f"{got!r} vs {expected!r}"))
        else:
            checks.append((f"{key} equals reference", got == expected, f"{got!r} vs {expected!r}"))
    return checks


def count_check(args, scenario, trace, counts):
    """Counts must be bit-identical across every run of one seed of one
    build: the first run records them, later runs compare."""
    with open(EXE, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    key = f"{build_id}-{args.workload}-{scenario}-{args.seed}-{args.seconds}-{int(trace)}"
    path = os.path.join(OUT, "counts", key + ".json")
    name = "counts repeat across runs of this seed" + (" (traced)" if trace else "")
    if os.path.exists(path):
        with open(path) as f:
            first = json.load(f)
        diff = sorted(k for k in set(first) | set(counts) if first.get(k) != counts.get(k))
        return (name, not diff, "differs: " + ", ".join(f"{k} {first.get(k)} -> {counts.get(k)}" for k in diff))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(counts, f, sort_keys=True)
    return (name, True, "first run of this seed: recorded")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scenario", type=int, help="generator seed (default: the workload's primary, 42)")
    args = parser.parse_args()
    scenario = SCENARIOS[args.workload][0] if args.scenario is None else args.scenario
    if scenario not in SCENARIOS[args.workload]:
        parser.error(f"no recorded reference for scenario {scenario}; choose from {SCENARIOS[args.workload]}")

    try:
        build()
        run = child(args, scenario, False)
        traced = child(args, scenario, True) if args.trace else None
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    checks = [(c["name"], c["ok"], c["detail"]) for c in run["checks"]]
    checks += reference_checks(args.workload, scenario, run)
    checks.append(count_check(args, scenario, False, run["counts"]))
    if traced:
        checks += [(c["name"] + " (traced)", c["ok"], c["detail"]) for c in traced["checks"]]
        checks.append(count_check(args, scenario, True, traced["counts"]))
    failed = [c for c in checks if not c[1]]

    values = dict(run["values"], setup_s=statistics.median(run["setup_samples"]))
    values.update(run["counts"])

    print(f"{args.workload}  scenario {scenario}  seed {args.seed}  "
          f"OCAMLRUNPARAM={run['env']['OCAMLRUNPARAM']}  ocaml {run['env']['ocaml']}  engine sim, 1 domain")
    for name, unit in END_TO_END:
        print(f"  {name:<22} {values[name]:>16.6g} {unit}")
    times = run["unit_times"]
    setups = run["setup_samples"]
    print(f"  repetitions: {len(times)}; timed phase per repetition median {statistics.median(times):.4g} s, "
          f"min {min(times):.4g} s, max {max(times):.4g} s; best of segments {run['values']['unit_s']:.4g} s")
    print(f"  set-up samples: {len(setups)}, median {statistics.median(setups):.4g} s, "
          f"min {min(setups):.4g} s, max {max(setups):.4g} s")
    for name in QUALITY:
        if name in values:
            print(f"  {name:<22} {values[name]:>16.6g}")
    for name, ok, detail in checks:
        print(f"  {'ok  ' if ok else 'FAIL'} {name}" + ("" if ok or not detail else f": {detail}"))

    if traced:
        # Profile sections come from the traced run; everything the
        # untraced run also measured is taken from the untraced run.
        layer = dict(traced["counts"], **traced["values"])
        layer.update(run["counts"])
        layer.update(run["values"])
        layer.update({k + "_s": v for k, v in run["setup"].items()})
        layer["trace.overhead_pct"] = 100.0 * (traced["values"]["unit_s"] / run["values"]["unit_s"] - 1.0)
        metrics = {name: {"value": layer.get(name, 0), "unit": unit} for name, unit in PER_LAYER}
        print(f"  spans written to {os.path.relpath(OUT, ROOT)}/spans-{args.workload}-seed{args.seed}.jsonl")
        for name, unit in PER_LAYER:
            print(f"  {name:<30} {metrics[name]['value']:>16.6g} {unit}")
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
