#!/usr/bin/env python3
"""Diff two bench-all JSON runs: exact counters, warn-only times.

Usage:
    scripts/bench_compare.py BASELINE NEW [--threshold 0.15] [--strict]

BASELINE and NEW are either directories holding BENCH_*.json files (as
emitted by `cmake --build build --target bench-all`) or two individual
JSON files. Both report schemas are understood:

  * the repo's bench_report.h schema:  {"bench": ..., "rows": [...]}
    — each row keyed by (system, category), compared on time_s, and on
    its counters messages, rounds and comm_mb;
  * google-benchmark's schema:         {"benchmarks": [...]}
    — each entry keyed by name, compared on real_time.

Counters are a property of the code, not the machine: a bench_report.h
row present in both runs whose messages, rounds or comm_mb differ AT ALL
is a counter drift, and any drift makes the exit code 1. That is the
gate CI runs against the committed baseline in bench/baseline/. The few
counters that differ between two runs of the same code are listed in
VARYING with their cause; their differences are printed, never gated.

Times are per-machine snapshots, so they only warn: a row regresses when
its time grows by more than --threshold (default 15%) relative to the
baseline, and regressions change the exit code only under --strict,
which local runs comparing two runs from the same machine can afford.

Absolute-time noise floor: rows faster than --min-seconds (default 1 ms)
in the baseline are reported but never flagged, since at that scale the
variance between two runs of the *same* binary exceeds the threshold.
"""

import argparse
import json
import os
import sys

RESET = "\033[0m"
RED = "\033[31m"
GREEN = "\033[32m"
YELLOW = "\033[33m"


# bench_report.h counters compared exactly (see the module docstring).
COUNTERS = ("messages", "rounds", "comm_mb")

# (system prefix, counter) -> why two runs of the same code differ there.
VARYING = {
    ("grape_serve/batched", "rounds"):
        "waves executed: how concurrent clients' queries fuse depends on "
        "their arrival times",
    ("grape_serve/mixed", "rounds"):
        "waves executed: fusion and write promotion depend on arrival times",
    ("GraphLab-like (GAS)", "messages"):
        "GasEngine's ghost-update frame count changes between runs of one "
        "binary at equal rounds (cause not yet found)",
}


def varying(key, counter):
    """The recorded cause when `counter` of row `key` varies run to run."""
    for (prefix, name), cause in VARYING.items():
        if name == counter and key.startswith(prefix):
            return cause
    return None


def load_rows(path):
    """Returns ({key: seconds}, {key: counters}) for one report file, any
    known schema. Only bench_report.h rows carry counters."""
    with open(path) as f:
        doc = json.load(f)
    rows = {}
    counters = {}
    if "rows" in doc:
        for row in doc["rows"]:
            key = "{}/{}".format(row.get("system", "?"),
                                 row.get("category", "?"))
            rows[key] = float(row["time_s"])
            counters[key] = {c: row.get(c) for c in COUNTERS}
    elif "benchmarks" in doc:
        for entry in doc["benchmarks"]:
            if entry.get("run_type") == "aggregate":
                continue
            unit = entry.get("time_unit", "ns")
            scale = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}[unit]
            rows[entry["name"]] = float(entry["real_time"]) * scale
    else:
        raise ValueError(f"{path}: unrecognized bench JSON schema")
    return rows, counters


def collect(path):
    """Returns {report_name: ({key: seconds}, {key: counters})} for a file
    or directory."""
    if os.path.isdir(path):
        out = {}
        for name in sorted(os.listdir(path)):
            if name.startswith("BENCH_") and name.endswith(".json"):
                out[name] = load_rows(os.path.join(path, name))
        if not out:
            raise ValueError(f"{path}: no BENCH_*.json files found")
        return out
    return {os.path.basename(path): load_rows(path)}


def main():
    parser = argparse.ArgumentParser(
        description="Diff two bench-all JSON runs: counters must match "
                    "exactly, times warn on regressions.")
    parser.add_argument("baseline")
    parser.add_argument("new")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="relative slowdown that counts as a regression "
                             "(default 0.15 = +15%%)")
    parser.add_argument("--min-seconds", type=float, default=1e-3,
                        help="baseline rows faster than this are never "
                             "flagged (noise floor, default 1ms)")
    parser.add_argument("--strict", action="store_true",
                        help="also exit 1 on time regressions (counter "
                             "drift always does)")
    parser.add_argument("--no-color", action="store_true")
    args = parser.parse_args()

    def paint(color, text):
        if args.no_color or not sys.stdout.isatty():
            return text
        return f"{color}{text}{RESET}"

    baseline = collect(args.baseline)
    new = collect(args.new)
    if os.path.isfile(args.baseline) and os.path.isfile(args.new):
        # Two explicit files are always the same report, whatever their
        # basenames; key them identically so they actually get compared.
        baseline = {"(file)": next(iter(baseline.values()))}
        new = {"(file)": next(iter(new.values()))}

    drifts = []
    for report in sorted(set(baseline) & set(new)):
        old_c, new_c = baseline[report][1], new[report][1]
        for key in sorted(set(old_c) & set(new_c)):
            for name in COUNTERS:
                old_v, new_v = old_c[key][name], new_c[key][name]
                if old_v == new_v:
                    continue
                cause = varying(key, name)
                if cause is not None:
                    print(paint(YELLOW, f"counter varies {report} {key} "
                                        f"{name}: {old_v} -> {new_v} "
                                        f"({cause})"))
                    continue
                drifts.append((report, key, name, old_v, new_v))
                print(paint(RED, f"COUNTER DRIFT {report} {key} {name}: "
                                 f"{old_v} -> {new_v}"))

    regressions = []
    improvements = 0
    compared = 0
    for report in sorted(set(baseline) & set(new)):
        printed_header = False
        old_t, new_t = baseline[report][0], new[report][0]
        for key in sorted(set(old_t) & set(new_t)):
            old_s, new_s = old_t[key], new_t[key]
            if old_s <= 0:
                continue
            compared += 1
            delta = (new_s - old_s) / old_s
            flagged = (delta > args.threshold and old_s >= args.min_seconds)
            noisy = old_s < args.min_seconds
            if flagged:
                regressions.append((report, key, old_s, new_s, delta))
            elif delta < -args.threshold:
                improvements += 1
            if not (flagged or abs(delta) > args.threshold):
                continue  # print only rows that moved
            if not printed_header:
                print(f"\n{report}")
                printed_header = True
            tag = ("REGRESSION" if flagged else
                   "noise?" if (noisy and delta > args.threshold) else
                   "improved")
            color = RED if flagged else YELLOW if tag == "noise?" else GREEN
            print("  {:<55} {:>12.6f}s -> {:>12.6f}s  {:+7.1%}  {}".format(
                key, old_s, new_s, delta, paint(color, tag)))

    missing = sorted(set(baseline) - set(new))
    extra = sorted(set(new) - set(baseline))
    for name in missing:
        print(paint(YELLOW, f"only in baseline: {name}"))
    for name in extra:
        print(paint(YELLOW, f"only in new run:  {name}"))

    print(f"\ncompared {compared} rows across "
          f"{len(set(baseline) & set(new))} reports: "
          f"{len(drifts)} counter drift(s), "
          f"{len(regressions)} time regression(s) beyond "
          f"{args.threshold:.0%}, {improvements} improvement(s)")
    if drifts or (regressions and args.strict):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
