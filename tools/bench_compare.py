#!/usr/bin/env python3
"""Compare two canonical bench JSONs (bench/bench_canonical.cpp output) and
fail on performance regressions.

  tools/bench_compare.py BASELINE.json CANDIDATE.json [--tolerance 0.25]

Per metric present in the baseline, the candidate's median_s may exceed the
baseline's by at most `tolerance` (relative, e.g. 0.25 = +25%); anything
slower is a regression and the script exits 1. Metrics the baseline has but
the candidate lacks are failures too (a silently dropped workload looks like
a speedup); metrics only the candidate has are reported as new and pass.
Metrics carrying a `p99_s` field in BOTH files (the sharded-serving storm
rows) are additionally gated on tail latency: the candidate's p99_s gets the
same relative tolerance — a hedging or routing regression shows up in the
tail long before it moves the median.

Guard rails before any numeric comparison:
  - both files must carry schema "peek-bench-v1" and equal schema_version;
  - both files must record the same `machine.hardware_threads`: the
    parallel rows scale with it, so runs on different thread counts measure
    the machines, not the change (no override);
  - graph fingerprints must match (same name -> same fingerprint), otherwise
    the workloads ran on different inputs and the timings are meaningless —
    fail unless --allow-graph-mismatch;
  - a sanitized candidate build is never gated: instrumented timings are not
    comparable to a release baseline, so the script prints a notice and
    exits 0 (the CI perf job relies on this to skip itself on sanitizer
    matrix entries).

The tolerance defaults to the PEEK_BENCH_TOLERANCE environment variable
(then 0.25): CI sets it once, and a one-off run can override per invocation.
Exit status: 0 = within tolerance (or skipped), 1 = regression or
incomparable inputs, 2 = usage / malformed input.
"""

import argparse
import json
import os
import sys

SCHEMA = "peek-bench-v1"


def load(path):
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"bench_compare: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    for key in ("schema", "schema_version", "build", "graphs", "metrics"):
        if key not in doc:
            print(f"bench_compare: {path} has no `{key}` section",
                  file=sys.stderr)
            sys.exit(2)
    if doc["schema"] != SCHEMA:
        print(f"bench_compare: {path} has schema {doc['schema']!r}, "
              f"expected {SCHEMA!r}", file=sys.stderr)
        sys.exit(2)
    return doc


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="committed baseline BENCH_*.json")
    ap.add_argument("candidate", help="freshly measured bench JSON")
    ap.add_argument(
        "--tolerance", type=float,
        default=float(os.environ.get("PEEK_BENCH_TOLERANCE", "0.25")),
        help="max allowed relative median slowdown per metric "
             "(default: $PEEK_BENCH_TOLERANCE, else 0.25)")
    ap.add_argument(
        "--allow-graph-mismatch", action="store_true",
        help="compare timings even when graph fingerprints differ")
    args = ap.parse_args()
    if args.tolerance < 0:
        ap.error("--tolerance must be >= 0")

    base = load(args.baseline)
    cand = load(args.candidate)

    if cand["build"].get("sanitized"):
        print("bench_compare: SKIPPED — candidate is a sanitized build; "
              "instrumented timings are not gated against release baselines")
        return 0

    if base["schema_version"] != cand["schema_version"]:
        print(f"bench_compare: schema_version mismatch "
              f"(baseline {base['schema_version']}, "
              f"candidate {cand['schema_version']}) — regenerate the "
              "baseline with the current bench driver", file=sys.stderr)
        return 1

    base_hw = base.get("machine", {}).get("hardware_threads")
    cand_hw = cand.get("machine", {}).get("hardware_threads")
    if base_hw != cand_hw:
        print(f"bench_compare: hardware_threads mismatch (baseline "
              f"{base_hw}, candidate {cand_hw}) — the runs measure different "
              "machines; rerun the baseline on this one", file=sys.stderr)
        return 1

    base_fp = {g["name"]: g["fingerprint"] for g in base["graphs"]}
    cand_fp = {g["name"]: g["fingerprint"] for g in cand["graphs"]}
    mismatched = sorted(
        name for name in base_fp
        if name in cand_fp and base_fp[name] != cand_fp[name])
    if mismatched and not args.allow_graph_mismatch:
        for name in mismatched:
            print(f"bench_compare: graph {name} fingerprint changed "
                  f"({base_fp[name]} -> {cand_fp[name]}) — the workloads ran "
                  "on different inputs", file=sys.stderr)
        return 1

    if base["build"].get("sanitized"):
        print("bench_compare: warning — the BASELINE is a sanitized build; "
              "its timings are inflated and the gate is toothless",
              file=sys.stderr)

    bm, cm = base["metrics"], cand["metrics"]
    regressions, missing = [], []
    rows = []
    for name in sorted(bm):
        if name not in cm:
            missing.append(name)
            continue
        b, c = bm[name]["median_s"], cm[name]["median_s"]
        rel = (c / b - 1.0) if b > 0 else 0.0
        verdict = "ok"
        if rel > args.tolerance:
            verdict = "REGRESSION"
            regressions.append(name)
        if "p99_s" in bm[name] and "p99_s" in cm[name]:
            b99, c99 = bm[name]["p99_s"], cm[name]["p99_s"]
            rel99 = (c99 / b99 - 1.0) if b99 > 0 else 0.0
            if rel99 > args.tolerance:
                verdict = "REGRESSION(p99)"
                regressions.append(f"{name}[p99]")
        rows.append((name, b, c, rel, verdict))
    new = sorted(set(cm) - set(bm))

    width = max((len(r[0]) for r in rows), default=10)
    print(f"{'metric':<{width}}  {'baseline':>12}  {'candidate':>12}  "
          f"{'change':>8}")
    for name, b, c, rel, verdict in rows:
        print(f"{name:<{width}}  {b * 1e3:>10.3f}ms  {c * 1e3:>10.3f}ms  "
              f"{rel:>+7.1%}  {verdict}")
    for name in new:
        print(f"{name:<{width}}  {'-':>12}  "
              f"{cm[name]['median_s'] * 1e3:>10.3f}ms      new  ok")

    if missing:
        for name in missing:
            print(f"bench_compare: metric `{name}` is in the baseline but "
                  "missing from the candidate — dropped workload?",
                  file=sys.stderr)
    if regressions:
        print(f"bench_compare: {len(regressions)} regression(s) beyond "
              f"+{args.tolerance:.0%}: {', '.join(regressions)}",
              file=sys.stderr)
    if regressions or missing:
        return 1
    print(f"bench_compare: OK — {len(rows)} metric(s) within "
          f"+{args.tolerance:.0%} of baseline"
          + (f", {len(new)} new" if new else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
