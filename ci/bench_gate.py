#!/usr/bin/env python3
"""Unified CI bench gate for the perf-smoke job.

Each ``BENCH_*.json`` artifact (one JSON object per line, written by the
vendored criterion shim when ``BENCH_JSON`` is set) records
best/mean/stddev/p50/p99 per bench id.  ``MANIFEST`` lists, per artifact,
the ``(new, baseline)`` id pairs that must satisfy
``new.metric < baseline.metric`` for every gated metric — ``best_ns`` by
default, optionally ``p99_ns`` too for latency-sensitive paths (the warm
serve update and the recovery gates compare tails, not just bests).

Only layers no perfbench metric times yet keep a gate here, two pairs in
two artifacts: the warm serve-index update against a rebuild, and
quarantine-based recovery against a re-clean.  A gate retires once a
perfbench metric times its layer.  The §4.4 description text pipeline is
analysis-only (no clean or serve path runs it), so it is not speed-gated.

Best-of-N is compared rather than means: on shared runners a single noisy
sample inflates a 10-sample mean, while the best observation is stable —
this keeps the gate meaningful without flaking.  The p99 gates lean on the
margin between a warm path and its from-scratch baseline being large, so
tail noise cannot flip them.

Every artifact named in ``MANIFEST`` is **required**: a listed artifact
that was not passed on the command line, or whose file is missing or
empty, is a hard failure — a bench that silently never ran must not pass
the gate.  Jobs that only run a slice of the benches (the fault-smoke job
produces just ``BENCH_faults.json``) pass ``--subset``: only the named
artifacts are then required, but each is still gated in full.

Usage: python3 ci/bench_gate.py [--subset] BENCH_ingest.json BENCH_faults.json
"""

import json
import os
import sys

# Per artifact: (new_id, baseline_id) gated on best_ns, or
# (new_id, baseline_id, (metric, ...)) to gate several metrics.
MANIFEST = {
    "BENCH_ingest.json": [
        # The warm serve-index update must beat a rebuild on the best
        # observation AND at the p99 tail.
        ("ingest_serve/apply_delta", "ingest_serve/rebuild", ("best_ns", "p99_ns")),
    ],
    "BENCH_faults.json": [
        # Recovery must be worth having: quarantining a corrupt feed
        # through the warm state beats re-cleaning the corpus from scratch.
        (
            "ingest_recover/quarantine/jobs_1",
            "ingest_recover/reclean",
            ("best_ns", "p99_ns"),
        ),
    ],
}

DEFAULT_METRICS = ("best_ns",)


def load_stats(path):
    stats = {}
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                rec = json.loads(line)
                stats[rec["id"]] = rec
    return stats


def describe(rec):
    tail = ""
    if "p50_ns" in rec and "p99_ns" in rec:
        tail = f", p50 {rec['p50_ns']:.0f}, p99 {rec['p99_ns']:.0f}"
    return (
        f"best {rec['best_ns']:.0f} ns "
        f"(mean {rec['mean_ns']:.0f} ± {rec['stddev_ns']:.0f}{tail}, "
        f"n={rec['samples']})"
    )


def main(argv):
    subset = "--subset" in argv
    paths = [a for a in argv if a != "--subset"]
    if not paths:
        sys.exit("usage: bench_gate.py [--subset] BENCH_file.json [BENCH_file.json ...]")
    given = {os.path.basename(p) for p in paths}
    if not subset:
        unlisted = sorted(set(MANIFEST) - given)
        if unlisted:
            sys.exit(
                "manifest artifact(s) never passed to the gate — a skipped bench "
                f"must not pass silently: {unlisted}"
            )
    failures = []
    checked = 0
    for path in paths:
        name = os.path.basename(path)
        pairs = MANIFEST.get(name)
        if pairs is None:
            sys.exit(f"{name}: no manifest entry — add its gates to ci/bench_gate.py")
        if not os.path.exists(path):
            sys.exit(f"{name}: artifact file {path!r} is missing — did its bench run?")
        stats = load_stats(path)
        if not stats:
            sys.exit(f"{name}: artifact file {path!r} is empty — did its bench run?")
        for entry in pairs:
            new_id, baseline_id = entry[0], entry[1]
            metrics = entry[2] if len(entry) > 2 else DEFAULT_METRICS
            missing = [i for i in (new_id, baseline_id) if i not in stats]
            if missing:
                sys.exit(f"{name}: bench id(s) missing from artifact: {missing}")
            new, baseline = stats[new_id], stats[baseline_id]
            print(f"{name}: {new_id}: {describe(new)}")
            print(f"{name}: {baseline_id}: {describe(baseline)}")
            for metric in metrics:
                absent = [i for i in (new_id, baseline_id) if metric not in stats[i]]
                if absent:
                    sys.exit(
                        f"{name}: metric {metric!r} absent from {absent} — "
                        "regenerate the artifact with the current criterion shim"
                    )
                checked += 1
                if new[metric] < baseline[metric]:
                    print(
                        f"{name}: OK [{metric}] — {new_id} is "
                        f"{baseline[metric] / new[metric]:.2f}x faster than {baseline_id}"
                    )
                else:
                    failures.append(
                        f"{name}: {new_id} is no faster than {baseline_id} on {metric}"
                    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        sys.exit(1)
    print(f"all {checked} bench gates passed")


if __name__ == "__main__":
    main(sys.argv[1:])
