#!/usr/bin/env python3
"""Unified CI bench gate for the perf-smoke job.

Each ``BENCH_*.json`` artifact (one JSON object per line, written by the
vendored criterion shim when ``BENCH_JSON`` is set) records
best/mean/stddev/p50/p99 per bench id.  ``MANIFEST`` lists, per artifact,
the ``(new, baseline)`` id pairs that must satisfy
``new.metric < baseline.metric`` for every gated metric — ``best_ns`` by
default, optionally ``p99_ns`` too for latency-sensitive paths (the serve
gate compares tails, not just bests).  An entry may carry a fourth
element, ``max_ratio``: the gate then allows ``new`` up to
``baseline * max_ratio`` instead of demanding a strict win — used for
the fault-aware engine's overhead budget (at most 5% on the healthy
path) rather than a speedup claim.  Every "the new implementation
must beat its in-bench legacy replica at jobs=1" gate goes through here
instead of a copy-pasted inline-Python step per bench.

Best-of-N is compared rather than means: on shared runners a single noisy
sample inflates a 10-sample mean, while the best observation is stable —
this keeps the gate meaningful without flaking.  The p99 gates lean on the
margin being large (indexed lookups beat full scans by an order of
magnitude), so tail noise cannot flip them.

Every artifact named in ``MANIFEST`` is **required**: a listed artifact
that was not passed on the command line, or whose file is missing or
empty, is a hard failure — a bench that silently never ran must not pass
the gate.  Jobs that only run a slice of the benches (the fault-smoke job
produces just ``BENCH_faults.json``) pass ``--subset``: only the named
artifacts are then required, but each is still gated in full.

Usage: python3 ci/bench_gate.py [--subset] BENCH_mlkit.json ...
"""

import json
import os
import sys

# Per artifact: (new_id, baseline_id) gated on best_ns,
# (new_id, baseline_id, (metric, ...)) to gate several metrics, or
# (new_id, baseline_id, (metric, ...), max_ratio) to gate an overhead
# budget (new < baseline * max_ratio) instead of a strict win.
MANIFEST = {
    "BENCH_mlkit.json": [
        ("mlkit_fit/batched/jobs_1", "mlkit_fit/legacy_per_sample"),
    ],
    "BENCH_textkit.json": [
        ("textkit_preprocess/new/jobs_1", "textkit_preprocess/legacy"),
        ("textkit_corpus_encode/new/jobs_1", "textkit_corpus_encode/legacy"),
    ],
    "BENCH_names.json": [
        ("names_vendor_sweep/new/jobs_1", "names_vendor_sweep/legacy"),
        ("names_product_sweep/new/jobs_1", "names_product_sweep/legacy"),
    ],
    "BENCH_crawl.json": [
        ("crawl_estimate/new/jobs_1", "crawl_estimate/legacy"),
    ],
    "BENCH_serve.json": [
        # The headline serve gate is latency-aware: indexed lookups must
        # beat the linear-scan replica on the best observation AND at p99.
        (
            "serve_point_lookup/new/jobs_1",
            "serve_point_lookup/legacy",
            ("best_ns", "p99_ns"),
        ),
        ("serve_mixed/new/jobs_1", "serve_mixed/legacy", ("best_ns", "p99_ns")),
        ("serve_single_lookup/new", "serve_single_lookup/legacy"),
    ],
    "BENCH_ingest.json": [
        # Incremental ingestion: absorbing one dated delta through the warm
        # CleanState must beat batch-cleaning the accumulated corpus from
        # scratch — on the best observation AND at the p99 tail, since the
        # whole point of the carry-over caches is steady-state latency.
        (
            "ingest_delta/incremental/jobs_1",
            "ingest_delta/from_scratch",
            ("best_ns", "p99_ns"),
        ),
        ("ingest_serve/apply_delta", "ingest_serve/rebuild", ("best_ns", "p99_ns")),
    ],
    "BENCH_faults.json": [
        # Fault handling must be free when nothing fails: the retry engine
        # under an empty plan may cost at most 5% over the plain engine,
        # on the best observation and at the p99 tail.
        (
            "crawl_faults/new/no_fault",
            "crawl_faults/legacy",
            ("best_ns", "p99_ns"),
            1.05,
        ),
        # And recovery must be worth having: quarantining a corrupt feed
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
            max_ratio = entry[3] if len(entry) > 3 else 1.0
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
                if new[metric] < baseline[metric] * max_ratio:
                    ratio = new[metric] / baseline[metric]
                    if max_ratio > 1.0:
                        print(
                            f"{name}: OK [{metric}] — {new_id} is {ratio:.3f}x "
                            f"of {baseline_id} (budget {max_ratio:.2f}x)"
                        )
                    else:
                        print(
                            f"{name}: OK [{metric}] — {new_id} is {1 / ratio:.2f}x "
                            f"faster than {baseline_id}"
                        )
                else:
                    bound = (
                        f"exceeds {max_ratio:.2f}x of"
                        if max_ratio > 1.0
                        else "is no faster than"
                    )
                    failures.append(
                        f"{name}: {new_id} {bound} {baseline_id} on {metric}"
                    )
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        sys.exit(1)
    print(f"all {checked} bench gates passed")


if __name__ == "__main__":
    main(sys.argv[1:])
