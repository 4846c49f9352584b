#!/usr/bin/env python3
"""Diffs the derived-atom counters of two or more bench JSON sidecars.

Usage: compare_bench_modes.py REFERENCE.json OTHER.json [OTHER2.json ...]

Each input is the JSONL sidecar a bench binary writes (one object per case:
name, real_ms, counters). The indexed join pipeline must derive EXACTLY the
atom counts the naive oracle derives, and the parallel engine
(MMV_THREADS=8 sidecar vs MMV_THREADS=1 sidecar) exactly what the
sequential engine derives — so for every case present in both files the
work-product counters must match bit-for-bit. The first
file is the reference; every other file is diffed against it. Timing
fields are ignored. Exits non-zero on any mismatch, and when nothing
comparable was found (a silently empty comparison would defeat the check).
"""

import json
import sys

# Counters that describe the derived work product (not the strategy).
# Strategy-dependent counters (probes, rejects, derivation attempts, plan
# reorders/intersections/cache and memo hits, thread counts) are
# deliberately excluded: the indexed join legitimately attempts fewer
# derivations than the oracle, and only the indexed engine's sequential
# runner memoizes solver outcomes (the oracle and sharded pivots do not).
# The deletion-side counters (replacements, step3, removed) are work
# product too: StDel's parallel step-3 must replace exactly what the
# sequential sweep replaces, and step 4 must remove exactly the same
# atoms. The fan-out shape counters (partitions_run,
# partition_skipped_small, evaluator_clones) describe the parallel schedule
# itself — they scale with the thread count BY DESIGN, so a 1-vs-8 sidecar
# diff must leave them out; everything in COMPARED is a work-product
# invariant that byte-identity guarantees across thread counts.
COMPARED = (
    "atoms_added",
    "added",
    "view_atoms",
    "updates",
    "coalesced",
    "insertions",
    "replacements",
    "step3",
    "removed",
    "delete_passes",
    "insert_passes",
    # Snapshot publication is one epoch per clean batch regardless of the
    # join mode or thread count; the reader-side counters
    # (snapshot_reads, reader_qps) are timing-dependent and stay excluded.
    "epochs_published",
    # Durability is a function of the burst text, not the engine: the WAL
    # record framing, the replayed-burst count and the checkpoint lineage
    # must be byte-for-byte identical whatever join mode or thread count
    # applied the bursts. wal_syncs is policy-driven (one per committed
    # batch under kEveryBatch), so it is an invariant too.
    "wal_records",
    "wal_bytes",
    "wal_syncs",
    "replayed",
    "replay_added",
    "checkpoint_epoch",
    # Copy-on-write publication is a function of the burst's dirty set,
    # not the engine: which per-pred segments an extraction shares vs
    # copies — and how many delta-frame bytes the checkpoint cadence
    # writes — must match across join modes and thread counts. (The benches that
    # pit CoW against the deep-copy baseline put that mode flag FIRST, so
    # these never land in a /0-vs-/1 twin pair.)
    "snapshot_nodes_shared",
    "snapshot_nodes_copied",
    "checkpoint_delta_bytes",
)


def load(path):
    cases = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            name = obj["name"]
            # Manually-timed cases carry a reporting suffix; strip it so
            # the trailing mode arg stays comparable (".../0" vs ".../1").
            if name.endswith("/manual_time"):
                name = name[: -len("/manual_time")]
            cases[name] = obj.get("counters", {})
    return cases


def diff(failures, label, a, b):
    compared = 0
    for key in COMPARED:
        if key in a and key in b:
            compared += 1
            if a[key] != b[key]:
                failures.append(f"{label}: {key} {a[key]} != {b[key]}")
    return compared


def main():
    paths = sys.argv[1:]
    if len(paths) < 2:
        sys.exit(__doc__)
    reference_path = paths[0]
    reference = load(reference_path)
    others = [(path, load(path)) for path in paths[1:]]
    compared = 0
    failures = []
    # Env-driven cases: same name across the reference and each other file.
    for path, cases in others:
        for name in sorted(set(reference) & set(cases)):
            compared += diff(
                failures, f"{name} [{reference_path} vs {path}]",
                reference[name], cases[name]
            )
    # Mode-paired cases pin their mode via a trailing arg and ignore the
    # environment, so the cross-file diff above compares them against
    # themselves; compare .../0 (naive join, or one thread for the
    # thread-paired cases) against .../1 WITHIN each file instead.
    for path, cases in [(reference_path, reference)] + others:
        for name in sorted(cases):
            if not name.endswith("/0"):
                continue
            twin = name[:-2] + "/1"
            if twin in cases:
                compared += diff(
                    failures, f"{name} vs {twin} [{path}]",
                    cases[name], cases[twin]
                )
    if failures:
        print("mode counter mismatches:")
        print("\n".join(failures))
        sys.exit(1)
    if compared == 0:
        print("no comparable counters found — check the bench filters")
        sys.exit(1)
    print(f"OK: {compared} counters identical across modes")


if __name__ == "__main__":
    main()
