#!/usr/bin/env python3
"""Diff two BENCH_*.json telemetry files and gate perf regressions.

The bench binaries (see bench/telemetry.h) emit one JSON file per run
with the series the paper's evaluation plots: wall-clock plus the
architecture-neutral work counters. The work counters of the tree
algorithms are bit-exact across thread counts (PR "exec runtime
overhaul"), so they are gated at a 0% budget by default — any drift in
dist_comps / nodes_visited / clusters / noise on a matched entry is a
real algorithmic change, not noise. Wall-clock is gated loosely (+20%
by default) and only above a floor, because this CPU substrate is noisy
at small problem sizes; pass --skip-wall to compare work only (the
bench_smoke ctest does, since it diffs runs at different thread counts).

Usage:
  bench_compare.py [options] OLD.json NEW.json     compare two runs
  bench_compare.py [options] NEW.json              compare the committed
                       baseline (the lexicographically greatest
                       BENCH_*.json at the repo root) against NEW.json.
                       Exits 2 when the runs' scales differ (the work
                       counters would not be comparable); auto-enables
                       --skip-wall when their thread counts differ.
  bench_compare.py --validate FILE [FILE...]       schema-check files
  bench_compare.py --gate-amortized FILE [...]     check the Engine's
                       amortization contract: entries marked engine_warm
                       must report 0 index_rebuilds / workspace_reallocs
  bench_compare.py --gate-service FILE [...]       check the service
                       contract (DESIGN.md §10): under-capacity closed
                       loops reject nothing and build each dataset's
                       index once; deterministic overloads reject exactly
                       their overflow; the terminal-state counts
                       partition submitted
  bench_compare.py --gate-shards FILE [...]        check the sharding
                       contract (DESIGN.md §11) over entries carrying a
                       shards_checked counter: zero equivalence failures
                       across the worker x shard sweep, with multi-shard
                       runs present and a nonzero halo volume so the
                       gate cannot pass vacuously
  bench_compare.py --gate-simd SCALAR.json SIMD.json
                       check that the vectorized backend does not lose to
                       the scalar one: over name-matched fdbscan /
                       fdbscan-densebox entries, the summed traversal-
                       phase wall time (phase_ms.preprocess + .main) of
                       the SIMD run must be <= the scalar run's. Exits 2
                       when the runs' scales differ, and fails when no
                       entries match (a vacuous gate is a broken one)

Exit codes: 0 ok, 1 regression/drift found, 2 usage or schema error.

Stdlib only — no third-party dependencies.
"""

import argparse
import json
import re
import sys
from pathlib import Path

SCHEMA_ID = "fdbscan-bench-telemetry-v1"

# Counters that must be bit-exact across runs of the same configuration
# (when the entry is marked deterministic). index_rebuilds and
# workspace_reallocs / grid_cache_hits are the Engine's amortization
# counters (DESIGN.md §9): entry order within a bench binary is fixed, so
# how often a given entry rebuilds or grows is as deterministic as its
# work counts.
GATED_COUNTERS = ("dist_comps", "nodes_visited", "clusters", "noise",
                  "index_rebuilds", "workspace_reallocs", "grid_cache_hits")

PHASE_KEYS = ("index", "preprocess", "main", "finalize")


class SchemaError(Exception):
    pass


def _expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def validate(doc, path="<doc>"):
    """Validates a telemetry document; raises SchemaError on violation."""
    _expect(isinstance(doc, dict), f"{path}: top level is not an object")
    _expect(doc.get("schema") == SCHEMA_ID,
            f"{path}: schema is {doc.get('schema')!r}, expected {SCHEMA_ID!r}")

    run = doc.get("run")
    _expect(isinstance(run, dict), f"{path}: missing run object")
    _expect(isinstance(run.get("date_env"), str), f"{path}: run.date_env missing")
    _expect(isinstance(run.get("threads"), int) and run["threads"] > 0,
            f"{path}: run.threads must be a positive integer")
    _expect(isinstance(run.get("scale"), (int, float)) and run["scale"] > 0,
            f"{path}: run.scale must be positive")

    entries = doc.get("entries")
    _expect(isinstance(entries, list) and entries,
            f"{path}: entries must be a non-empty array")
    seen = set()
    for i, e in enumerate(entries):
        where = f"{path}: entries[{i}]"
        _expect(isinstance(e, dict), f"{where} is not an object")
        name = e.get("name")
        _expect(isinstance(name, str) and name, f"{where}: missing name")
        _expect(name not in seen,
                f"{where}: duplicate entry name {name!r} — per-entry series "
                "would be ambiguous (is a sweep collapsing onto the 64-point "
                "floor without deduplication?)")
        seen.add(name)
        for key in ("dataset", "algo"):
            _expect(isinstance(e.get(key), str), f"{where}: missing {key}")
        _expect(isinstance(e.get("n"), int) and e["n"] >= 0,
                f"{where}: n must be a non-negative integer")
        _expect(isinstance(e.get("deterministic"), bool),
                f"{where}: missing deterministic flag")
        _expect(isinstance(e.get("wall_ms"), (int, float)) and e["wall_ms"] >= 0,
                f"{where}: wall_ms must be a non-negative number")
        counters = e.get("counters")
        _expect(isinstance(counters, dict), f"{where}: missing counters object")
        for cname, cval in counters.items():
            _expect(isinstance(cval, (int, float)),
                    f"{where}: counter {cname!r} is not a number")
        phases = e.get("phase_ms")
        _expect(isinstance(phases, dict), f"{where}: missing phase_ms object")
        for key in PHASE_KEYS:
            _expect(isinstance(phases.get(key), (int, float)),
                    f"{where}: phase_ms.{key} missing")
        if "peak_bytes" in e:
            _expect(isinstance(e["peak_bytes"], int) and e["peak_bytes"] >= 0,
                    f"{where}: peak_bytes must be a non-negative integer")
        if "kernels" in e:
            _expect(isinstance(e["kernels"], list),
                    f"{where}: kernels must be an array")
            for k, agg in enumerate(e["kernels"]):
                kw = f"{where}.kernels[{k}]"
                _expect(isinstance(agg, dict), f"{kw} is not an object")
                _expect(isinstance(agg.get("name"), str) and agg["name"],
                        f"{kw}: missing name")
                for key in ("count", "chunks", "workers"):
                    _expect(isinstance(agg.get(key), int) and agg[key] >= 0,
                            f"{kw}: {key} must be a non-negative integer")
                for key in ("total_ms", "max_ms", "imbalance"):
                    _expect(isinstance(agg.get(key), (int, float))
                            and agg[key] >= 0,
                            f"{kw}: {key} must be a non-negative number")
        if "service" in e:
            _expect(isinstance(e["service"], dict),
                    f"{where}: service must be an object")
            for sname, sval in e["service"].items():
                _expect(isinstance(sval, (int, float)),
                        f"{where}: service.{sname!r} is not a number")
        # Telemetry recorded before the service metrics rolled up into
        # the registry carries an "obs" block of registry deltas.
        if "obs" in e:
            _expect(isinstance(e["obs"], dict),
                    f"{where}: obs must be an object")
            for oname, oval in e["obs"].items():
                _expect(isinstance(oval, (int, float)),
                        f"{where}: obs.{oname!r} is not a number")
        if "error" in e:
            _expect(isinstance(e["error"], str), f"{where}: error must be a string")


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from exc
    validate(doc, path)
    return doc


def kernel_deltas(o, n, top=3):
    """Top `top` kernels by absolute wall-ms delta between two entries'
    per-kernel aggregates. Empty when either side lacks aggregates (the
    run was not traced)."""
    ok = {k["name"]: k for k in o.get("kernels", [])}
    nk = {k["name"]: k for k in n.get("kernels", [])}
    if not ok or not nk:
        return []
    deltas = []
    for name in set(ok) | set(nk):
        ov = ok.get(name, {}).get("total_ms", 0.0)
        nv = nk.get(name, {}).get("total_ms", 0.0)
        deltas.append((abs(nv - ov), name, ov, nv))
    deltas.sort(reverse=True)
    return [f"    kernel {name}: {ov:.3f} -> {nv:.3f} ms ({nv - ov:+.3f})"
            for _, name, ov, nv in deltas[:top]]


def gate_amortized(doc, path):
    """Single-file gate over the Engine's amortization contract: every
    entry whose bench body marked it engine_warm (the engine's index /
    bundle cache was already populated BEFORE the run) must report zero
    index rebuilds and zero workspace growths. Returns (violations,
    warm_count); zero warm entries is itself a violation — a gate that
    never fires is indistinguishable from a broken one."""
    violations = []
    warm = 0
    for e in doc["entries"]:
        if e.get("error"):
            continue
        counters = e["counters"]
        if counters.get("engine_warm") != 1:
            continue
        warm += 1
        for counter in ("index_rebuilds", "workspace_reallocs"):
            if counter not in counters:
                violations.append(
                    f"{e['name']}: marked engine_warm but {counter} missing")
            elif counters[counter] != 0:
                violations.append(
                    f"{e['name']}: warm engine run reports {counter}="
                    f"{counters[counter]:g}, expected 0")
    if warm == 0:
        violations.append(
            f"{path}: no engine_warm entries found — the amortization gate "
            "is vacuous (did the benches stop sharing engines?)")
    return violations, warm


def gate_service(doc, path):
    """Single-file gate over the ClusterService contract (DESIGN.md §10),
    applied to every entry carrying a "service" block:

      * the terminal-state counts partition submitted (a request resolves
        exactly once);
      * closed_loop entries (an under-capacity closed loop) reject
        nothing and build each dataset's index exactly once;
      * overload entries reject exactly their engineered overflow — and
        more than zero of it, so backpressure demonstrably fired;
      * deadline entries observe both the fast-fail and mid-run paths.

    Zero service entries is itself a violation — a gate that never fires
    is indistinguishable from a broken one."""
    violations = []
    checked = 0
    for e in doc["entries"]:
        if e.get("error") or "service" not in e:
            continue
        checked += 1
        name, s, counters = e["name"], e["service"], e["counters"]
        terminal = (s.get("completed", 0) + s.get("rejected", 0)
                    + s.get("cancelled", 0) + s.get("deadline_exceeded", 0)
                    + s.get("failed", 0))
        if s.get("submitted", -1) != terminal:
            violations.append(
                f"{name}: terminal counts sum to {terminal:g} but "
                f"submitted={s.get('submitted', -1):g} — some request "
                "resolved twice or never")
        if "datasets" in counters:  # closed_loop shape
            if s.get("rejected", 0) != 0:
                violations.append(
                    f"{name}: under-capacity closed loop rejected "
                    f"{s['rejected']:g} requests, expected 0")
            if counters.get("index_builds") != counters["datasets"]:
                violations.append(
                    f"{name}: index_builds={counters.get('index_builds')!r} "
                    f"!= datasets={counters['datasets']:g} — warm-engine "
                    "reuse broke (one BVH build per dataset)")
        if "expected_rejected" in counters:  # overload shape
            if counters.get("rejected") != counters["expected_rejected"]:
                violations.append(
                    f"{name}: rejected {counters.get('rejected')!r} of an "
                    f"engineered overflow of {counters['expected_rejected']:g}")
            if counters["expected_rejected"] <= 0:
                violations.append(
                    f"{name}: overload entry engineered no overflow")
        for flag in ("fast_fail_ok", "mid_run_ok"):  # deadline shape
            if flag in counters and counters[flag] != 1:
                violations.append(f"{name}: {flag}={counters[flag]:g}")
    if checked == 0:
        violations.append(
            f"{path}: no entries carry a service block — the service gate "
            "is vacuous (did the bench stop staging its metrics?)")
    return violations, checked


def gate_shards(doc, path):
    """Single-file gate over the sharding contract (DESIGN.md §11),
    applied to every entry carrying a "shards_checked" counter (the
    sharded-equivalence sweep of service_throughput):

      * shard_equiv_failures == 0: every (workers, shards) combination
        produced labels equivalent to the single-engine reference, with
        bit-identical core flags and cluster counts;
      * shards_checked > 0 and multi_shard_runs > 0: the sweep actually
        ran multi-shard configurations;
      * ghosts > 0: the halo exchange carried volume, so the equivalence
        was not tested on a decomposition with no boundary work.

    Zero matching entries is itself a violation — a gate that never
    fires is indistinguishable from a broken one."""
    violations = []
    checked = 0
    for e in doc["entries"]:
        if e.get("error") or "shards_checked" not in e["counters"]:
            continue
        checked += 1
        name, counters = e["name"], e["counters"]
        if counters.get("shard_equiv_failures", -1) != 0:
            violations.append(
                f"{name}: shard_equiv_failures="
                f"{counters.get('shard_equiv_failures')!r} — sharded labels "
                "diverged from the single-engine reference")
        if counters["shards_checked"] <= 0:
            violations.append(
                f"{name}: shards_checked={counters['shards_checked']:g} — "
                "the equivalence sweep ran no configurations")
        if counters.get("multi_shard_runs", 0) <= 0:
            violations.append(
                f"{name}: multi_shard_runs="
                f"{counters.get('multi_shard_runs', 0):g} — only "
                "single-shard configurations ran, the gate is vacuous")
        if counters.get("ghosts", 0) <= 0:
            violations.append(
                f"{name}: ghosts={counters.get('ghosts', 0):g} — the halo "
                "exchange carried no volume; bump eps so shard boundaries "
                "actually interact")
    if checked == 0:
        violations.append(
            f"{path}: no entries carry a shards_checked counter — the shard "
            "gate is vacuous (did service_throughput drop its "
            "sharded_equivalence entry?)")
    return violations, checked


def gate_stream(doc, path):
    """Single-file gate over the streaming-session contract (DESIGN.md
    §14), applied to every entry carrying a "stream_equiv_checked"
    counter (the stream_throughput sliding-window and warm-append
    entries):

      * stream_equiv_checked > 0 and stream_equiv_failures == 0: every
        step's query matched a from-scratch run over the live set (with
        bit-identical core flags — the verdict is worker-count
        invariant);
      * entries carrying expiry_queries (the sliding windows) must
        count > 0 queries that followed an expiry and report
        expiry_work_mismatches == 0: each of those queries reclusters
        the compacted window through cluster()'s method dispatch, so
        its distance computations equal the from-scratch cluster(live)
        reference's;
      * at least one sliding-window entry must report
        densebox_reclusters > 0, so the DenseBox recluster (and the
        absorbs against its index) is provably exercised;
      * stream_rebuilds <= stream_rebuild_bound where an entry carries
        the bound (warm_append: the lazy initial build only);
      * entries carrying warm_queries_checked must check > 0 warm
        queries and report warm_query_rebuilds == 0: sub-threshold
        appends are absorbed by the side buffer without any rebuild.

    Zero matching entries is itself a violation — a gate that never
    fires is indistinguishable from a broken one."""
    violations = []
    checked = 0
    warm_entries = 0
    expiry_entries = 0
    densebox_entries = 0
    for e in doc["entries"]:
        if e.get("error") or "stream_equiv_checked" not in e["counters"]:
            continue
        checked += 1
        name, counters = e["name"], e["counters"]
        if counters["stream_equiv_checked"] <= 0:
            violations.append(
                f"{name}: stream_equiv_checked="
                f"{counters['stream_equiv_checked']:g} — the equivalence "
                "sweep checked no queries")
        if counters.get("stream_equiv_failures", -1) != 0:
            violations.append(
                f"{name}: stream_equiv_failures="
                f"{counters.get('stream_equiv_failures')!r} — a streamed "
                "query diverged from the from-scratch reference")
        if "expiry_queries" in counters:
            expiry_entries += 1
            if counters.get("densebox_reclusters", 0) > 0:
                densebox_entries += 1
            if counters["expiry_queries"] <= 0:
                violations.append(
                    f"{name}: expiry_queries="
                    f"{counters['expiry_queries']:g} — no query followed "
                    "an expiry, so the recluster work rule was not "
                    "exercised")
            if counters.get("expiry_work_mismatches", -1) != 0:
                violations.append(
                    f"{name}: expiry_work_mismatches="
                    f"{counters.get('expiry_work_mismatches')!r} — a query "
                    "after an expiry did different work than a "
                    "from-scratch run over the live set")
        if "stream_rebuild_bound" in counters:
            rebuilds = counters.get("stream_rebuilds", float("inf"))
            bound = counters["stream_rebuild_bound"]
            if rebuilds > bound:
                violations.append(
                    f"{name}: stream_rebuilds={rebuilds:g} exceeds the "
                    f"rebuild bound {bound:g}")
        if "warm_queries_checked" in counters:
            warm_entries += 1
            if counters["warm_queries_checked"] <= 0:
                violations.append(
                    f"{name}: warm_queries_checked="
                    f"{counters['warm_queries_checked']:g} — the "
                    "zero-rebuild claim was not exercised")
            if counters.get("warm_query_rebuilds", -1) != 0:
                violations.append(
                    f"{name}: warm_query_rebuilds="
                    f"{counters.get('warm_query_rebuilds')!r} — a "
                    "sub-threshold append triggered a rebuild")
    if checked == 0:
        violations.append(
            f"{path}: no entries carry a stream_equiv_checked counter — "
            "the stream gate is vacuous (did stream_throughput drop its "
            "entries?)")
    else:
        if warm_entries == 0:
            violations.append(
                f"{path}: no entries carry a warm_queries_checked counter "
                "— the zero-rebuild amortization claim went unchecked")
        if expiry_entries == 0:
            violations.append(
                f"{path}: no entries carry an expiry_queries counter — "
                "the recluster work rule went unchecked")
        elif densebox_entries == 0:
            violations.append(
                f"{path}: no sliding-window entry reports "
                "densebox_reclusters > 0 — the DenseBox recluster went "
                "unexercised")
    return violations, checked


def gate_simd(scalar_doc, simd_doc):
    """Two-file gate: the vectorized backend must not lose to the scalar
    one on the traversal-dominated phases. Over name-matched, non-errored
    entries whose algo is one of the tree algorithms this repo vectorizes
    (fdbscan, fdbscan-densebox), sum phase_ms.preprocess + phase_ms.main
    (index build is gated separately by the ordinary wall comparison) and
    require simd_sum <= scalar_sum. Zero matched entries or a zero scalar
    sum is itself a violation — the gate must not pass vacuously."""
    violations = []
    if scalar_doc["run"]["scale"] != simd_doc["run"]["scale"]:
        raise SchemaError(
            f"scalar scale {scalar_doc['run']['scale']:g} != simd scale "
            f"{simd_doc['run']['scale']:g} — traversal wall is not "
            "comparable across problem sizes")
    vectorized = ("fdbscan", "fdbscan-densebox")

    def traversal_sums(doc):
        sums = {}
        for e in doc["entries"]:
            if e.get("error") or e["algo"] not in vectorized:
                continue
            sums[e["name"]] = e["phase_ms"]["preprocess"] + e["phase_ms"]["main"]
        return sums

    scalar_sums = traversal_sums(scalar_doc)
    simd_sums = traversal_sums(simd_doc)
    matched = sorted(set(scalar_sums) & set(simd_sums))
    scalar_total = sum(scalar_sums[n] for n in matched)
    simd_total = sum(simd_sums[n] for n in matched)
    if not matched:
        violations.append(
            "no name-matched fdbscan/fdbscan-densebox entries — the SIMD "
            "gate is vacuous")
    elif scalar_total <= 0.0:
        violations.append(
            f"scalar traversal wall sum is {scalar_total:g} ms over "
            f"{len(matched)} entries — nothing was measured, the gate is "
            "vacuous")
    elif simd_total > scalar_total:
        violations.append(
            f"SIMD traversal wall regressed: {simd_total:.3f} ms > scalar "
            f"{scalar_total:.3f} ms over {len(matched)} matched entries")
    return violations, matched, scalar_total, simd_total


def baseline_path():
    """The committed baseline: the lexicographically greatest
    BENCH_*.json at the repo root (dates sort lexicographically)."""
    root = Path(__file__).resolve().parent.parent
    candidates = sorted(root.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def wall_sum(doc):
    """Summed wall_ms over non-errored entries."""
    return sum(e["wall_ms"] for e in doc["entries"] if not e.get("error"))


def compare(old, new, args):
    """Returns a list of violation strings."""
    old_entries = {e["name"]: e for e in old["entries"]}
    new_entries = {e["name"]: e for e in new["entries"]}
    exclude = re.compile(args.exclude) if args.exclude else None

    matched = 0
    violations = []
    notes = []
    for name, o in old_entries.items():
        if exclude and exclude.search(name):
            continue
        n = new_entries.get(name)
        if n is None:
            notes.append(f"unmatched (gone in new): {name}")
            continue
        if o.get("error") or n.get("error"):
            notes.append(f"skipped (errored run): {name}")
            continue
        matched += 1

        if o["deterministic"] and n["deterministic"]:
            for counter in GATED_COUNTERS:
                if counter not in o["counters"] or counter not in n["counters"]:
                    continue
                ov, nv = o["counters"][counter], n["counters"][counter]
                budget = max(abs(ov), 1.0) * args.counter_budget_pct / 100.0
                if abs(nv - ov) > budget:
                    violations.append(
                        f"{name}: {counter} drifted {ov:g} -> {nv:g} "
                        f"(budget {args.counter_budget_pct:g}%)")

        if not args.skip_wall and o["wall_ms"] >= args.wall_min_ms:
            limit = o["wall_ms"] * (1.0 + args.wall_budget_pct / 100.0)
            if n["wall_ms"] > limit:
                violations.append(
                    f"{name}: wall_ms regressed {o['wall_ms']:.3f} -> "
                    f"{n['wall_ms']:.3f} (budget +{args.wall_budget_pct:g}%)")
                # When both runs were traced, name the kernels that moved:
                # "which kernel got slower" beats "the entry got slower".
                violations.extend(kernel_deltas(o, n))

    for name in new_entries:
        if name not in old_entries and not (exclude and exclude.search(name)):
            notes.append(f"unmatched (new entry): {name}")

    for note in notes:
        print(f"note: {note}")
    if matched == 0:
        violations.append("no comparable entries matched between the two runs")
    else:
        print(f"compared {matched} matched entries "
              f"(counter budget {args.counter_budget_pct:g}%, "
              + ("wall skipped" if args.skip_wall
                 else f"wall budget +{args.wall_budget_pct:g}% "
                      f"above {args.wall_min_ms:g} ms") + ")")
    return violations


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="OLD NEW for comparison, or files for --validate")
    parser.add_argument("--validate", action="store_true",
                        help="only schema-check the given files")
    parser.add_argument("--gate-amortized", action="store_true",
                        help="single-file mode: check that every entry "
                             "marked engine_warm reports zero index "
                             "rebuilds and zero workspace reallocations "
                             "(the Engine's amortization contract, "
                             "DESIGN.md §9)")
    parser.add_argument("--gate-service", action="store_true",
                        help="single-file mode: check the ClusterService "
                             "contract over entries carrying a service "
                             "block (DESIGN.md §10)")
    parser.add_argument("--gate-shards", action="store_true",
                        help="single-file mode: check the sharding "
                             "contract over entries carrying a "
                             "shards_checked counter (DESIGN.md §11)")
    parser.add_argument("--gate-stream", action="store_true",
                        help="single-file mode: check the streaming-"
                             "session contract over entries carrying a "
                             "stream_equiv_checked counter (DESIGN.md "
                             "§14)")
    parser.add_argument("--gate-simd", action="store_true",
                        help="two-file mode (SCALAR.json SIMD.json): the "
                             "SIMD run's summed traversal-phase wall over "
                             "name-matched fdbscan/fdbscan-densebox "
                             "entries must not exceed the scalar run's")
    parser.add_argument("--counter-budget-pct", type=float, default=0.0,
                        help="allowed relative drift for the deterministic "
                             "counters (default 0: bit-exact)")
    parser.add_argument("--wall-budget-pct", type=float, default=20.0,
                        help="allowed wall-clock regression (default 20)")
    parser.add_argument("--wall-min-ms", type=float, default=50.0,
                        help="ignore wall-clock of entries faster than this "
                             "in the old run (default 50 ms: sub-threshold "
                             "entries are dominated by scheduler noise)")
    parser.add_argument("--skip-wall", action="store_true",
                        help="compare work counters only (use when the runs "
                             "differ in thread count or machine)")
    parser.add_argument("--wall-sum-budget-pct", type=float, default=None,
                        metavar="PCT",
                        help="also gate the SUM of wall_ms over non-errored "
                             "entries: new_sum <= old_sum * (1 + PCT/100) "
                             "+ slack. Robust to per-entry noise; used by "
                             "the bench_smoke tracing-overhead gate")
    parser.add_argument("--wall-sum-slack-ms", type=float, default=25.0,
                        help="absolute slack added to the wall-sum budget "
                             "(default 25 ms: absorbs fixed per-run costs "
                             "like the trace flush at tiny smoke scales)")
    parser.add_argument("--exclude", metavar="REGEX",
                        help="skip entries whose name matches this regex")
    args = parser.parse_args(argv)

    try:
        if args.validate:
            for path in args.files:
                load(path)
                print(f"ok: {path}")
            return 0
        if args.gate_amortized:
            violations = []
            for path in args.files:
                file_violations, warm = gate_amortized(load(path), path)
                violations.extend(file_violations)
                print(f"{path}: {warm} engine_warm entries checked")
            for v in violations:
                print(f"FAIL: {v}", file=sys.stderr)
            if violations:
                return 1
            print("ok: all warm engine runs amortized "
                  "(0 rebuilds, 0 reallocs)")
            return 0
        if args.gate_service:
            violations = []
            for path in args.files:
                file_violations, checked = gate_service(load(path), path)
                violations.extend(file_violations)
                print(f"{path}: {checked} service entries checked")
            for v in violations:
                print(f"FAIL: {v}", file=sys.stderr)
            if violations:
                return 1
            print("ok: service contract holds (no under-capacity "
                  "rejections, one index build per dataset, exact "
                  "overload backpressure)")
            return 0
        if args.gate_shards:
            violations = []
            for path in args.files:
                file_violations, checked = gate_shards(load(path), path)
                violations.extend(file_violations)
                print(f"{path}: {checked} sharded entries checked")
            for v in violations:
                print(f"FAIL: {v}", file=sys.stderr)
            if violations:
                return 1
            print("ok: shard contract holds (sharded labels match the "
                  "single-engine reference across the worker x shard "
                  "sweep, with nonzero halo volume)")
            return 0
        if args.gate_stream:
            violations = []
            for path in args.files:
                file_violations, checked = gate_stream(load(path), path)
                violations.extend(file_violations)
                print(f"{path}: {checked} stream entries checked")
            for v in violations:
                print(f"FAIL: {v}", file=sys.stderr)
            if violations:
                return 1
            print("ok: stream contract holds (every streamed query "
                  "matches a from-scratch run over the live set, queries "
                  "after an expiry do its exact work, DenseBox reclusters "
                  "happened, warm appends rebuild nothing)")
            return 0
        if args.gate_simd:
            if len(args.files) != 2:
                parser.error("--gate-simd takes exactly two files: "
                             "SCALAR.json SIMD.json")
            violations, matched, scalar_total, simd_total = gate_simd(
                load(args.files[0]), load(args.files[1]))
            print(f"compared {len(matched)} matched traversal entries")
            if matched:
                print(f"  traversal wall sum: scalar {scalar_total:.3f} ms, "
                      f"simd {simd_total:.3f} ms")
            for v in violations:
                print(f"FAIL: {v}", file=sys.stderr)
            if violations:
                return 1
            print("ok: SIMD traversal wall <= scalar")
            return 0
        if len(args.files) == 1:
            # Single-file comparison mode: diff the committed baseline
            # (the dated BENCH_*.json at the repo root) against this run.
            base = baseline_path()
            if base is None:
                parser.error("no committed BENCH_*.json baseline found at "
                             "the repo root; pass OLD NEW explicitly")
            print(f"baseline: {base}")
            old, new = load(str(base)), load(args.files[0])
            if old["run"]["scale"] != new["run"]["scale"]:
                print(f"schema error: baseline scale "
                      f"{old['run']['scale']:g} != run scale "
                      f"{new['run']['scale']:g} — work counters are not "
                      "comparable across problem sizes",
                      file=sys.stderr)
                return 2
            if (old["run"]["threads"] != new["run"]["threads"]
                    and not args.skip_wall):
                print(f"note: thread counts differ "
                      f"({old['run']['threads']} vs {new['run']['threads']})"
                      " — comparing work counters only (--skip-wall)")
                args.skip_wall = True
        elif len(args.files) == 2:
            old, new = (load(p) for p in args.files)
        else:
            parser.error("comparison needs OLD NEW, or a single NEW to "
                         "diff against the committed baseline")
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return 2

    violations = compare(old, new, args)
    if args.wall_sum_budget_pct is not None:
        old_sum, new_sum = wall_sum(old), wall_sum(new)
        limit = (old_sum * (1.0 + args.wall_sum_budget_pct / 100.0)
                 + args.wall_sum_slack_ms)
        print(f"wall sum: {old_sum:.3f} -> {new_sum:.3f} ms "
              f"(limit {limit:.3f})")
        if new_sum > limit:
            violations.append(
                f"wall_ms sum regressed {old_sum:.3f} -> {new_sum:.3f} "
                f"(budget +{args.wall_sum_budget_pct:g}% "
                f"+ {args.wall_sum_slack_ms:g} ms)")
    for v in violations:
        print(f"FAIL: {v}", file=sys.stderr)
    if violations:
        return 1
    print("ok: no counter drift" + ("" if args.skip_wall
                                    else ", no wall-clock regression"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
