#!/usr/bin/env python3
"""Validate BENCH_*.json files against the shlcp.bench.v1 schema.

Usage:
    check_bench_json.py BENCH_sim.json [BENCH_parallel_enum.json ...]
    check_bench_json.py --service BENCH_service.json
    check_bench_json.py --parallel BENCH_parallel_enum.json
    check_bench_json.py --chaos BENCH_chaos.json
    check_bench_json.py --fleet BENCH_fleet.json
    check_bench_json.py --supervisor BENCH_supervisor.json
    check_bench_json.py --interactive BENCH_interactive.json
    check_bench_json.py --trace trace.jsonl
    check_bench_json.py --ckpt CKPT_DIR [CKPT_DIR ...]
    check_bench_json.py --self-test

The schema is pinned in bench/report.h and tests/bench_report_test.cpp;
this script is the CI-side check that runs against the files the smoke
benches actually wrote. With --trace it instead validates a JSONL trace
file (one span/event object per line, as emitted by src/util/trace.cpp).
With --service it additionally enforces the service-bench contract of
EXPERIMENTS.md E19 on a BENCH_service.json: a nonzero request count, a
warm-cache hit rate inside [0, 1], a passing bit-identity verification,
and a populated per-endpoint latency histogram for every cacheable op.
With --chaos it additionally enforces the resilience contract of
EXPERIMENTS.md E21 on a BENCH_chaos.json: zero wrong responses, at
least 3 kill -9/restart cycles, exact outcome accounting per pass
(ok + refused + errors + lost == requests), zero unattributed errors,
zero lost calls under the calm-wire crash pass, a replayed fault
schedule, and the crash-consistent disk-cache probes (pre-crash disk
hit, torn-entry-is-miss) both passing.
With --fleet it additionally enforces the shard-router contract of
EXPERIMENTS.md E22 on a BENCH_fleet.json: bit-identity verification
against the in-process oracle (meta.verified), zero duplicate cache
computes fleet-wide (disjoint ownership: the sum of per-backend misses
equals the distinct-key count), zero reroutes and exact first-preference
ownership with every backend alive, a backends_1 baseline case plus at
least one larger fleet, and positive throughput in every case.
With --supervisor it additionally enforces the self-healing contract of
EXPERIMENTS.md E23 on a BENCH_supervisor.json: at least 5 SIGKILLed
backends, zero wrong responses, restarts >= kills (every crash was
auto-restarted within the budget, no backend left quarantined), the
warm-restart disk-cache probe passing, and exact stream accounting
(ok + refused + errors + lost == requests, with errors and lost both
zero -- the router answers every request even mid-crash).
With --interactive it additionally enforces the commit-reveal contract
of EXPERIMENTS.md E24 on a BENCH_interactive.json: zero binding
violations across the forgery/replay/corruption attack family, a
passing hiding chi-square audit over at least two colorings, an
amplification curve with at least two rounds_* points all inside the
(1 - 1/m)^R envelope, and exact session accounting recomputed from the
raw counters (opened == completed + expired + refused, with aborted
and live both zero at the end of the run).
With --parallel it additionally enforces the enumeration hot-path
contract on a BENCH_parallel_enum.json: a sequential case plus a full
threads_* speedup curve with positive throughput everywhere, the
fingerprint-gate accounting (hits + misses == registrations per build),
canonical-code computes <= 0.7x registrations (the dedup gate must avoid
at least 30% of the exact-code work; in practice it avoids nearly all of
it), and -- in non-smoke runs on a machine with >= 2 hardware threads --
a 2-thread speedup of at least 1.0 (single-core machines only get a
warning, since speedup is not measurable there).
With --ckpt it validates checkpoint directories written by the resumable
V(D, n) builders (schema shlcp.ckpt.v1, pinned in src/nbhd/checkpoint.h):
exact manifest keys and types, frames_done <= num_frames, known status
and stop_reason values, digest format, and that the state file's FNV-1a
hash matches the recorded state_digest.

With --self-test it validates itself: it writes known-good and
known-bad fixtures to a temporary directory, re-invokes this script on
each, and asserts every documented exit code below.

Exit codes (the overall code is the maximum across all files checked):
    0  every file validates
    1  a file parsed but violated its schema or mode contract
    2  usage error: no arguments, no files, or an unknown --mode flag
    3  a named file or directory is missing or unreadable
    4  a named file exists but is not well-formed JSON

Prints one line per problem.
"""

import json
import os
import re
import subprocess
import sys
import tempfile

# The documented exit-code contract. Checkers return one of these per
# file; main() reports the maximum across all files, so the most severe
# problem wins (MALFORMED > MISSING > FAIL > PASS).
PASS = 0
FAIL = 1
USAGE = 2
MISSING = 3
MALFORMED = 4

SCHEMA = "shlcp.bench.v1"
# Every schema id this checker knows how to validate. A document whose
# "schema" member is not listed here is an error, never a silent pass:
# a renamed or future schema must come with an updated checker.
KNOWN_SCHEMAS = {SCHEMA}
SERVICE_OPS = ["run_decoder", "check_coloring", "search_witness",
               "build_nbhd"]
TOP_KEYS = ["schema", "bench", "run", "meta", "cases", "metrics"]
RUN_KEYS = ["git", "unix_time", "hardware_concurrency", "num_threads", "smoke"]
METRIC_KEYS = ["counters", "gauges", "histograms"]
TRACE_TYPES = {"span", "event"}

CKPT_SCHEMA = "shlcp.ckpt.v1"
CKPT_KEYS = ["schema", "git", "decoder", "build", "k", "options_hash",
             "num_frames", "frames_done", "instances_absorbed", "status",
             "stop_reason", "state_file", "state_digest", "frames_digest"]
CKPT_STR_KEYS = ["schema", "git", "decoder", "build", "options_hash",
                 "status", "stop_reason", "state_file", "state_digest",
                 "frames_digest"]
CKPT_INT_KEYS = ["k", "num_frames", "frames_done", "instances_absorbed"]
CKPT_STATUSES = {"in_progress", "complete"}
CKPT_STOP_REASONS = {"none", "cancel_requested", "interrupt", "deadline",
                     "frame_budget"}
DIGEST_RE = re.compile(r"^fnv:[0-9a-f]{16}$")


def fnv1a_hex(data):
    """FNV-1a 64 over bytes, rendered exactly like src/nbhd/checkpoint.cpp."""
    h = 1469598103934665603
    for b in data:
        h = ((h ^ b) * 1099511628211) & 0xFFFFFFFFFFFFFFFF
    return f"fnv:{h:016x}"


def fail(path, msg):
    print(f"{path}: {msg}")
    return False


def load_json(path):
    """Returns (code, doc): (PASS, parsed) on success, or (MISSING, None)
    / (MALFORMED, None) after printing the problem."""
    try:
        with open(path, encoding="utf-8") as f:
            return PASS, json.load(f)
    except OSError as e:
        fail(path, f"unreadable: {e}")
        return MISSING, None
    except json.JSONDecodeError as e:
        fail(path, f"not JSON: {e}")
        return MALFORMED, None


def check_report(path):
    code, doc = load_json(path)
    if code:
        return code
    return PASS if check_report_doc(path, doc) else FAIL


def check_report_doc(path, doc):
    ok = True
    if not isinstance(doc, dict) or list(doc.keys()) != TOP_KEYS:
        ok = fail(path, f"top-level keys must be exactly {TOP_KEYS}, "
                        f"got {list(doc) if isinstance(doc, dict) else type(doc).__name__}")
        return ok
    if doc["schema"] not in KNOWN_SCHEMAS:
        ok = fail(path, f"unknown schema id {doc['schema']!r} (known: "
                        f"{sorted(KNOWN_SCHEMAS)}); refusing to validate")
        return ok
    if doc["schema"] != SCHEMA:
        ok = fail(path, f"schema is {doc['schema']!r}, expected {SCHEMA!r}")
    if not isinstance(doc["bench"], str) or not doc["bench"]:
        ok = fail(path, "bench must be a non-empty string")

    run = doc["run"]
    if not isinstance(run, dict) or list(run.keys()) != RUN_KEYS:
        ok = fail(path, f"run keys must be exactly {RUN_KEYS}")
    else:
        if not isinstance(run["git"], str):
            ok = fail(path, "run.git must be a string")
        for key in ("unix_time", "hardware_concurrency", "num_threads"):
            if not isinstance(run[key], int) or isinstance(run[key], bool):
                ok = fail(path, f"run.{key} must be an integer")
        if not isinstance(run["smoke"], bool):
            ok = fail(path, "run.smoke must be a boolean")

    if not isinstance(doc["meta"], dict):
        ok = fail(path, "meta must be an object")

    cases = doc["cases"]
    if not isinstance(cases, list):
        ok = fail(path, "cases must be an array")
    else:
        seen = set()
        for i, case in enumerate(cases):
            if (not isinstance(case, dict)
                    or list(case.keys()) != ["name", "values"]
                    or not isinstance(case["name"], str)
                    or not isinstance(case["values"], dict)):
                ok = fail(path, f"cases[{i}] must be "
                                '{"name": str, "values": object}')
                continue
            if case["name"] in seen:
                ok = fail(path, f"duplicate case name {case['name']!r}")
            seen.add(case["name"])

    metrics = doc["metrics"]
    if not isinstance(metrics, dict) or list(metrics.keys()) != METRIC_KEYS:
        ok = fail(path, f"metrics keys must be exactly {METRIC_KEYS}")
    else:
        for name, hist in metrics["histograms"].items():
            if len(hist.get("counts", [])) != len(hist.get("bounds", [])) + 1:
                ok = fail(path, f"histogram {name!r}: len(counts) must be "
                                "len(bounds) + 1")
            if sum(hist.get("counts", [])) != hist.get("count"):
                ok = fail(path, f"histogram {name!r}: counts do not sum to "
                                "count")
    return ok


def check_service(path):
    """check_report plus the BENCH_service.json contract (E19)."""
    code, doc = load_json(path)
    if code:
        return code
    if not isinstance(doc, dict):
        return FAIL
    ok = check_report_doc(path, doc)

    meta = doc.get("meta", {})
    requests = meta.get("requests")
    if not isinstance(requests, int) or isinstance(requests, bool) \
            or requests <= 0:
        ok = fail(path, f"meta.requests must be a positive integer, "
                        f"got {requests!r}")
    hit_rate = meta.get("hit_rate_warm")
    if not isinstance(hit_rate, (int, float)) or isinstance(hit_rate, bool) \
            or not 0.0 <= hit_rate <= 1.0:
        ok = fail(path, f"meta.hit_rate_warm must be a number in [0, 1], "
                        f"got {hit_rate!r}")
    if meta.get("verified") is not True:
        ok = fail(path, "meta.verified must be true (service responses "
                        "were not bit-identical to direct library calls)")

    histograms = doc.get("metrics", {}).get("histograms", {})
    for op in SERVICE_OPS:
        name = f"service.{op}.latency_ns"
        hist = histograms.get(name)
        if not isinstance(hist, dict):
            ok = fail(path, f"missing endpoint histogram {name!r}")
        elif not hist.get("count"):
            ok = fail(path, f"endpoint histogram {name!r} recorded nothing")
    return PASS if ok else FAIL


CHAOS_MIN_KILLS = 3
CHAOS_PASSES = ["chaos", "crash"]
CHAOS_PASS_INTS = ["requests", "ok", "refused", "errors", "lost", "retries",
                   "reconnects", "timeouts", "digest_mismatches"]
CHAOS_FLAGS = ["replay_match", "disk_hit_after_restart", "torn_entry_is_miss",
               "accounting_exact"]


def check_chaos(path):
    """check_report plus the BENCH_chaos.json contract (E21)."""
    code, doc = load_json(path)
    if code:
        return code
    if not isinstance(doc, dict):
        return FAIL
    ok = check_report_doc(path, doc)

    meta = doc.get("meta", {})

    def meta_int(key):
        v = meta.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return None
        return v

    kills = meta_int("kills")
    if kills is None or kills < CHAOS_MIN_KILLS:
        ok = fail(path, f"meta.kills must be an integer >= {CHAOS_MIN_KILLS}, "
                        f"got {meta.get('kills')!r}")
    if meta_int("wrong_responses") != 0:
        ok = fail(path, "meta.wrong_responses must be exactly 0 (a completed "
                        "response differed from the oracle)")
    repro = meta.get("repro")
    if not isinstance(repro, str) or repro.count(";") != 6:
        ok = fail(path, f"meta.repro must be a 7-field ChaosPlan descriptor, "
                        f"got {repro!r}")
    for key in CHAOS_FLAGS:
        if meta.get(key) is not True:
            ok = fail(path, f"meta.{key} must be true, got {meta.get(key)!r}")

    for prefix in CHAOS_PASSES:
        values = {}
        for key in CHAOS_PASS_INTS:
            v = meta_int(f"{prefix}_{key}")
            if v is None:
                ok = fail(path, f"meta.{prefix}_{key} must be a non-negative "
                                f"integer, got {meta.get(f'{prefix}_{key}')!r}")
            values[key] = v
        if any(v is None for v in values.values()):
            continue
        if values["requests"] == 0:
            ok = fail(path, f"meta.{prefix}_requests is 0: the {prefix} pass "
                            "never ran")
            continue
        # Every call must be accounted for exactly once (wrong responses
        # are already required to be zero above).
        accounted = (values["ok"] + values["refused"] + values["errors"]
                     + values["lost"])
        if accounted != values["requests"]:
            ok = fail(path, f"{prefix} pass accounting is inexact: ok + "
                            f"refused + errors + lost = {accounted} != "
                            f"requests = {values['requests']}")
        if values["errors"] != 0:
            ok = fail(path, f"meta.{prefix}_errors must be 0 (unattributed "
                            f"wire errors), got {values['errors']}")
    crash_lost = meta_int("crash_lost")
    if crash_lost is not None and crash_lost != 0:
        ok = fail(path, f"meta.crash_lost must be 0: retries must absorb "
                        f"every kill -9 on a calm wire, got {crash_lost}")
    return PASS if ok else FAIL


FLEET_CASE_INTS = ["backends", "requests", "ok", "errors", "wrong",
                   "sum_misses", "duplicate_computes", "reroutes"]


def check_fleet(path):
    """check_report plus the BENCH_fleet.json contract (E22)."""
    code, doc = load_json(path)
    if code:
        return code
    if not isinstance(doc, dict):
        return FAIL
    ok = check_report_doc(path, doc)

    meta = doc.get("meta", {})
    requests = meta.get("requests")
    if not isinstance(requests, int) or isinstance(requests, bool) \
            or requests <= 0:
        ok = fail(path, f"meta.requests must be a positive integer, "
                        f"got {requests!r}")
    if meta.get("verified") is not True:
        ok = fail(path, "meta.verified must be true (routed responses were "
                        "not bit-identical to direct Service calls)")
    if meta.get("errors") != 0:
        ok = fail(path, f"meta.errors must be 0, got {meta.get('errors')!r}")
    if meta.get("duplicate_computes") != 0:
        ok = fail(path, "meta.duplicate_computes must be 0 (the fleet's "
                        "caches must shard disjointly), got "
                        f"{meta.get('duplicate_computes')!r}")
    if meta.get("ownership_ok") is not True:
        ok = fail(path, "meta.ownership_ok must be true (a request was not "
                        "answered by its key's first-preference backend)")
    distinct = meta.get("distinct_keys")
    if not isinstance(distinct, int) or isinstance(distinct, bool) \
            or distinct <= 0:
        ok = fail(path, f"meta.distinct_keys must be a positive integer, "
                        f"got {distinct!r}")

    cases = {c.get("name"): c.get("values", {})
             for c in doc.get("cases", []) if isinstance(c, dict)}
    larger = [n for n in cases if n.startswith("backends_")
              and n != "backends_1"]
    if "backends_1" not in cases:
        ok = fail(path, "missing case 'backends_1' (no single-backend "
                        "baseline for the scaling curve)")
    if not larger:
        ok = fail(path, "no backends_N case with N > 1 (no scaling curve)")
    for name, values in cases.items():
        for key in FLEET_CASE_INTS:
            v = values.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                ok = fail(path, f"{name}.{key} must be a non-negative "
                                f"integer, got {v!r}")
        rps = values.get("req_per_s")
        if not isinstance(rps, (int, float)) or isinstance(rps, bool) \
                or rps <= 0:
            ok = fail(path, f"{name}.req_per_s must be a positive number, "
                            f"got {rps!r}")
        for key in ("errors", "wrong", "duplicate_computes", "reroutes"):
            if values.get(key) != 0:
                ok = fail(path, f"{name}.{key} must be 0, "
                                f"got {values.get(key)!r}")
        if values.get("ownership_ok") is not True:
            ok = fail(path, f"{name}.ownership_ok must be true")
    return PASS if ok else FAIL


SUPERVISOR_MIN_KILLS = 5
SUPERVISOR_STREAM_INTS = ["stream_requests", "stream_ok", "stream_refused",
                          "stream_errors", "stream_lost"]
SUPERVISOR_FLAGS = ["budget_ok", "warm_hit_after_restart",
                    "all_running_at_end", "accounting_exact"]


def check_supervisor(path):
    """check_report plus the BENCH_supervisor.json contract (E23)."""
    code, doc = load_json(path)
    if code:
        return code
    if not isinstance(doc, dict):
        return FAIL
    ok = check_report_doc(path, doc)

    meta = doc.get("meta", {})

    def meta_int(key):
        v = meta.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return None
        return v

    kills = meta_int("kills")
    if kills is None or kills < SUPERVISOR_MIN_KILLS:
        ok = fail(path, f"meta.kills must be an integer >= "
                        f"{SUPERVISOR_MIN_KILLS}, got {meta.get('kills')!r}")
    if meta_int("wrong_responses") != 0:
        ok = fail(path, "meta.wrong_responses must be exactly 0 (a routed "
                        "response differed from the oracle)")
    restarts = meta_int("restarts")
    if restarts is None or kills is None or restarts < kills:
        ok = fail(path, f"meta.restarts ({meta.get('restarts')!r}) must be "
                        f">= meta.kills ({meta.get('kills')!r}): every "
                        "SIGKILL must have been auto-restarted")
    if meta.get("any_quarantined") is not False:
        ok = fail(path, "meta.any_quarantined must be false (spaced kills "
                        "must never trip the crash-loop breaker)")
    for key in SUPERVISOR_FLAGS:
        if meta.get(key) is not True:
            ok = fail(path, f"meta.{key} must be true, got {meta.get(key)!r}")

    values = {}
    for key in SUPERVISOR_STREAM_INTS:
        v = meta_int(key)
        if v is None:
            ok = fail(path, f"meta.{key} must be a non-negative integer, "
                            f"got {meta.get(key)!r}")
        values[key] = v
    if all(v is not None for v in values.values()):
        if values["stream_requests"] == 0:
            ok = fail(path, "meta.stream_requests is 0: the load stream "
                            "never ran")
        else:
            accounted = (values["stream_ok"] + values["stream_refused"]
                         + values["stream_errors"] + values["stream_lost"])
            if accounted != values["stream_requests"]:
                ok = fail(path, "stream accounting is inexact: ok + refused "
                                f"+ errors + lost = {accounted} != requests "
                                f"= {values['stream_requests']}")
            for key in ("stream_errors", "stream_lost"):
                if values[key] != 0:
                    ok = fail(path, f"meta.{key} must be 0 (the router must "
                                    "answer every request even mid-crash), "
                                    f"got {values[key]}")
    return PASS if ok else FAIL


IA_SCHEMA = "shlcp.ia.v1"
IA_COUNTER_KEYS = ["opened", "completed", "expired", "refused", "aborted",
                   "live", "sessions"]
IA_FLAGS = ["hiding_ok", "amplification_ok", "accounting_exact"]
IA_ROUNDS_INTS = ["rounds", "sessions", "accepted"]


def check_interactive(path):
    """check_report plus the BENCH_interactive.json contract (E24)."""
    code, doc = load_json(path)
    if code:
        return code
    if not isinstance(doc, dict):
        return FAIL
    ok = check_report_doc(path, doc)

    meta = doc.get("meta", {})

    def meta_int(key):
        v = meta.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            return None
        return v

    if meta.get("schema_interactive") != IA_SCHEMA:
        ok = fail(path, f"meta.schema_interactive must be {IA_SCHEMA!r}, "
                        f"got {meta.get('schema_interactive')!r}")
    # Binding: the whole attack family (forgeries, replays, corrupted
    # messages) must have produced zero accepted-yet-unbound openings.
    if meta_int("binding_violations") != 0:
        ok = fail(path, "meta.binding_violations must be exactly 0 (an "
                        "opening was accepted that does not bind to its "
                        f"commitment), got {meta.get('binding_violations')!r}")
    for key in ("binding_sessions", "forgeries_tried", "binding_attacks"):
        v = meta_int(key)
        if v is None or v == 0:
            ok = fail(path, f"meta.{key} must be a positive integer "
                            f"(the binding audit never ran), "
                            f"got {meta.get(key)!r}")
    for key in IA_FLAGS:
        if meta.get(key) is not True:
            ok = fail(path, f"meta.{key} must be true, got {meta.get(key)!r}")
    colorings = meta_int("hiding_colorings")
    if colorings is None or colorings < 2:
        ok = fail(path, "meta.hiding_colorings must be >= 2 (the hiding "
                        "audit must compare at least two colorings), "
                        f"got {meta.get('hiding_colorings')!r}")

    # Session accounting, recomputed from the raw counters: every open
    # attempt lands in exactly one of {completed, expired, refused}, and
    # the run must drain (nothing aborted, nothing still live).
    counters = {key: meta_int(key) for key in IA_COUNTER_KEYS}
    for key, v in counters.items():
        if v is None:
            ok = fail(path, f"meta.{key} must be a non-negative integer, "
                            f"got {meta.get(key)!r}")
    if all(v is not None for v in counters.values()):
        accounted = (counters["completed"] + counters["expired"]
                     + counters["refused"])
        if accounted != counters["opened"]:
            ok = fail(path, "session accounting is inexact: completed + "
                            f"expired + refused = {accounted} != opened = "
                            f"{counters['opened']}")
        for key in ("aborted", "live"):
            if counters[key] != 0:
                ok = fail(path, f"meta.{key} must be 0 at the end of the "
                                f"run, got {counters[key]}")
        if counters["sessions"] == 0:
            ok = fail(path, "meta.sessions is 0: no session was ever "
                            "admitted")

    cases = {c.get("name"): c.get("values", {})
             for c in doc.get("cases", []) if isinstance(c, dict)}
    rounds_cases = sorted(n for n in cases if n.startswith("rounds_"))
    if len(rounds_cases) < 2:
        ok = fail(path, "need at least 2 rounds_* cases for an "
                        f"amplification curve, got {rounds_cases}")
    for name in rounds_cases:
        values = cases[name]
        for key in IA_ROUNDS_INTS:
            v = values.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                ok = fail(path, f"{name}.{key} must be a positive integer, "
                                f"got {v!r}")
        for key in ("rate", "envelope"):
            v = values.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or not 0.0 <= v <= 1.0:
                ok = fail(path, f"{name}.{key} must be a number in [0, 1], "
                                f"got {v!r}")
        if values.get("within") is not True:
            ok = fail(path, f"{name}.within must be true (the cheating "
                            "acceptance rate escaped the (1 - 1/m)^R "
                            "envelope)")
    hiding_cases = [n for n in cases if n.startswith("hiding_coloring_")]
    if len(hiding_cases) < 2:
        ok = fail(path, "need at least 2 hiding_coloring_* cases, "
                        f"got {sorted(hiding_cases)}")
    for name in sorted(hiding_cases):
        if cases[name].get("ok") is not True:
            ok = fail(path, f"{name}.ok must be true (transcripts from this "
                            "coloring are distinguishable)")
    serving = cases.get("serving")
    if serving is None:
        ok = fail(path, "missing case 'serving' (the in-service accounting "
                        "pass never ran)")
    else:
        attempts = serving.get("attempts")
        if not isinstance(attempts, int) or isinstance(attempts, bool) \
                or attempts <= 0:
            ok = fail(path, f"serving.attempts must be a positive integer, "
                            f"got {attempts!r}")
        elif counters.get("opened") is not None \
                and attempts != counters["opened"]:
            ok = fail(path, f"serving.attempts ({attempts}) != meta.opened "
                            f"({counters['opened']}): an open attempt was "
                            "dropped from the accounting")
    return PASS if ok else FAIL


PARALLEL_CASE_INTS = ["canonical_computes", "fingerprint_hits",
                      "fingerprint_misses", "steals", "chunks_adaptive"]
PARALLEL_CASE_FLOATS = ["seconds", "instances_per_sec", "speedup"]


def check_parallel(path):
    """check_report plus the BENCH_parallel_enum.json contract."""
    code, doc = load_json(path)
    if code:
        return code
    if not isinstance(doc, dict):
        return FAIL
    ok = check_report_doc(path, doc)

    meta = doc.get("meta", {})
    registrations = meta.get("registrations")
    if not isinstance(registrations, int) or isinstance(registrations, bool) \
            or registrations <= 0:
        fail(path, f"meta.registrations must be a positive integer, "
                   f"got {registrations!r}")
        return FAIL

    cases = {c.get("name"): c.get("values", {})
             for c in doc.get("cases", []) if isinstance(c, dict)}
    run = doc.get("run", {})
    smoke = run.get("smoke") is True
    hw = run.get("hardware_concurrency", 0)
    required = ["sequential", "threads_1", "threads_2"]
    if not smoke:
        required += ["threads_4", "threads_8"]
    for name in required:
        if name not in cases:
            ok = fail(path, f"missing case {name!r} (speedup curve is "
                            "incomplete)")
    for name, values in cases.items():
        for key in PARALLEL_CASE_FLOATS:
            v = values.get(key)
            if not isinstance(v, (int, float)) or isinstance(v, bool) \
                    or v <= 0:
                ok = fail(path, f"{name}.{key} must be a positive number, "
                                f"got {v!r}")
        for key in PARALLEL_CASE_INTS:
            v = values.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                ok = fail(path, f"{name}.{key} must be a non-negative "
                                f"integer, got {v!r}")
        if not ok:
            continue
        # The fingerprint gate's accounting is exact per build: every
        # registration is either a chain-opening miss or a gated hit.
        hits = values["fingerprint_hits"]
        misses = values["fingerprint_misses"]
        if hits + misses != registrations:
            ok = fail(path, f"{name}: fingerprint_hits ({hits}) + "
                            f"fingerprint_misses ({misses}) != "
                            f"registrations ({registrations})")
        computes = values["canonical_computes"]
        if computes > 0.7 * registrations:
            ok = fail(path, f"{name}: canonical_computes ({computes}) "
                            f"exceeds 0.7 x registrations ({registrations})"
                            " -- the fingerprint gate is not avoiding exact"
                            " canonical-code work")
    two = cases.get("threads_2", {})
    speedup2 = two.get("speedup")
    if isinstance(speedup2, (int, float)) and not isinstance(speedup2, bool):
        if smoke or hw < 2:
            if speedup2 < 1.0:
                print(f"{path}: note: threads_2 speedup is {speedup2:.2f} "
                      f"(smoke={smoke}, hardware_concurrency={hw}; "
                      "not enforced)")
        elif speedup2 < 1.0:
            ok = fail(path, f"threads_2 speedup is {speedup2:.2f} < 1.0 on "
                            f"a {hw}-thread machine in a non-smoke run")
    return PASS if ok else FAIL


def check_trace(path):
    code = PASS
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as e:
        fail(path, f"unreadable: {e}")
        return MISSING
    if not lines:
        fail(path, "trace is empty")
        return FAIL
    for lineno, line in enumerate(lines, 1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as e:
            fail(path, f"line {lineno}: not JSON: {e}")
            code = max(code, MALFORMED)
            continue
        kind = record.get("type")
        if kind not in TRACE_TYPES:
            fail(path, f"line {lineno}: type must be one of "
                       f"{sorted(TRACE_TYPES)}")
            code = max(code, FAIL)
            continue
        required = {"span": ["type", "name", "tid", "t0_ns", "dur_ns"],
                    "event": ["type", "name", "tid", "t_ns"]}[kind]
        missing = [k for k in required if k not in record]
        if missing:
            fail(path, f"line {lineno}: {kind} missing {missing}")
            code = max(code, FAIL)
        if "attrs" in record and not isinstance(record["attrs"], dict):
            fail(path, f"line {lineno}: attrs must be an object")
            code = max(code, FAIL)
    return code


def check_ckpt(ckpt_dir):
    manifest_path = os.path.join(ckpt_dir, "manifest.json")
    code, doc = load_json(manifest_path)
    if code:
        return code

    ok = True
    if not isinstance(doc, dict) or list(doc.keys()) != CKPT_KEYS:
        fail(manifest_path,
             f"manifest keys must be exactly {CKPT_KEYS}, got "
             f"{list(doc) if isinstance(doc, dict) else type(doc).__name__}")
        return FAIL
    for key in CKPT_STR_KEYS:
        if not isinstance(doc[key], str) or not doc[key]:
            ok = fail(manifest_path, f"{key} must be a non-empty string")
    for key in CKPT_INT_KEYS:
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) \
                or doc[key] < 0:
            ok = fail(manifest_path, f"{key} must be a non-negative integer")
    if not ok:
        return FAIL
    if doc["schema"] != CKPT_SCHEMA:
        ok = fail(manifest_path,
                  f"schema is {doc['schema']!r}, expected {CKPT_SCHEMA!r}")
    if doc["frames_done"] > doc["num_frames"]:
        ok = fail(manifest_path,
                  f"frames_done ({doc['frames_done']}) exceeds num_frames "
                  f"({doc['num_frames']})")
    if doc["status"] not in CKPT_STATUSES:
        ok = fail(manifest_path, f"status {doc['status']!r} must be one of "
                                 f"{sorted(CKPT_STATUSES)}")
    if doc["status"] == "complete" and doc["frames_done"] != doc["num_frames"]:
        ok = fail(manifest_path, "status is \"complete\" but frames_done != "
                                 "num_frames")
    if doc["stop_reason"] not in CKPT_STOP_REASONS:
        ok = fail(manifest_path,
                  f"stop_reason {doc['stop_reason']!r} must be one of "
                  f"{sorted(CKPT_STOP_REASONS)}")
    for key in ("options_hash", "state_digest", "frames_digest"):
        if not DIGEST_RE.match(doc[key]):
            ok = fail(manifest_path,
                      f"{key} {doc[key]!r} must match fnv:<16 hex digits>")
    if os.path.basename(doc["state_file"]) != doc["state_file"]:
        fail(manifest_path, f"state_file {doc['state_file']!r} must be "
                            "a bare filename inside the directory")
        return FAIL
    state_path = os.path.join(ckpt_dir, doc["state_file"])
    try:
        with open(state_path, "rb") as f:
            state_bytes = f.read()
    except OSError as e:
        fail(state_path, f"unreadable: {e}")
        return MISSING
    digest = fnv1a_hex(state_bytes)
    if digest != doc["state_digest"]:
        ok = fail(state_path, f"hashes to {digest} but the manifest records "
                              f"{doc['state_digest']} (torn or tampered)")
    try:
        json.loads(state_bytes)
    except json.JSONDecodeError as e:
        ok = fail(state_path, f"not JSON: {e}")
    return PASS if ok else FAIL


MODES = {
    "--service": check_service,
    "--parallel": check_parallel,
    "--chaos": check_chaos,
    "--fleet": check_fleet,
    "--supervisor": check_supervisor,
    "--interactive": check_interactive,
    "--trace": check_trace,
    "--ckpt": check_ckpt,
}


def _selftest_report():
    """A minimal document that passes the plain schema check."""
    return {
        "schema": SCHEMA,
        "bench": "selftest",
        "run": {"git": "0000000", "unix_time": 0,
                "hardware_concurrency": 1, "num_threads": 1, "smoke": True},
        "meta": {},
        "cases": [],
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
    }


def _selftest_interactive():
    """A minimal document that passes the --interactive contract."""
    doc = _selftest_report()
    doc["bench"] = "interactive"
    doc["meta"] = {
        "schema_interactive": IA_SCHEMA,
        "binding_violations": 0, "binding_sessions": 8,
        "forgeries_tried": 64, "replays_tried": 2,
        "corrupted_messages": 4, "binding_attacks": 8,
        "hiding_ok": True, "hiding_colorings": 2,
        "amplification_ok": True, "accounting_exact": True,
        "opened": 4, "completed": 2, "expired": 1, "refused": 1,
        "aborted": 0, "live": 0, "sessions": 3,
    }
    doc["cases"] = [
        {"name": "hiding_coloring_0",
         "values": {"chi2": 0.5, "samples": 64, "ok": True}},
        {"name": "hiding_coloring_1",
         "values": {"chi2": 0.4, "samples": 64, "ok": True}},
        {"name": "rounds_1",
         "values": {"rounds": 1, "sessions": 32, "accepted": 26,
                    "rate": 0.8125, "envelope": 0.8, "sigma": 0.07,
                    "within": True}},
        {"name": "rounds_4",
         "values": {"rounds": 4, "sessions": 32, "accepted": 13,
                    "rate": 0.40625, "envelope": 0.4096, "sigma": 0.08,
                    "within": True}},
        {"name": "serving",
         "values": {"attempts": 4, "sessions_per_s": 100.0, "steps": 8}},
    ]
    return doc


def _selftest_ckpt(directory, stop_reason):
    """Writes a checkpoint directory whose manifest is valid apart from,
    possibly, its stop_reason."""
    os.makedirs(directory)
    state = b'{"views": []}'
    with open(os.path.join(directory, "state.json"), "wb") as f:
        f.write(state)
    manifest = {
        "schema": CKPT_SCHEMA, "git": "unknown", "decoder": "degree-one",
        "build": "exhaustive", "k": 2, "options_hash": fnv1a_hex(b"options"),
        "num_frames": 4, "frames_done": 2, "instances_absorbed": 8,
        "status": "in_progress", "stop_reason": stop_reason,
        "state_file": "state.json", "state_digest": fnv1a_hex(state),
        "frames_digest": fnv1a_hex(b"frames"),
    }
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="utf-8") as f:
        json.dump(manifest, f)
    return directory


def self_test():
    """Asserts the documented exit-code contract by re-invoking this
    script as a subprocess on generated fixtures. Returns 0 iff every
    invocation produced exactly the expected code."""
    script = os.path.abspath(__file__)

    def run(args):
        proc = subprocess.run([sys.executable, script] + args,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        return proc.returncode, proc.stdout

    failures = 0
    with tempfile.TemporaryDirectory(prefix="check_bench_selftest.") as tmp:
        def write(name, content):
            path = os.path.join(tmp, name)
            with open(path, "w", encoding="utf-8") as f:
                if isinstance(content, str):
                    f.write(content)
                else:
                    json.dump(content, f)
            return path

        good = write("good.json", _selftest_report())
        bad_schema = _selftest_report()
        bad_schema["schema"] = "shlcp.bench.v999"
        bad = write("bad_schema.json", bad_schema)
        malformed = write("malformed.json", '{"schema": "shlcp.bench.v1",')
        ia_good = write("ia_good.json", _selftest_interactive())
        ia_bad = _selftest_interactive()
        ia_bad["meta"]["binding_violations"] = 1
        ia_bad_path = write("ia_bad.json", ia_bad)
        ia_leak = _selftest_interactive()
        ia_leak["meta"]["live"] = 1
        ia_leak["meta"]["completed"] = 1
        ia_leak_path = write("ia_leak.json", ia_leak)
        missing = os.path.join(tmp, "does_not_exist.json")
        # Every stop reason the builders can record passes; any other
        # name fails.
        ckpt_good = [_selftest_ckpt(os.path.join(tmp, "ckpt_" + reason),
                                    reason)
                     for reason in sorted(CKPT_STOP_REASONS)]
        ckpt_stale = [_selftest_ckpt(os.path.join(tmp, "ckpt_" + reason),
                                     reason)
                      for reason in ("stall", "instance_budget",
                                     "memory_budget")]

        expectations = [
            (PASS, [good]),
            (PASS, ["--interactive", ia_good]),
            (FAIL, [bad]),
            (FAIL, ["--interactive", ia_bad_path]),
            (FAIL, ["--interactive", ia_leak_path]),
            (USAGE, []),
            (USAGE, ["--service"]),
            (USAGE, ["--no-such-mode", good]),
            (MISSING, [missing]),
            (MISSING, ["--interactive", missing]),
            (MALFORMED, [malformed]),
            (MALFORMED, ["--interactive", malformed]),
            # The overall code is the max across files: a malformed file
            # dominates a merely-failing one.
            (MALFORMED, [bad, malformed]),
            (MALFORMED, [malformed, good]),
            (PASS, ["--ckpt"] + ckpt_good),
        ] + [(FAIL, ["--ckpt", stale]) for stale in ckpt_stale]
        for expected, args in expectations:
            code, output = run(args)
            if code != expected:
                failures += 1
                print(f"self-test: {args!r} exited {code}, expected "
                      f"{expected}; output:\n{output}")
    if failures:
        print(f"self-test: {failures} expectation(s) failed")
        return 1
    print(f"self-test: all {len(expectations)} exit-code "
          "expectations hold")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) < 2:
        print(__doc__.strip())
        return USAGE
    if argv[1].startswith("--"):
        checker = MODES.get(argv[1])
        if checker is None:
            print(f"unknown mode {argv[1]!r}; known modes: "
                  f"{' '.join(sorted(MODES))} --self-test")
            return USAGE
        paths = argv[2:]
    else:
        paths, checker = argv[1:], check_report
    if not paths:
        print("no files given")
        return USAGE
    worst = PASS
    for path in paths:
        code = checker(path)
        if code == PASS:
            print(f"{path}: OK")
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main(sys.argv))
