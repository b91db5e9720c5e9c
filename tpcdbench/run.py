"""TPC-D power / throughput / ad-hoc benchmark of the Moa -> MIL engine.

Usage (from the repository root)::

    python3 tpcdbench/run.py --workload power --seed 1 --seconds 20 \\
        --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Every answer is checked against the sqlite oracle and
across front-ends; a disagreement exits with status 2 and prints no
result.  A human-readable summary goes to standard error, and a full
report (workload record, per-query waterfall, served-vs-in-process
reconciliation, and the spans of a traced run) to
``.tpcdbench/out/``.  See ``tpcdbench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the engine is built from this checkout's sources, never elsewhere
SRC = os.path.join(ROOT, "src")
if os.path.isdir(os.path.join(SRC, "repro")):
    sys.path.insert(0, SRC)
    if HERE not in sys.path:
        sys.path.insert(0, HERE)
    import drive
    import inputs
    import verify
    from repro.sql import execute_sql
else:
    drive = inputs = verify = None

#: the operator implementations a pass dispatches today; any other
#: "op:impl" is counted under ``monet.dispatch.other``
DISPATCH_KEYS = (
    "group:binary-synced", "group:unary", "join:fetchjoin",
    "join:hashjoin", "join:mergejoin", "multiplex:aligned",
    "multiplex:synced", "select:binsearch", "select:scan",
    "semijoin:datavectorsemijoin", "semijoin:hashsemijoin",
    "semijoin:mergesemijoin", "semijoin:syncsemijoin",
)
#: replayed distinct queries per query number on ``adhoc``
ADHOC_REPLAY_PER_QUERY = 3
#: rounds of the sequential served probe in a traced run
PROBE_ROUNDS = 2

WORKLOADS = {
    "power": {
        "scale": 0.01, "loop": "closed", "clients": 1, "served": False,
        "mix": "Q1-Q15 through QUERIES[n].run, params drawn once",
        "why": "execution-bound: MIL is most of a pass, with no IPC and "
               "no buffer accounting",
    },
    "throughput": {
        "scale": 0.01, "loop": "closed", "clients": 2, "served": True,
        "mix": "12 Moa texts + 15 SQL texts + 15 tpcd numbers, params "
               "drawn once",
        "why": "the serving path under CPU contention; the 27 cacheable "
               "texts fit the plan cache",
    },
    "adhoc": {
        "scale": 0.001, "loop": "closed", "clients": 2, "served": True,
        "mix": "SQL text, Q1-Q15 in a fresh shuffled order every round, "
               "fresh params every request",
        "why": "compile-bound and larger than the plan cache; serving "
               "overhead weighs most on short requests",
    },
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def quartiles(values):
    values = sorted(values)
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0,) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values):
    """(percentile, value) of the tail latency: p99, or, with fewer
    than 1000 samples, the highest percentile that still has 10
    samples beyond it (the 11th-largest sample; nearest rank)."""
    values = sorted(values)
    n = len(values)
    if n <= 10:
        return 100.0, values[-1] if values else 0.0
    rank = min(n - 10, (99 * n + 99) // 100)
    return 100.0 * rank / n, values[rank - 1]


#: samples per slice of a timed window, enough for a p99 of its own
TAIL_SLICE = 1000


def sliced_tail(samples):
    """(percentile, value, slices): the window is cut into consecutive
    slices of at least :data:`TAIL_SLICE` samples (in start order), and
    the :func:`tail` of each is medianed over the slices, so that one
    slow stretch of a shared host moves the tail of one slice, not the
    run's.  A window of fewer samples is one slice."""
    ordered = [s.ms for s in sorted(samples, key=lambda s: s.start)]
    slices = max(1, len(ordered) // TAIL_SLICE)
    bounds = [len(ordered) * i // slices for i in range(slices + 1)]
    tails = [tail(ordered[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    return (median(p for p, _v in tails), median(v for _p, v in tails),
            slices)


def geomean(values):
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def by_number(samples):
    out = {}
    for sample in samples:
        out.setdefault(sample.request.number, []).append(sample.ms)
    return out


# ----------------------------------------------------------------------
# end-to-end metrics
# ----------------------------------------------------------------------
def end_to_end(window, setup_totals):
    """The user-visible numbers of one timed window, plus details."""
    latencies = [sample.ms for sample in window.samples]
    pct, tail_ms, slices = sliced_tail(window.samples)
    per_query = by_number(window.samples)
    metrics = {
        "qps": (len(window.samples) / window.wall_s, "1/s"),
        "lat_p50_ms": (median(latencies), "ms"),
        "lat_tail_ms": (tail_ms, "ms"),
        "query_geomean_ms": (geomean(median(v) for v in per_query.values()),
                             "ms"),
        "setup_s": (median(setup_totals), "s"),
    }
    details = {
        "samples": len(latencies),
        "wall_s": window.wall_s,
        "lat_tail_percentile": pct,
        "lat_tail_slices": slices,
        "setup_reps": len(setup_totals),
        "query_samples": {str(n): len(v)
                          for n, v in sorted(per_query.items())},
    }
    return metrics, details


def waterfall(samples, layer_rows=None):
    """Q1-Q15 sorted by median latency, quartiles and layer split."""
    rows = []
    for number, values in by_number(samples).items():
        q1, q2, q3 = quartiles(values)
        row = {"query": number, "n": len(values), "p25_ms": q1,
               "p50_ms": q2, "p75_ms": q3}
        if layer_rows is not None:
            layers = {}
            for request, split in layer_rows:
                if request.number == number:
                    for name, ms in split.items():
                        layers.setdefault(name, []).append(ms)
            row["layers_ms"] = {name: median(v)
                                for name, v in sorted(layers.items())
                                if name != "request"}
        rows.append(row)
    rows.sort(key=lambda row: -row["p50_ms"])
    return rows


def format_waterfall(rows):
    lines = ["%4s %5s %9s %9s %9s  %s" % ("q", "n", "p25 ms", "p50 ms",
                                          "p75 ms", "layer split (ms)")]
    for row in rows:
        split = " ".join("%s=%.2f" % (name, ms) for name, ms in
                         row.get("layers_ms", {}).items())
        lines.append("Q%-3d %5d %9.2f %9.2f %9.2f  %s"
                     % (row["query"], row["n"], row["p25_ms"],
                        row["p50_ms"], row["p75_ms"], split))
    return "\n".join(lines)


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def _layer(rows, name, number=None):
    """Median over requests of one span name's per-request total."""
    return median(split[name] for request, split in rows
                  if name in split
                  and (number is None or request.number == number))


def _served_values(samples, form=None, number=None):
    return [s for s in samples
            if (form is None or s.request.form == form)
            and (number is None or s.request.number == number)]


def _split(served, replayed):
    """Served worker time beside the in-process split of the same
    requests: worker = compile (scaled by the plan-cache miss share) +
    MIL + buffer accounting + materialize + ship + residual."""
    miss = sum(1 for s in served if not s.plan_cached) \
        / max(1, len(served))
    parts = {
        "compile_ms": median(r.compile_ms for r in replayed) * miss,
        "exec_ms": median(r.layers.get("mil.exec", 0.0)
                          for r in replayed),
        "buffer_ms": median(r.buffer_ms for r in replayed),
        "materialize_ms": median(r.layers.get("moa.materialize", 0.0)
                                 for r in replayed),
        "ship_ms": median(r.layers.get("multiproc.ship", 0.0)
                          for r in replayed),
    }
    worker = median(s.elapsed_ms for s in served)
    parts["residual_ms"] = worker - sum(parts.values())
    return worker, miss, parts


def reconcile(served, replayed):
    """The per-query, per-form reconciliation table of the report."""
    table = []
    for number, form in sorted({(s.request.number, s.request.form)
                                for s in served}):
        rows = [r for r in replayed
                if r.request.number == number and r.request.form == form]
        if rows:
            mine = _served_values(served, form, number)
            worker, miss, parts = _split(mine, rows)
            entry = {"query": number, "form": form, "n": len(mine),
                     "miss_frac": miss, "worker_ms": worker}
            entry.update(parts)
            table.append(entry)
    return table


def _recon_q1(served, replayed):
    """Q1's served worker time split into named layers (all forms)."""
    worker, _miss, parts = _split(
        _served_values(served, number=1),
        [r for r in replayed if r.request.number == 1])
    out = {"recon.q1.worker_ms": (worker, "ms")}
    for name, value in parts.items():
        out["recon.q1." + name] = (value, "ms")
    return out


def per_layer(layer_rows, replayed, served, probe, stats, phases,
              coverage, overhead, fail_frac):
    """Every per-layer metric: {name: (value, unit)}.

    ``layer_rows`` are (request, {span: ms}) of the requests whose
    in-process layers the run timed (power: its traced window; served
    workloads: the replay); a layer the workload itself never enters
    falls back to the replay.  ``served`` are the served samples (the
    timed windows, or the probe on power); request types missing from
    them fall back to the probe.
    """
    replay_rows = [(r.request, r.layers) for r in replayed]
    out = {}

    def layer(name, number=None):
        value = _layer(layer_rows, name, number)
        if not any(name in split for _r, split in layer_rows):
            value = _layer(replay_rows, name, number)
        return value

    for name in ("sql.parse", "sql.lower", "sql.prepare", "moa.parse",
                 "moa.resolve", "moa.rewrite", "moa.materialize",
                 "mil.exec", "multiproc.ship", "multiproc.checksum"):
        out[name + "_ms"] = (layer(name), "ms")
    for number in inputs.NUMBERS:
        out["mil.exec_ms.q%d" % number] = (layer("mil.exec", number), "ms")
    out["mil.stmts"] = (median(r.stmts for r in replayed), "count")
    for number in inputs.NUMBERS:
        out["mil.stmts.q%d" % number] = (
            median(r.stmts for r in replayed
                   if r.request.number == number), "count")

    totals = {}
    for r in replayed:
        for key, count in r.dispatch.items():
            if ":" in key and not key.startswith("dce:"):
                slot = key if key in DISPATCH_KEYS else "other"
                totals[slot] = totals.get(slot, 0) + count
    n = max(1, len(replayed))
    out["monet.dispatch"] = (sum(totals.values()) / n, "count")
    for key in DISPATCH_KEYS + ("other",):
        out["monet.dispatch." + key.replace(":", ".")] = (
            totals.get(key, 0) / n, "count")

    out["buffer.faults"] = (median(r.faults for r in replayed), "count")
    out["buffer.accounting_ms"] = (median(r.buffer_ms for r in replayed),
                                   "ms")

    out["server.worker_ms"] = (median(s.elapsed_ms for s in served), "ms")
    for form in ("moa", "sql", "tpcd"):
        mine = _served_values(served, form) or _served_values(probe, form)
        out["server.worker_ms." + form] = (
            median(s.elapsed_ms for s in mine), "ms")
    out["server.dispatch_ms"] = (
        median(s.service_ms - s.elapsed_ms for s in served), "ms")
    plan = stats["plan_cache"]
    counters = stats["counters"]
    out["server.plan_cache_hit_rate"] = (plan["hit_rate"], "ratio")
    out["server.plan_cache_evictions"] = (plan["evictions"], "count")
    out["server.errors"] = (counters.get("errors", 0), "count")
    out["server.overloads"] = (counters.get("overloads", 0), "count")
    out["server.crash_retries"] = (counters.get("crash_retries", 0),
                                   "count")
    out["server.pool_warm_s"] = (median(phases["pool_warm_s"]), "s")
    out["wire.client_ms"] = (median(s.ms - s.service_ms for s in served),
                             "ms")
    out["wire.reply_bytes"] = (median(s.reply_bytes for s in served), "B")

    for name in ("generate_s", "load_s", "save_s", "open_s"):
        out["tpcd." + name] = (median(phases[name]), "s")
    out["trace.coverage"] = (coverage, "ratio")
    out["trace.overhead"] = (overhead, "ratio")
    out["fail_frac"] = (fail_frac, "ratio")
    out.update(_recon_q1(served, replayed))
    return out


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
def _box():
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def _replay_sample(samples, params=None):
    """The distinct requests the in-process replay and the served
    probe cover, in every form each query has."""
    if params is None:
        seen = {}
        for sample in samples:
            keys = seen.setdefault(sample.request.number, [])
            if sample.request.params not in keys \
                    and len(keys) < ADHOC_REPLAY_PER_QUERY:
                keys.append(sample.request.params)
        pairs = [(n, p) for n in sorted(seen) for p in seen[n]]
    else:
        pairs = sorted(params.items())
    out = []
    for form in inputs.FORMS:
        for number, p in pairs:
            if form != "moa" or number in inputs.SINGLE_TEXT:
                out.append(inputs.Request(number, form, p))
    return out


def run_workload(args, work_dir):
    spec = WORKLOADS[args.workload]
    scale = spec["scale"]
    served = spec["served"]
    catalog, pool, setup_totals, phases = inputs.repeated_setup(
        scale, args.seed, work_dir,
        warm_pool=(lambda c: drive.start_pool(c.db_dir)) if served
        else None)
    answers = verify.Answers()
    source = inputs.ParamSource(catalog.dataset)
    params = inputs.draw_once(source, args.seed)
    report = {"workload": args.workload, "seed": args.seed,
              "scale": scale, "seconds": args.seconds,
              "trace": args.trace, "box": _box()}
    report.update({k: spec[k] for k in ("loop", "clients", "mix", "why")})
    oracle = None
    try:
        oracle = verify.Oracle(catalog.dataset)
        if served:
            result = _served(args, catalog, pool, answers, source,
                             params, phases, report)
        else:
            result = _power(args, catalog, answers, params, phases,
                            report)
        # every distinct (query, params) the run answered, once
        answers.verify_pending(oracle)
    finally:
        if pool is not None:
            pool.close()
        if oracle is not None:
            oracle.close()
    window, metrics = result
    if args.trace == 0:
        e2e, details = end_to_end(window, setup_totals)
        metrics = e2e
        report["end_to_end"] = details
    report["distinct_pairs"] = answers.distinct()
    report["oracle_checked"] = oracle.checked
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    return window, metrics, report


def _overhead(plain, traced):
    """Tracing cost: untraced over traced throughput, minus one."""
    return (len(plain.samples) / plain.wall_s) \
        / (len(traced.samples) / traced.wall_s) - 1.0


def _power(args, catalog, answers, params, phases, report):
    db = catalog.db
    requests = inputs.power_pass(params)
    # one untimed warm pass; its answers become the oracle-checked set
    drive.run_power(db, requests, 0, answers)
    # the Moa and SQL forms of the same pairs must agree with them
    for request in inputs.throughput_mix(params):
        if request.form == "moa":
            value = db.query(request.text).rows
        elif request.form == "sql":
            value = execute_sql(db, request.text)
        else:
            continue
        answers.observe(request, verify.checksum_of(value), value)
    if args.trace == 0:
        window = drive.run_power(db, requests, args.seconds, answers)
        report["waterfall"] = waterfall(window.samples)
        print(format_waterfall(report["waterfall"]), file=sys.stderr)
        return window, None
    half = args.seconds / 2.0
    plain = drive.run_power(db, requests, half, answers)
    spans = drive.Spans()
    traced = drive.run_power(db, requests, half, answers, spans)
    per_request = spans.per_request()
    layer_rows = [(s.request, per_request[s.span]) for s in traced.samples]
    mix = inputs.throughput_mix(params)
    replayed = drive.replay(db, mix, answers)
    pool, warm_s = drive.start_pool(catalog.db_dir)
    try:
        probe = drive.run_probe(pool.address, mix, PROBE_ROUNDS, answers)
        stats = pool.service.stats()
    finally:
        pool.close()
    phases = dict(phases, pool_warm_s=[warm_s])
    metrics = per_layer(layer_rows, replayed, probe, probe, stats, phases,
                        spans.coverage(), _overhead(plain, traced), 0.0)
    report["waterfall"] = waterfall(traced.samples, layer_rows)
    report["reconciliation"] = reconcile(probe, replayed)
    print(format_waterfall(report["waterfall"]), file=sys.stderr)
    _write_spans(args, spans, report)
    window = drive.Window(plain.samples + traced.samples, 0,
                          plain.wall_s + traced.wall_s)
    return window, metrics


def _served(args, catalog, pool, answers, source, params, phases,
            report):
    spec = WORKLOADS[args.workload]
    if args.workload == "throughput":
        mix = inputs.throughput_mix(params)
        streams = [inputs.client_stream(mix, args.seed, client)
                   for client in range(spec["clients"])]
    else:
        streams = [inputs.adhoc_stream(source, args.seed, client)
                   for client in range(spec["clients"])]
    if args.trace == 0:
        window = drive.run_served(pool.address, streams, args.seconds,
                                  answers)
        _served_record(pool.service.stats(), window, report)
        report["waterfall"] = waterfall(window.samples)
        return window, None
    half = args.seconds / 2.0
    plain = drive.run_served(pool.address, streams, half, answers)
    spans = drive.Spans()
    traced = drive.run_served(pool.address, streams, half, answers, spans)
    stats = pool.service.stats()
    window = drive.Window(plain.samples + traced.samples,
                          plain.failed + traced.failed,
                          plain.wall_s + traced.wall_s)
    _served_record(stats, window, report)
    sample = _replay_sample(
        window.samples,
        params if args.workload == "throughput" else None)
    replayed = drive.replay(catalog.db, sample, answers)
    probe = drive.run_probe(pool.address, sample, PROBE_ROUNDS, answers)
    layer_rows = [(r.request, r.layers) for r in replayed]
    metrics = per_layer(layer_rows, replayed, window.samples, probe, stats,
                        phases, spans.coverage(), _overhead(plain, traced),
                        window.failed / max(1, window.attempted))
    report["waterfall"] = waterfall(window.samples, layer_rows)
    report["reconciliation"] = reconcile(window.samples, replayed)
    _write_spans(args, spans, report)
    return window, metrics


def _served_record(stats, window, report):
    forms = {}
    for sample in window.samples:
        forms[sample.request.form] = forms.get(sample.request.form, 0) + 1
    report["requests_by_form"] = forms
    report["distinct_texts"] = len({(s.request.form, s.request.key)
                                    for s in window.samples})
    report["plan_cache"] = stats["plan_cache"]
    report["server_counters"] = stats["counters"]


def _out_dir():
    path = os.path.join(os.getcwd(), ".tpcdbench", "out")
    os.makedirs(path, exist_ok=True)
    return path


def _write_spans(args, spans, report):
    path = os.path.join(_out_dir(), "spans-%s-seed%d.jsonl"
                        % (args.workload, args.seed))
    spans.dump(path)
    report["spans_file"] = os.path.relpath(path)


def _summary(report):
    lines = ["%s seed=%d scale=%g trace=%d: %d distinct (query, params) "
             "pairs oracle-checked"
             % (report["workload"], report["seed"], report["scale"],
                report["trace"], report["oracle_checked"])]
    details = report.get("end_to_end", {})
    for name, metric in report["metrics"].items():
        lines.append("  %-44s %14.6g %s"
                     % (name, metric["value"], metric["unit"]))
    if details:
        lines.append("  samples=%d lat_tail percentile=p%g"
                     % (details["samples"], details["lat_tail_percentile"]))
    for row in report.get("reconciliation", []):
        lines.append("  recon Q%-2d %-4s worker %8.2f = compile %6.2f + "
                     "mil %7.2f + buffer %7.2f + mat %5.2f + ship %4.2f "
                     "+ residual %7.2f ms"
                     % (row["query"], row["form"], row["worker_ms"],
                        row["compile_ms"], row["exec_ms"],
                        row["buffer_ms"], row["materialize_ms"],
                        row["ship_ms"], row["residual_ms"]))
    return "\n".join(lines)


def main(argv=None):
    args = _parse_args(argv)
    if drive is None:
        print("tpcdbench: no engine sources in %s" % SRC, file=sys.stderr)
        return 3
    work_dir = inputs.work_root(os.getcwd())
    try:
        window, metrics, report = run_workload(args, work_dir)
    except verify.AnswerMismatch as exc:
        print("tpcdbench: WRONG ANSWER: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    path = os.path.join(_out_dir(), "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True, default=str)
    print(_summary(report), file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": window.attempted,
        "failed": window.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
