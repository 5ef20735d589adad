"""Arithmetic of the Mosaic benchmark, kept apart from the process
plumbing in run.py so test_benchlib.py can check it on small inputs.

Everything here is a pure function of its arguments.
"""

import csv
import io
import math
import statistics

#: Percentiles tried, highest first, by tail_percentile().
PERCENTILE_LADDER = (99.9, 99.0, 90.0, 50.0)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def _rank(p, n):
    """1-based nearest rank of percentile @p p among @p n samples (the
    rounding keeps 99.9% of 10000 at 9990, not 9991)."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(values, p):
    """Nearest-rank percentile: the smallest value with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(values):
    """The highest percentile of PERCENTILE_LADDER with at least
    MIN_BEYOND samples beyond it, as (p, value); None when there are
    too few samples for any of them."""
    n = len(values)
    for p in PERCENTILE_LADDER:
        beyond = n - _rank(p, n)
        if beyond >= MIN_BEYOND:
            return p, percentile(values, p)
    return None


def relative_spread(values):
    """Interquartile range over the median, the way the benchmark's
    steadiness is judged."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else math.inf


def parse_csv(text):
    """Dataset CSV text -> (header, {(platform, workload, layout): row
    line}, {key: dict row}). Any embedded shard trailer ('#' lines) is
    ignored."""
    lines = [line for line in text.splitlines()
             if line and not line.startswith("#")]
    if not lines:
        return [], {}, {}
    header = lines[0].split(",")
    raw = {}
    rows = {}
    for line, row in zip(lines[1:], csv.DictReader(io.StringIO(
            "\n".join(lines)))):
        key = (row["platform"], row["workload"], row["layout"])
        raw[key] = line
        rows[key] = row
    return header, raw, rows


def r_error(row, ref_row):
    """|R - R_ref| / R_ref of one row against its reference row."""
    ref = float(ref_row["runtime"])
    return abs(float(row["runtime"]) - ref) / ref


def covered(row, ref_row):
    """Whether the row's reported bound covers its true R error. Rows
    without an est_err column are full replays and claim an exact
    answer (bound 0)."""
    bound = float(row.get("est_err") or 0.0)
    return r_error(row, ref_row) <= bound


def match_rows(out_raw, out_rows, ref_raw, ref_rows, exact):
    """Check a campaign's rows against reference rows for the same
    (platform, workload, layout) keys.

    Returns a dict with:
      attempted  -- reference rows expected
      failed     -- missing, unexpected or (when @p exact) differing
                    rows, plus rows whose est_err is not finite
      accuracy   -- lowest 100 * (1 - R error) over matched rows
      coverage   -- % of matched rows whose est_err covers the error
      mismatches -- a few failing keys, for the report
    """
    failed = []
    errors = []
    hits = 0
    for key in ref_raw:
        if key not in out_raw:
            failed.append(("missing", key))
            continue
        row = out_rows[key]
        if exact and out_raw[key] != ref_raw[key]:
            failed.append(("differs", key))
        bound = float(row.get("est_err") or 0.0)
        if not math.isfinite(bound):
            failed.append(("est_err", key))
            continue
        errors.append(r_error(row, ref_rows[key]))
        hits += covered(row, ref_rows[key])
    for key in out_raw:
        if key not in ref_raw:
            failed.append(("unexpected", key))
    accuracy = 100.0 * (1.0 - max(errors)) if errors else 0.0
    coverage = 100.0 * hits / len(errors) if errors else 0.0
    return {
        "attempted": len(ref_raw) + sum(k not in ref_raw for k in out_raw),
        "failed": len(failed),
        "accuracy": accuracy,
        "coverage": coverage,
        "mismatches": failed[:5],
    }


def swap_bounded(rows):
    """Keys of paged rows whose swap cycles exceed their runtime."""
    return [key for key, row in rows.items()
            if float(row["s"]) > float(row["runtime"])]


def prediction_errors(answers, measured):
    """Parse daemon answer lines and compare them with the measured R
    of the queried rows. Returns (bad answer count, worst relative
    error in %)."""
    bad = 0
    worst = 0.0
    for line, r in zip(answers, measured):
        value = parse_answer(line)
        if value is None:
            bad += 1
            continue
        worst = max(worst, abs(value - r) / r)
    bad += abs(len(answers) - len(measured))
    return bad, 100.0 * worst


def parse_answer(line):
    """The predicted cycles of an 'ok predicted_cycles=X ...' answer, or
    None for an error or a non-finite value."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", "replace")
    fields = line.split()
    if not fields or fields[0] != "ok":
        return None
    for field in fields[1:]:
        if field.startswith("predicted_cycles="):
            try:
                value = float(field.split("=", 1)[1])
            except ValueError:
                return None
            return value if math.isfinite(value) else None
    return None


def read_spans(text):
    """Span TSV (id, parent, unit, name, start_ns, end_ns, work) -> list
    of dicts with integer fields."""
    spans = []
    lines = text.splitlines()
    for line in lines[1:]:
        if not line:
            continue
        sid, parent, unit, name, start, end, work = line.split("\t")
        spans.append({"id": int(sid), "parent": int(parent),
                      "unit": int(unit), "name": name,
                      "start": int(start), "end": int(end),
                      "work": int(work)})
    return spans


def covered_length(intervals, start, end):
    """Length of [start, end) covered by the union of @p intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover
    (children may run in parallel on worker threads), in ns, keyed by
    span id."""
    children = {}
    for span in spans:
        children.setdefault(span["parent"], []).append(
            (span["start"], span["end"]))
    return {span["id"]: span["end"] - span["start"] - covered_length(
        children.get(span["id"], []), span["start"], span["end"])
        for span in spans}


def layer_self_seconds(spans):
    """Self time summed per span name, in seconds."""
    own = self_times(spans)
    totals = {}
    for span in spans:
        totals[span["name"]] = totals.get(span["name"], 0) + own[span["id"]]
    return {name: ns / 1e9 for name, ns in totals.items()}


def ns_per_work(spans, name):
    """Summed duration over summed work of the spans called @p name."""
    chosen = [s for s in spans if s["name"] == name]
    work = sum(s["work"] for s in chosen)
    if not work:
        return 0.0
    return sum(s["end"] - s["start"] for s in chosen) / work
