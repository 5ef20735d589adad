#!/usr/bin/env python3
"""Same-host A/B perf gate: a base checkout against this checkout.

Run from anywhere:

    python3 tools/perf_ab.py BASE_CHECKOUT
    python3 tools/perf_ab.py --self-test

It runs the benchmark command of BENCHMARK.json (perfbench/run.py) in
BASE_CHECKOUT and in the checkout that holds this script, interleaved:
PAIRS pairs, each running every BENCHMARK.json workload once on each
side with the same seed and SECONDS of run time. The side that runs
first alternates from pair to pair, so drift of the host over the job
falls on both sides alike. Each checkout builds its own tools into its
own .bench_build/ on its first run.

The verdicts, per workload, read from the JSON line each run ends with:

  * any result with "correct": false fails;
  * the candidate failing more operations than the base fails;
  * an end-to-end metric fails when the candidate's median over the
    pairs is worse than the base's median by more than both the
    metric's bound (relative, with its direction, from BENCHMARK.json)
    and the base's own spread (interquartile range over median).

Exit 0 when every check passes, 1 when one fails or a run gives no
result, 2 on a usage error. --self-test checks the verdicts on
synthetic result lines and runs nothing.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Pairs of runs per workload. Even, so each side runs first equally
#: often; one pair of the four workloads takes about 2 minutes.
PAIRS = 6
#: perfbench/run.py --seconds: repetitions continue while the next one
#: still ends within this (at least 3).
SECONDS = 10


def fail(message, code=1):
    print(f"perf_ab: {message}", file=sys.stderr)
    sys.exit(code)


def load_spec(root):
    return json.loads((root / "BENCHMARK.json").read_text())


def parse_result(stdout):
    """The JSON result on the last line of a run's standard output,
    or None."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return result if isinstance(result, dict) and "metrics" in result \
        else None


def spread(values):
    """Interquartile range over median. perfbench reports no
    end-to-end metric as 0."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median


def worsening(base, cand, better):
    """How much worse @p cand is than @p base, relative to the base:
    positive is worse, whichever direction is better."""
    return (cand - base if better == "lower" else base - cand) / base


def verdicts(spec, base_runs, cand_runs):
    """Compare the runs of each workload ({workload: [result, ...]});
    returns the table rows and the list of failures (kind, text)."""
    rows, failures = [], []
    for workload in (w["name"] for w in spec["workloads"]):
        base, cand = base_runs[workload], cand_runs[workload]
        for side, runs in (("base", base), ("candidate", cand)):
            wrong = sum(1 for r in runs if not r["correct"])
            if wrong:
                failures.append(("correct", f"{workload}: {wrong} {side} "
                                 "run(s) reported correct: false"))
        base_failed = sum(r["failed"] for r in base)
        cand_failed = sum(r["failed"] for r in cand)
        if cand_failed > base_failed:
            failures.append(("failed", f"{workload}: candidate failed "
                             f"{cand_failed} operation(s), base "
                             f"{base_failed}"))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base]
            c = [r["metrics"][name]["value"] for r in cand]
            b_med, c_med = statistics.median(b), statistics.median(c)
            worse = worsening(b_med, c_med, metric["better"])
            noise = spread(b)
            ok = worse <= metric["bound"] or worse <= noise
            rows.append((workload, name, b_med, c_med, worse,
                         metric["bound"], noise, ok))
            if not ok:
                failures.append(("metric", f"{workload} {name}: median "
                                 f"{b_med:.6g} -> {c_med:.6g}, "
                                 f"{worse:+.1%} worse, past bound "
                                 f"{metric['bound']:.1%} and base "
                                 f"spread {noise:.1%}"))
    return rows, failures


def report(rows, failures):
    print(f"{'workload':<13} {'metric':<21} {'base':>11} {'candidate':>11}"
          f" {'worse':>8} {'bound':>7} {'spread':>7}  verdict")
    for workload, name, b, c, worse, bound, noise, ok in rows:
        print(f"{workload:<13} {name:<21} {b:>11.5g} {c:>11.5g} "
              f"{worse:>+8.1%} {bound:>7.1%} {noise:>7.1%}  "
              f"{'ok' if ok else 'FAIL'}")
    for _, text in failures:
        print(f"FAIL {text}")
    print("perf A/B: " + ("passed" if not failures else
                          f"{len(failures)} check(s) failed"))


def run_side(spec, checkout, workload, seed):
    command = spec["command"] + ["--workload", workload, "--seed",
                                 str(seed), "--seconds", str(SECONDS),
                                 "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    result = parse_result(proc.stdout) if proc.returncode == 0 else None
    if result is None:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        fail(f"{checkout}: {' '.join(command)} exited {proc.returncode} "
             "without a result line")
    return result


def gate(base_checkout):
    spec = load_spec(ROOT)
    sides = {"base": base_checkout, "candidate": ROOT}
    runs = {side: {w["name"]: [] for w in spec["workloads"]}
            for side in sides}
    start = time.perf_counter()
    for pair in range(PAIRS):
        order = ["base", "candidate"] if pair % 2 == 0 else \
            ["candidate", "base"]
        for workload in runs["base"]:
            for side in order:
                result = run_side(spec, sides[side], workload, pair + 1)
                runs[side][workload].append(result)
                metrics = result["metrics"]
                print(f"pair {pair + 1}/{PAIRS} {workload} {side}: "
                      f"correct {result['correct']}, failed "
                      f"{result['failed']}/{result['attempted']}, "
                      + ", ".join(f"{name} {m['value']:.5g}"
                                  for name, m in metrics.items()),
                      flush=True)
    print(f"{PAIRS} pairs of {len(runs['base'])} workloads in "
          f"{time.perf_counter() - start:.0f} s")
    rows, failures = verdicts(spec, runs["base"], runs["candidate"])
    report(rows, failures)
    return 1 if failures else 0


# ------------------------------------------------------------ self-test

def synthetic(spec, scale=1.0, correct=True, failed=0):
    """One result line as perfbench/run.py prints it: every end-to-end
    metric at a plausible value, times multiplied by @p scale."""
    values = {"setup_s": 0.2, "campaign_s": 4.0, "predict_per_s": 50000.0,
              "peak_rss_mb": 300.0, "r_accuracy_min_pct": 100.0,
              "est_err_coverage_pct": 100.0, "mosmodel_err_max_pct": 3.0}
    metrics = {}
    for metric in spec["end_to_end"]:
        value = values[metric["name"]]
        if metric["unit"] == "s":
            value *= scale
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return json.dumps({"correct": correct, "attempted": 100,
                       "failed": failed, "metrics": metrics})


def self_test():
    spec = load_spec(ROOT)
    workloads = [w["name"] for w in spec["workloads"]]

    def runs(scales=None, changed=None):
        """Synthetic results of every workload: pair i with its times
        scaled by scales[i] (default: a few percent of jitter), and
        synthetic(**changed[i]) in place of pair i where given."""
        scales = scales or [1.0 + 0.01 * (i % 5 - 2) for i in range(PAIRS)]
        lines = [synthetic(spec, scale=scale) for scale in scales]
        for pair, kwargs in (changed or {}).items():
            lines[pair] = synthetic(spec, **kwargs)
        return {w: [parse_result("progress\n" + line) for line in lines]
                for w in workloads}

    def scaled(runs_, name, factor):
        for results in runs_.values():
            for r in results:
                r["metrics"][name]["value"] *= factor
        return runs_

    alternating = [1.0 if i % 2 == 0 else 2.0 for i in range(PAIRS)]
    cases = [
        ("a healthy pair passes", runs(), runs(), set()),
        ("campaign_s 1.5x slower fails", runs(),
         scaled(runs(), "campaign_s", 1.5), {"metric"}),
        ("predict_per_s halved fails", runs(),
         scaled(runs(), "predict_per_s", 0.5), {"metric"}),
        ("a correct: false result fails", runs(),
         runs(changed={1: {"correct": False, "failed": 1}}),
         {"correct", "failed"}),
        ("extra failed operations fail", runs(),
         runs(changed={PAIRS - 1: {"failed": 3}}), {"failed"}),
        ("a base whose own spread exceeds the change passes",
         runs(scales=alternating), runs(scales=[2.0] * PAIRS), set()),
    ]
    ok = True
    for name, base, cand, expected in cases:
        _, failures = verdicts(spec, base, cand)
        kinds = {kind for kind, _ in failures}
        good = kinds == expected
        ok = ok and good
        print(f"{'ok  ' if good else 'FAIL'} {name}: failing checks "
              f"{sorted(kinds) or 'none'}")
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    if argv == ["--self-test"]:
        return self_test()
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: perf_ab.py BASE_CHECKOUT | --self-test",
              file=sys.stderr)
        return 2
    base = Path(argv[0]).resolve()
    if not (base / "perfbench" / "run.py").is_file():
        fail(f"{base} is not a checkout with perfbench/run.py", 2)
    if base == ROOT:
        fail("the base checkout is this checkout", 2)
    return gate(base)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
