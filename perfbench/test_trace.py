#!/usr/bin/env python3
"""Self-test of the benchmark's outputs.

For each workload, runs the benchmark command from BENCHMARK.json once
untraced and once traced (short runs), then checks that

* the last stdout line is the result object with exactly the keys
  correct/attempted/failed/metrics, and the run was correct;
* every metric BENCHMARK.json names for that mode is emitted, finite,
  and carries the unit BENCHMARK.json gives it;
* the traced run's Chrome trace-event file parses, and every span lies
  within the `step` span of its (rank, step).

Run from the repository root:

    python3 perfbench/test_trace.py [workload ...]
"""

import json
import math
import os
import subprocess
import sys
import tempfile

# Spans are written with microsecond timestamps rounded to 1 ns.
SLACK_US = 0.01


def run(command, workload, trace, trace_out):
    args = command + ["--workload", workload, "--seed", "7", "--seconds", "2",
                      "--trace", str(trace), "--trace-out", trace_out]
    out = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_result(result, metrics, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, label
    assert result["failed"] == 0, label
    got = result["metrics"]
    assert set(got) == {m["name"] for m in metrics}, f"{label}: metric names differ"
    for m in metrics:
        v = got[m["name"]]
        assert isinstance(v["value"], (int, float)) and math.isfinite(v["value"]), (label, m)
        assert v["unit"] == m["unit"] and v["unit"], (label, m, v)


def check_spans(path, label):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = [e for e in events if e.get("ph") == "X"]
    assert spans, f"{label}: no spans"
    steps = {}
    for e in spans:
        a = e["args"]
        for key in ("workload", "rank", "step", "layer", "phase"):
            assert key in a, (label, key, e)
        if a["phase"] == "step":
            key = (a["rank"], a["step"])
            assert key not in steps, f"{label}: two step spans for {key}"
            steps[key] = (e["ts"], e["ts"] + e["dur"])
    for e in spans:
        a = e["args"]
        if a["phase"] == "step":
            continue
        key = (a["rank"], a["step"])
        assert key in steps, f"{label}: span {e['name']} has no step span {key}"
        lo, hi = steps[key]
        assert e["ts"] >= lo - SLACK_US and e["ts"] + e["dur"] <= hi + SLACK_US, (
            f"{label}: span {e['name']} [{e['ts']}, {e['ts'] + e['dur']}] "
            f"outside step {key} [{lo}, {hi}]")
    return len(spans)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    wanted = sys.argv[1:] or names
    for w in wanted:
        assert w in names, f"unknown workload {w}"
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for w in wanted:
            out = os.path.join(tmp, f"{w}.trace.json")
            check_result(run(bench["command"], w, 0, out), bench["end_to_end"], f"{w} untraced")
            check_result(run(bench["command"], w, 1, out), bench["per_layer"], f"{w} traced")
            n = check_spans(out, w)
            print(f"ok  {w}: all metrics emitted with units, {n} spans within their steps")


if __name__ == "__main__":
    main()
