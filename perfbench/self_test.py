#!/usr/bin/env python3
"""Self-test of the data-plane benchmark: a short run of every workload.

    python3 perfbench/self_test.py [--seconds 2]

For each workload in BENCHMARK.json it runs run.py untraced and traced and
asserts that the result line has exactly the contract's keys, that every
sample was correct, that every metric BENCHMARK.json names is emitted with
its unit (and nothing else), that every end-to-end metric is non-zero,
that the UDS workloads copy each payload exactly once, and that the span
file links a consumer read to its producer's backend read by
(epoch, sample). Exits non-zero on the first failed check.
"""
import argparse
import csv
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def fail(msg):
    sys.stderr.write("self_test: FAIL: %s\n" % msg)
    sys.exit(1)


def run(workload, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s trace=%d exited %d" % (workload, trace, proc.returncode))
    stamp = [l for l in lines if l.startswith("# stamp ")]
    if not stamp:
        fail("%s trace=%d printed no stamp line" % (workload, trace))
    return json.loads(lines[-1]), json.loads(stamp[-1][len("# stamp "):])


def check_metrics(tag, result, expected):
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (tag, sorted(result)))
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s: correct=%s attempted=%s failed=%s" % (
            tag, result["correct"], result["attempted"], result["failed"]))
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        fail("%s: metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatches %s" % (
                 tag, sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                 sorted(k for k in got if k in want and got[k] != want[k])))


def check_span_links(tag, path):
    """Some consumer read shares (epoch, sample) with a backend read."""
    client, backend = set(), set()
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            key = (row["epoch"], row["sample"])
            if row["kind"] == "client_read":
                client.add(key)
            elif row["kind"] == "backend_read":
                backend.add(key)
    if not client & backend:
        fail("%s: no consumer read shares an id with a backend read in %s" % (tag, path))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    for w in (w["name"] for w in spec["workloads"]):
        result, _ = run(w, args.seconds, 0)
        check_metrics(w + " untraced", result, spec["end_to_end"])
        zero = [k for k, v in result["metrics"].items() if v["value"] == 0]
        if zero:
            fail("%s: end-to-end metrics read 0: %s" % (w, zero))

        result, stamp = run(w, args.seconds, 1)
        check_metrics(w + " traced", result, spec["per_layer"])
        copies = result["metrics"]["ipc.copies_per_sample"]["value"]
        if w.startswith("uds_") and round(copies, 3) != 1.0:
            fail("%s: ipc.copies_per_sample = %.4f, expected 1.000" % (w, copies))
        check_span_links(w, os.path.join(ROOT, stamp["span_file"]))
        print("self_test: %s ok (engine %s, %s server threads)" % (
            w, stamp["engine"], stamp["server_threads"]))
    print("self_test: all workloads ok")


if __name__ == "__main__":
    main()
