#!/usr/bin/env python3
"""Builds and runs the repository benchmark, then checks its output.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload campaign|blocks|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The Go program in this directory is built into .bench_build/ with the
Go build cache kept there too, so a run reads and writes only inside
the checkout. Its last output line is parsed back and checked against
BENCHMARK.json: every metric of the run's set (end_to_end with
--trace 0, per_layer with --trace 1) must appear exactly once, with
its unit and a finite value, and nothing else may. Only a result that
passes is printed; anything else exits non-zero.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "bin", "perfbench")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        fail("no go.mod at %s: not a zenport checkout" % ROOT)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
    )
    try:
        subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                       check=True, timeout=840)
    except (OSError, subprocess.SubprocessError) as e:
        fail("building the benchmark failed: %s" % e)


def _no_duplicates(pairs):
    seen = {}
    for k, v in pairs:
        if k in seen:
            raise ValueError("key %r appears twice" % k)
        seen[k] = v
    return seen


def _no_constants(name):
    raise ValueError("non-finite number %s" % name)


def check_output(line, spec):
    """Returns None if line is a well-formed result for spec, a list of
    {name: unit} expected metrics, else the reason it is not."""
    try:
        res = json.loads(line, object_pairs_hook=_no_duplicates,
                         parse_constant=_no_constants)
    except ValueError as e:
        return "the last line is not a result object: %s" % e
    if not isinstance(res, dict) or set(res) != RESULT_KEYS:
        return "the result must have exactly the keys %s" % sorted(RESULT_KEYS)
    if not isinstance(res["correct"], bool):
        return "correct is not a boolean"
    for k in ("attempted", "failed"):
        if not isinstance(res[k], int) or isinstance(res[k], bool) or res[k] < 0:
            return "%s is not a whole number" % k
    if res["attempted"] < 1:
        return "attempted is below 1"
    metrics = res["metrics"]
    if not isinstance(metrics, dict):
        return "metrics is not an object"
    missing = sorted(set(spec) - set(metrics))
    extra = sorted(set(metrics) - set(spec))
    if missing or extra:
        return "metrics missing %s, unexpected %s" % (missing, extra)
    for name, unit in spec.items():
        m = metrics[name]
        if not isinstance(m, dict) or set(m) != {"value", "unit"}:
            return "metric %s must be {value, unit}" % name
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            return "metric %s has no finite value" % name
        if m["unit"] != unit:
            return "metric %s has unit %r, want %r" % (name, m["unit"], unit)
    return None


def load_spec(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f, object_pairs_hook=_no_duplicates)
    group = bench["per_layer"] if trace else bench["end_to_end"]
    spec = {}
    for m in group:
        if m["name"] in spec:
            fail("BENCHMARK.json lists %s twice" % m["name"])
        spec[m["name"]] = m["unit"]
    return bench, spec


def self_test():
    spec = {"a_s": "s", "b": "count"}
    good = {"correct": True, "attempted": 3, "failed": 0,
            "metrics": {"a_s": {"value": 1.5, "unit": "s"}, "b": {"value": 0, "unit": "count"}}}
    cases = [(json.dumps(good), True)]
    bad = [
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
        '{"a_s": {"value": 1, "unit": "s"}, "a_s": {"value": 1, "unit": "s"}, "b": {"value": 0, "unit": "count"}}}',
        '{"correct": true, "attempted": 3, "failed": 0, "metrics": '
        '{"a_s": {"value": NaN, "unit": "s"}, "b": {"value": 0, "unit": "count"}}}',
        "not json",
    ]
    cases += [(b, False) for b in bad]
    for mutate in (
        lambda r: r["metrics"].pop("b"),
        lambda r: r["metrics"].update(c={"value": 1, "unit": "s"}),
        lambda r: r["metrics"]["a_s"].update(unit="ms"),
        lambda r: r["metrics"]["a_s"].update(value="1.5"),
        lambda r: r.update(attempted=0),
        lambda r: r.update(failed=1.5),
        lambda r: r.update(extra=1),
        lambda r: r.pop("correct"),
    ):
        r = json.loads(json.dumps(good))
        mutate(r)
        cases.append((json.dumps(r), False))
    for line, ok in cases:
        err = check_output(line, spec)
        if (err is None) != ok:
            fail("self-test: %r: want %s, got %s" % (line, "accepted" if ok else "rejected", err))
    # The metric sets the program prints must be BENCHMARK.json's.
    for trace in (0, 1):
        _, spec = load_spec(trace)
        if not spec:
            fail("self-test: BENCHMARK.json has no metrics for trace %d" % trace)
    print("run.py: self-test passed (%d cases)" % len(cases))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=2600)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        self_test()
        return
    bench, spec = load_spec(args.trace)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of %s" % names)
    build()
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace), "-root", ROOT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=175)
    except subprocess.TimeoutExpired:
        fail("the benchmark did not finish within 175 s")
    if proc.returncode != 0:
        fail("the benchmark exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("the benchmark printed no result")
    err = check_output(lines[-1], spec)
    if err:
        fail("malformed output: " + err)
    print(lines[-1])


if __name__ == "__main__":
    main()
