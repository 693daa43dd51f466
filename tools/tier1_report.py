#!/usr/bin/env python3
"""Summarise a Tier-1 test run into BENCH_tests.json.

Reads the JUnit XML reports sbt writes (target/test-reports/TEST-*.xml) and
writes one JSON object with, per suite, its time, tests, failures, errors
and skips, sorted slowest first; the totals; and the host's nproc and the
JDK that ran the tests (from the reports' java.* properties). Standard
library only.

    python3 tools/tier1_report.py [--reports target/test-reports]
        [--out BENCH_tests.json] [--wall-s SECONDS]

`--wall-s` records the wall time of the whole run, measured by the caller;
the reports only hold per-suite times. Exits 2 when there is no report.
"""

import argparse
import glob
import json
import os
import sys
import xml.etree.ElementTree as ET

COUNTS = ("tests", "failures", "errors", "skipped")


def read_suite(path):
    root = ET.parse(path).getroot()
    props = {p.get("name"): p.get("value") for p in root.iter("property")}
    suite = {"name": root.get("name"), "time_s": float(root.get("time", 0))}
    for k in COUNTS:
        suite[k] = int(root.get(k, 0))
    return suite, props


def report(paths, wall_s=None):
    suites, jdk = [], None
    for path in sorted(paths):
        suite, props = read_suite(path)
        suites.append(suite)
        if jdk is None and "java.version" in props:
            jdk = {"version": props["java.version"],
                   "vm": props.get("java.vm.name"),
                   "vendor": props.get("java.vendor")}
    suites.sort(key=lambda s: (-s["time_s"], s["name"]))
    total = {k: sum(s[k] for s in suites) for k in COUNTS}
    total["suites"] = len(suites)
    total["time_s"] = round(sum(s["time_s"] for s in suites), 3)
    if wall_s is not None:
        total["wall_s"] = wall_s
    return {
        "hardware": {"nproc": len(os.sched_getaffinity(0)), "jdk": jdk},
        "total": total,
        "suites": suites,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--reports", default=os.path.join("target", "test-reports"))
    ap.add_argument("--out", default="BENCH_tests.json")
    ap.add_argument("--wall-s", type=float, default=None)
    args = ap.parse_args(argv)
    paths = glob.glob(os.path.join(args.reports, "TEST-*.xml"))
    if not paths:
        print(f"no TEST-*.xml under {args.reports}", file=sys.stderr)
        return 2
    out = report(paths, args.wall_s)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=2)
        f.write("\n")
    t = out["total"]
    print(f"{t['suites']} suites, {t['tests']} tests, {t['failures']} failures, "
          f"{t['errors']} errors, {t['time_s']} s in suites -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
