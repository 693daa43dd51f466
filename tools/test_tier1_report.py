"""Self-tests of tier1_report.py: python3 -m unittest discover -s tools"""

import os
import tempfile
import unittest

import tier1_report

SUITE = """<?xml version='1.0' encoding='UTF-8'?>
<testsuite hostname="h" name="{name}" tests="{tests}" errors="0" failures="{failures}"
    skipped="0" time="{time}">
  <properties><property name="java.version" value="17.0.9"/>
    <property name="java.vm.name" value="OpenJDK 64-Bit Server VM"/></properties>
</testsuite>
"""


class Tier1ReportTest(unittest.TestCase):
    def write(self, d, **kw):
        path = os.path.join(d, f"TEST-{kw['name']}.xml")
        with open(path, "w") as f:
            f.write(SUITE.format(**kw))
        return path

    def test_totals_order_and_jdk(self):
        with tempfile.TemporaryDirectory() as d:
            paths = [
                self.write(d, name="a.FastSpec", tests=3, failures=0, time="0.25"),
                self.write(d, name="a.SlowSpec", tests=5, failures=1, time="4.5"),
            ]
            out = tier1_report.report(paths, wall_s=10.0)
        self.assertEqual([s["name"] for s in out["suites"]], ["a.SlowSpec", "a.FastSpec"])
        self.assertEqual(out["total"], {"tests": 8, "failures": 1, "errors": 0, "skipped": 0,
                                        "suites": 2, "time_s": 4.75, "wall_s": 10.0})
        self.assertEqual(out["hardware"]["jdk"]["version"], "17.0.9")

    def test_no_reports_exits_2(self):
        with tempfile.TemporaryDirectory() as d:
            self.assertEqual(tier1_report.main(["--reports", d, "--out", os.path.join(d, "o.json")]), 2)


if __name__ == "__main__":
    unittest.main()
