"""Self-test of the benchmark's oracles.

    python3 perfbench/selftest.py

Small genuine cp2q reports (fresh processes, sources from src/) must pass
their oracle, and each deliberately corrupted copy must count as a
failure.  Runs in about ten seconds.
"""

from __future__ import annotations

import copy
import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
import run  # noqa: E402

SMALL = {
    "spectrum": ["spectrum", "--q", "0.37", "--nmax", "3"],
    "cohomology": ["cohomology", "--q", "0.61", "--nmax", "2"],
    "summability": ["summability", "--q", "0.45", "--nmax", "4"],
    "verify-complex": ["verify-complex", "--q", "0.5", "--nmax", "1"],
    "verify-hopf": ["verify-hopf", "--q", "0.8", "--total-degree", "2"],
    "verify-casimir": ["verify-casimir", "--q", "0.8", "--total-degree", "2"],
    "verify-gt": ["verify-gt", "--q", "0.8", "--total-degree", "2"],
    "verify-coproduct": ["verify-coproduct", "--q", "0.7"],
    "classical-check": ["classical-check", "--samples", "5", "--seed", "4"],
    "evaluate": ["evaluate", "q^1 E1 F1 - q^1 F1 E1 - q^-1 E1 F1 + q^-1 F1 E1 "
                 "- K1 K1 + K1' K1' + K2 K2'", "--q", "0.4", "--n1", "1", "--n2", "2"],
    "verify-cp2-relations": ["verify-cp2-relations", "--max-deg", "3", "--samples", "5"],
    "rewrite": ["rewrite", "p13 p31 p22 + p32 p11 p23"],
}

_REPORTS: dict = {}


def report(cmd: str) -> dict:
    if cmd not in _REPORTS:
        r = run.spawn(["-m", "cp2q.cli", *SMALL[cmd]], run.child_env())
        if r["exit"] != 0:
            raise RuntimeError(f"{SMALL[cmd]} exited {r['exit']}: {r['stderr']}")
        _REPORTS[cmd] = json.loads(r["stdout"])
    return copy.deepcopy(_REPORTS[cmd])


def verdict(cmd: str, rep: dict, code: int = 0) -> list[str]:
    return oracles.judge(SMALL[cmd], code, json.dumps(rep))


class GenuineReportsPass(unittest.TestCase):
    def test_every_command(self):
        for cmd in SMALL:
            with self.subTest(cmd=cmd):
                self.assertEqual(verdict(cmd, report(cmd)), [])


class CorruptedReportsFail(unittest.TestCase):
    def assertRejected(self, cmd, rep, code=0):
        self.assertNotEqual(verdict(cmd, rep, code), [], f"{cmd} corruption accepted")

    def test_exit_code_and_verdict(self):
        self.assertRejected("spectrum", report("spectrum"), code=1)
        rep = report("verify-gt")
        rep["passed"] = False
        self.assertRejected("verify-gt", rep)
        rep = report("verify-gt")
        del rep["passed"]
        self.assertRejected("verify-gt", rep)
        self.assertNotEqual(oracles.judge(SMALL["rewrite"], 0, "Traceback ..."), [])

    def test_spectrum(self):
        rep = report("spectrum")
        rep["rows"][3]["eigenvalue"] *= 1 + 1e-7
        self.assertRejected("spectrum", rep)
        rep = report("spectrum")
        rep["rows"][4]["multiplicity"] += 1
        self.assertRejected("spectrum", rep)
        rep = report("spectrum")
        rep["rows"].pop()
        self.assertRejected("spectrum", rep)

    def test_cohomology(self):
        rep = report("cohomology")
        rep["harmonic_dimensions"] = [1, 1, 0]
        self.assertRejected("cohomology", rep)

    def test_summability_vacuous_and_growing(self):
        rep = report("summability")
        for sh in rep["shells"]:
            sh["factor_ratios"] = []
        self.assertRejected("summability", rep)
        rep = report("summability")
        rep["shells"][0]["factor_ratios"][-1] = 1.2
        self.assertRejected("summability", rep)

    def test_vacuous_batteries(self):
        rep = report("verify-hopf")
        rep["labels"] = 0
        self.assertRejected("verify-hopf", rep)
        for cmd in ("verify-casimir", "verify-gt"):
            rep = report(cmd)
            rep["rows"] = []
            self.assertRejected(cmd, rep)
        rep = report("verify-coproduct")
        rep["residuals"] = {}
        self.assertRejected("verify-coproduct", rep)
        rep = report("classical-check")
        rep["rows"] = []
        self.assertRejected("classical-check", rep)
        rep = report("verify-complex")
        rep["equivariance"]["residuals"] = {}
        self.assertRejected("verify-complex", rep)

    def test_evaluate(self):
        rep = report("evaluate")
        rep["matrix"] = [[0.0] * len(rep["matrix"]) for _ in rep["matrix"]]
        self.assertRejected("evaluate", rep)

    def test_cp2_relations(self):
        rep = report("verify-cp2-relations")
        rep["branching_words"] += 1
        self.assertRejected("verify-cp2-relations", rep)

    def test_rewrite(self):
        rep = report("rewrite")
        rep["normal_form"] = rep["normal_form"].replace("z1 z2", "z2 z1", 1)
        self.assertRejected("rewrite", rep)
        rep = report("rewrite")
        rep["normal_form"] = rep["normal_form"].replace("1*q^2", "3*q^2", 1)
        self.assertRejected("rewrite", rep)


class Enumerations(unittest.TestCase):
    def test_branching_words_small_degrees(self):
        # degree 3: words x y z with both pairs redexes
        lhs = oracles.rule_left_sides()
        self.assertEqual(len(lhs), 16)
        want = sum(1 for a in range(6) for b in range(6) for c in range(6)
                   if (a, b) in lhs and (b, c) in lhs)
        self.assertEqual(oracles.branching_words(3), want)

    def test_q_numbers(self):
        self.assertAlmostEqual(oracles.qint(2, 0.5), 0.5 + 2.0, places=14)
        self.assertAlmostEqual(oracles.qint(3, 0.5), 0.25 + 1.0 + 4.0, places=13)


if __name__ == "__main__":
    unittest.main()
