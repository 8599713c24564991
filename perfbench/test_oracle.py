"""The benchmark's oracle must pass genuine trials and catch planted faults.

    python3 perfbench/test_oracle.py        (from the repository root)
"""

from __future__ import annotations

import copy
import sys
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, timed_master  # noqa: E402

sys.path.insert(0, str(run.SRC))


def _mentions(problems, text):
    return any(text in p for p in problems)


class OracleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.pkg = run.import_package()
        cls.greville = cls.record("greville_mp_qi_n8", timed_master(0, 0))
        # The first T38 trials that reach a verdict and that lack an inverse.
        cls.t38_verdict = cls.t38_no_inverse = None
        trial = 0
        while cls.t38_verdict is None or cls.t38_no_inverse is None:
            rec = cls.record("t38_weight_f7_n6", timed_master(0, trial))
            if rec.suite["equivalent"] and cls.t38_verdict is None:
                cls.t38_verdict = rec
            if rec.a_dag is None and cls.t38_no_inverse is None:
                cls.t38_no_inverse = rec
            trial += 1

    @classmethod
    def record(cls, name, master):
        w = WORKLOADS[name]
        return run.observe(cls.pkg, w, master, run.run_trial(cls.pkg, w, master))

    def check(self, name, rec):
        return oracle.check_trial(WORKLOADS[name], rec)

    def test_genuine_trials_pass(self):
        self.assertEqual(self.check("greville_mp_qi_n8", self.greville), [])
        self.assertEqual(self.check("t38_weight_f7_n6", self.t38_verdict), [])
        self.assertEqual(self.check("t38_weight_f7_n6", self.t38_no_inverse), [])

    def test_perturbed_mp_inverse(self):
        rec = copy.deepcopy(self.greville)
        re, im = rec.a_dag[0][0]
        rec.a_dag[0][0] = (re + Fraction(1, 3), im)
        self.assertTrue(_mentions(self.check("greville_mp_qi_n8", rec), "a+ fails Penrose"))

    def test_weight_that_does_not_commute(self):
        rec = copy.deepcopy(self.t38_verdict)
        rec.c[0][1] = (rec.c[0][1] + 1) % 7
        self.assertTrue(_mentions(self.check("t38_weight_f7_n6", rec), "does not commute"))

    def test_skip_recorded_on_invertible_pair(self):
        rec = copy.deepcopy(self.greville)
        rec.suite["hypothesis_skips"], rec.suite["equivalent"] = 1, 0
        self.assertTrue(_mentions(self.check("greville_mp_qi_n8", rec), "the oracle expects"))
        rec = copy.deepcopy(self.t38_verdict)
        rec.a_dag = rec.b_dag = None
        self.assertTrue(_mentions(self.check("t38_weight_f7_n6", rec),
                                  "NoMPInverse reported"))

    def test_missing_skip_on_pair_without_inverse(self):
        rec = copy.deepcopy(self.t38_no_inverse)
        rec.suite["hypothesis_skips"], rec.suite["equivalent"] = 0, 1
        self.assertTrue(_mentions(self.check("t38_weight_f7_n6", rec), "the oracle expects"))

    def test_flipped_statement_value(self):
        for name, base in (("greville_mp_qi_n8", self.greville),
                           ("t38_weight_f7_n6", self.t38_verdict)):
            rec = copy.deepcopy(base)
            rec.statement = not rec.statement
            self.assertTrue(_mentions(self.check(name, rec), "value"), name)

    def test_prime_field_existence(self):
        f7 = oracle.PrimeField(7)
        # x x* = [[1 + 4 + 9]] = 0 over F_7, so x has rank 1 but no inverse.
        x = [[1, 2, 3], [0, 0, 0], [0, 0, 0]]
        self.assertEqual(f7.rank(x), 1)
        self.assertFalse(oracle.mp_exists(f7, x))
        self.assertTrue(oracle.mp_exists(f7, oracle.identity(f7, 3)))

    def test_gaussian_rank_and_parse(self):
        q = oracle.GaussianField()
        self.assertEqual(q.parse("-1/2+3/4i"), (Fraction(-1, 2), Fraction(3, 4)))
        self.assertEqual(q.parse("-5i"), (Fraction(0), Fraction(-5)))
        self.assertEqual(q.parse("1-1i"), (Fraction(1), Fraction(-1)))
        one_i = q.parse("1i")
        # rows (1, i) and (i, -1) are dependent: i * (1, i) = (i, -1)
        x = [[q.one, one_i], [one_i, q.parse("-1")]]
        self.assertEqual(q.rank(x), 1)
        self.assertEqual(q.rank(oracle.identity(q, 4)), 4)


if __name__ == "__main__":
    unittest.main()
