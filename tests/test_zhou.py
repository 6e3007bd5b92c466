import math
from fractions import Fraction

import pytest

from mirrorint.landau import classify
from mirrorint.zhou import (
    ZhouInstance,
    batch,
    enumerate_decompositions,
    verify_zhou,
)


class TestInstance:
    def test_invariants(self):
        inst = ZhouInstance((2, 3, 6))
        assert inst.k == 6
        assert inst.ws == (3, 2, 1)
        spec = inst.spec
        assert spec.balanced
        assert spec.max_entry == inst.k
        assert all(inst.k % w == 0 for w in inst.ws)

    def test_rejects_non_unit_sum(self):
        with pytest.raises(ValueError):
            ZhouInstance((2, 3, 7))

    @pytest.mark.parametrize("ks", [(2.5, 2), (2.0, 2), (Fraction(2), 2)])
    def test_rejects_non_integer_entries(self, ks):
        # int() would truncate (2.5, 2) to the valid instance (2, 2).
        with pytest.raises(TypeError):
            ZhouInstance(ks)

    def test_degenerate_instance_flagged_not_rejected(self):
        inst = ZhouInstance((1,))
        assert not inst.spec.disjoint  # e = f = (1)


class TestEnumeration:
    def test_single_part(self):
        assert [i.ks for i in enumerate_decompositions(1)] == [(1,)]

    def test_three_parts(self):
        got = {i.ks for i in enumerate_decompositions(3)}
        assert got == {(3, 3, 3), (2, 4, 4), (2, 3, 6)}

    def test_four_parts_contains_worked_example(self):
        got = {i.ks for i in enumerate_decompositions(4)}
        assert (3, 4, 4, 6) in got

    def test_all_instances_satisfy_hypotheses(self):
        for n in range(1, 5):
            for inst in enumerate_decompositions(n):
                assert sum(Fraction(1, k) for k in inst.ks) == 1
                assert inst.spec.max_entry == inst.k
                assert all(inst.k % w == 0 for w in inst.ws)
                assert math.lcm(*inst.ks) == inst.k

    def test_all_instances_classify_case_i(self):
        for n in range(1, 5):
            for inst in enumerate_decompositions(n):
                verdict = classify(inst.spec)
                assert verdict.landau_integral and verdict.case_i


class TestVerify:
    def test_k_six(self):
        verdict = verify_zhou(ZhouInstance((2, 3, 6)), order=40)
        assert verdict.report is not None and verdict.instance.k == 6
        assert verdict.report.integral

    def test_k_twelve(self):
        verdict = verify_zhou(ZhouInstance((3, 4, 4, 6)), order=30)
        assert verdict.instance.k == 12
        assert verdict.report.integral

    def test_degenerate(self):
        verdict = verify_zhou(ZhouInstance((1,)), order=10)
        assert verdict.passed


class TestBatch:
    def test_counts_up_to_three(self):
        summary = batch(3, order=20)
        assert summary.total == 5
        assert summary.all_passed

    def test_single(self):
        summary = batch(1, order=5)
        assert summary.total == 1 and summary.all_passed

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            batch(9, order=10)
