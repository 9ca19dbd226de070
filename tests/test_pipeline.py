"""End-to-end pipeline: preprocessing, computation, evaluation, verification."""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from vpf import (
    MatrixParseError,
    NotPointed,
    ProblemSpec,
    check_pointed,
    compute,
    count_points,
    evaluate,
    nonnegativize,
    verify_box,
)
from vpf.matrixops import mat_vec_int
from vpf.pipeline import preprocess

from .helpers import det_int


A2 = ProblemSpec.from_rows([(1, 0, 1), (0, 1, 1)])
ONE_ONE = ProblemSpec.from_rows([(1, 1)])
THREE_ONE = ProblemSpec.from_rows([(1, 1), (3, 1)])
BECK = ProblemSpec.from_rows([(1, 2, 1, 0), (1, 1, 0, 1)])


def F(p, q=1):
    return Fraction(p, q)


class TestProblemSpec:
    def test_zero_column_rejected(self):
        with pytest.raises(NotPointed):
            ProblemSpec.from_rows([(1, 0), (1, 0)])

    def test_ragged_rejected(self):
        with pytest.raises(MatrixParseError):
            ProblemSpec.from_rows([(1, 2), (1,)])

    def test_phases_default_and_reduce(self):
        spec = ProblemSpec.from_rows([(1, 1)], phases=(F(5, 4), F(0)))
        assert spec.phases == (F(1, 4), F(0))
        assert ONE_ONE.phases == (F(0), F(0))

    def test_columns(self):
        assert A2.columns == [(1, 0), (0, 1), (1, 1)]

    def test_shape_errors_typed(self):
        for rows, phases in (([], ()), ([()], ()), ([(1, 1)], (F(0),))):
            with pytest.raises(MatrixParseError):
                ProblemSpec.from_rows(rows, phases)

    def test_non_rational_phase_rejected(self):
        # A float phase would become a huge-denominator Fraction and
        # overflow the level cap in compute; reject it up front.
        for bad in (0.1, 0.5, "1/3", None):
            with pytest.raises(MatrixParseError):
                ProblemSpec.from_rows([(1, 1)], phases=(bad, 0))
        spec = ProblemSpec.from_rows([(1, 1)], phases=(F(5, 4), 2))
        assert spec.phases == (F(1, 4), F(0))

    def test_non_integer_entry_rejected(self):
        for rows in ([(1.5, 1)], [(1, F(1, 2))], [(1, "2")]):
            with pytest.raises(MatrixParseError):
                ProblemSpec.from_rows(rows)
            with pytest.raises(MatrixParseError):
                ProblemSpec(tuple(rows))
        assert MatrixParseError.exit_code == 4


class TestCheckPointed:
    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            check_pointed(ProblemSpec.from_rows([(1, -1)]))

    def test_a2_certificate(self):
        y = check_pointed(A2)
        for c in A2.columns:
            assert sum(yi * ci for yi, ci in zip(y, c)) >= 1

    def test_negative_matrix(self):
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        y = check_pointed(spec)
        for c in spec.columns:
            assert sum(yi * ci for yi, ci in zip(y, c)) >= 1


class TestNonnegativize:
    def test_nonnegative_input_identity(self):
        report = preprocess(A2)
        assert report.is_identity
        assert report.normalized == A2.entries

    def test_negative_matrix(self):
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        report = nonnegativize(spec, check_pointed(spec))
        assert abs(det_int(report.unimodular)) == 1
        assert all(v >= 0 for row in report.normalized for v in row)
        # Count preservation on a box.
        ua = ProblemSpec.from_rows(report.normalized)
        for b1 in range(-2, 3):
            for b2 in range(-2, 3):
                b = (b1, b2)
                assert count_points(spec, b) == count_points(
                    ua, mat_vec_int(report.unimodular, b))

    @pytest.mark.parametrize("y", [(0, 0), (1, -5)])
    def test_y_not_positive_on_columns_rejected(self, y):
        spec = ProblemSpec.from_rows([(1, -1, 0), (0, 1, 1)])
        with pytest.raises(MatrixParseError):
            nonnegativize(spec, y)

    def test_random_negative_matrices(self):
        rng = random.Random(23)
        done = 0
        while done < 10:
            m = rng.randint(1, 3)
            d = rng.randint(1, 3)
            rows = [tuple(rng.randint(-3, 3) for _ in range(d))
                    for _ in range(m)]
            if not any(v < 0 for r in rows for v in r):
                continue
            try:
                spec = ProblemSpec.from_rows(rows)
                y = check_pointed(spec)
            except (ValueError, NotPointed):
                continue
            report = nonnegativize(spec, y)
            assert abs(det_int(report.unimodular)) == 1
            assert all(v >= 0 for row in report.normalized for v in row)
            done += 1


class TestCompute:
    def test_one_one(self):
        expr = compute(ONE_ONE)
        for b in range(0, 30):
            assert evaluate(expr, (b,)) == b + 1
        for b in range(-6, 0):
            assert evaluate(expr, (b,)) == 0

    def test_a2_values(self):
        expr = compute(A2)
        assert evaluate(expr, (2, 5)) == 3
        assert evaluate(expr, (5, 2)) == 3
        assert evaluate(expr, (0, 0)) == 1
        assert evaluate(expr, (-1, 4)) == 0

    def test_three_one_values(self):
        expr = compute(THREE_ONE)
        assert evaluate(expr, (1, 5)) == 0
        for a in range(0, 7):
            for b in range(0, 12):
                assert evaluate(expr, (a, b)) == count_points(THREE_ONE, (a, b))

    def test_bad_order_rejected(self):
        with pytest.raises(MatrixParseError):
            compute(A2, order=(0, 0))

    def test_bad_order_message_is_1_based(self):
        with pytest.raises(MatrixParseError, match=r"row order 1,1 \(1-based\)"):
            compute(A2, order=(0, 0))
        for order in ((0.0, 1.0), 5):
            with pytest.raises(MatrixParseError):
                compute(A2, order=order)

    def test_equal_terms_merged(self):
        # Terms with equal guards and phase are one term.
        spec = ProblemSpec.from_rows([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)])
        terms = compute(spec, order=(1, 2, 0)).terms
        for i, s in enumerate(terms):
            for t in terms[i + 1:]:
                assert not (set(s.guards) == set(t.guards)
                            and s.phase == t.phase)

    def test_row_order_independence(self):
        for spec in (A2, BECK, THREE_ONE):
            exprs = [compute(spec, order=perm)
                     for perm in permutations(range(spec.m))]
            for a in range(-2, 6):
                for b in range(-2, 6):
                    vals = {evaluate(e, (a, b)) for e in exprs}
                    assert len(vals) == 1

    def test_phases_supported(self):
        # phi with a column phase e(1/2) counts solutions weighted by (-1)^x;
        # here we only check the pipeline stays exact and rational.
        spec = ProblemSpec.from_rows([(1, 1)], phases=(F(1, 2), F(0)))
        expr = compute(spec)
        # sum_{x+y=b} (-1)^x is 1 for even b, 0 for odd b.
        for b in range(0, 10):
            total = sum(t.value((b,)) for t in expr.terms)
            assert total.to_rational() == (1 if b % 2 == 0 else 0)


class TestEvaluate:
    def test_length_check(self):
        expr = compute(ONE_ONE)
        with pytest.raises(MatrixParseError):
            evaluate(expr, (1, 2))

    def test_non_integer_b_rejected(self):
        expr = compute(A2)
        for b in ((2.7, 5.9), (2.0, 5), (F(5, 2), 5)):
            with pytest.raises(MatrixParseError):
                evaluate(expr, b)

    def test_transform_applied(self):
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        expr = compute(spec)
        for b1 in range(-3, 5):
            for b2 in range(-3, 3):
                assert evaluate(expr, (b1, b2)) == count_points(spec, (b1, b2))


class TestVerifyBox:
    def test_a2_box(self):
        expr = compute(A2)
        report = verify_box(A2, expr, (-3, -3), (8, 8))
        assert report.ok
        assert report.points_checked == 144

    def test_bad_box_rejected(self):
        expr = compute(A2)
        for lo, hi in (((3, 3), (1, 1)), ((0, 3), (2, 1)), ((0,), (2,)),
                       ((0, 0), (2, 2, 2)), ((0.5, 0), (2, 2))):
            with pytest.raises(MatrixParseError):
                verify_box(A2, expr, lo, hi)

    def test_expression_of_other_arity_rejected(self):
        with pytest.raises(MatrixParseError):
            verify_box(A2, compute(ONE_ONE), (0, 0), (2, 2))

    def test_phased_spec_rejected(self):
        # The oracle counts unweighted solutions; a phased spec has no oracle.
        for phases in ((F(1, 2), F(0)), (F(1, 3), F(0))):
            spec = ProblemSpec.from_rows([(1, 1)], phases=phases)
            with pytest.raises(MatrixParseError):
                verify_box(spec, compute(spec), (0,), (6,))

    def test_first_coordinate_varies_fastest(self):
        # Every point is a mismatch against the (1 1; 3 1) expression, so
        # the mismatch list shows the visiting order.
        report = verify_box(A2, compute(THREE_ONE), (1, 1), (3, 2))
        assert report.points_checked == 6
        assert [b for b, _, _ in report.mismatches] == [
            (1, 1), (2, 1), (3, 1), (1, 2), (2, 2), (3, 2)]

    def test_outside_cone_all_zero(self):
        expr = compute(A2)
        report = verify_box(A2, expr, (-5, -5), (-1, -1))
        assert report.ok
        for a in range(-5, 0):
            for b in range(-5, 0):
                assert evaluate(expr, (a, b)) == 0

    def test_merging_soundness(self):
        # Raw (unmerged) term sum equals the merged expression everywhere.
        from vpf.genfun import eliminate_last_var, final_univariate
        from vpf.pipeline import _initial_state

        for spec in (A2, THREE_ONE, BECK):
            report = preprocess(spec)
            state = _initial_state(report.normalized, spec.phases,
                                   tuple(range(spec.m)))
            raw = []
            stack = [state]
            while stack:
                st = stack.pop()
                if st.active == 1:
                    raw.extend(final_univariate(st))
                else:
                    stack.extend(eliminate_last_var(st))
            expr = compute(spec)
            for a in range(-2, 7):
                for b in range(-2, 7):
                    merged = sum(t.value((a, b)) for t in expr.terms)
                    unmerged = sum(t.value((a, b)) for t in raw)
                    assert merged == unmerged
