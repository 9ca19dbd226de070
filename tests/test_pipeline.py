"""End-to-end pipeline: preprocessing, computation, evaluation, verification."""
from __future__ import annotations

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from vpf import (
    AffineForm,
    DimensionMismatch,
    Guard,
    MatrixParseError,
    NotPointed,
    ProblemSpec,
    ResultExpr,
    SanityFailure,
    Summand,
    VpfError,
    check_pointed,
    compute,
    count_points,
    cyc_from_phase,
    dedekind_sum,
    evaluate,
    nonnegativize,
    verify_box,
)
from vpf.matrixops import mat_vec_int
from vpf.oracle import box_counts
from vpf.pipeline import preprocess

from .helpers import (
    average,
    det_int,
    raw_terms,
    summand_value,
    terms_value,
)


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

    def test_phased_zero_column_rejected(self):
        # The same rule with a phase, not the generic Fourier-Motzkin
        # failure that compute reported later.
        with pytest.raises(NotPointed, match="column 2 is zero"):
            ProblemSpec.from_rows([(1, 0)], phases=(0, F(1, 2)))

    def test_zero_column_named_1_based(self):
        # Counted like --order and the input columns of a pole collision.
        for rows, k in (([(0, 1)], 1), ([(1, 0)], 2),
                        ([(1, 2, 0), (0, 1, 0)], 3)):
            with pytest.raises(NotPointed, match=f"^column {k} is zero$"):
                ProblemSpec.from_rows(rows)

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

    def test_bool_phase_rejected(self):
        # (True, 0) was read as the phase 1 = 0 mod 1, like (0, 0).
        for phases in ((True, 0), (0, False), (F(1, 2), True)):
            with pytest.raises(MatrixParseError, match="bool"):
                ProblemSpec.from_rows([(1, 1)], phases=phases)

    def test_bool_entry_rejected(self):
        # (True 1) would otherwise be read as (1 1).
        for rows in ([(True, 1)], [(1, False), (0, 1)]):
            with pytest.raises(MatrixParseError):
                ProblemSpec.from_rows(rows)
        with pytest.raises(MatrixParseError):
            evaluate(compute(ONE_ONE), (True,))

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
        assert report.unimodular == ((1, 0), (0, 1))
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

    @pytest.mark.parametrize("y", [(0, 0), (1, -5), (1, 0), (1,)])
    def test_y_not_positive_on_columns_rejected(self, y):
        spec = ProblemSpec.from_rows([(1, -1, 0), (0, 1, 1)])
        with pytest.raises(MatrixParseError):
            nonnegativize(spec, y)

    @pytest.mark.parametrize("y", [(0.5, 1.5), (True, 2), (1, 2.0)])
    def test_y_not_rational_rejected(self, y):
        # y . c > 0 on every column, so (0.5, 1.5) and (True, 2) used to be
        # taken as (1/2, 3/2) and (1, 2).
        spec = ProblemSpec.from_rows([(1, -1, 0), (0, 1, 1)])
        with pytest.raises(MatrixParseError, match="y"):
            nonnegativize(spec, y)

    def test_rational_y_recorded_as_fractions(self):
        spec = ProblemSpec.from_rows([(1, -1, 0), (0, 1, 1)])
        report = nonnegativize(spec, (1, F(3, 2)))
        assert report.certificate == (F(1), F(3, 2))
        assert all(type(q) is Fraction for q in report.certificate)
        assert report.unimodular[-1] == (2, 3)

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
        # Terms with equal guards whose phases generate the same cyclic
        # group are one summand.
        spec = ProblemSpec.from_rows([(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)])
        terms = compute(spec, order=(1, 2, 0)).terms
        for i, s in enumerate(terms):
            for t in terms[i + 1:]:
                assert not (set(s.guards) == set(t.guards)
                            and (s.modulus, s.residue) == (t.modulus, t.residue))

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
        raw = raw_terms(spec)
        # sum_{x+y=b} (-1)^x is 1 for even b, 0 for odd b.
        for b in range(0, 10):
            total = sum(summand_value(s, (b,)) for s in expr.terms)
            assert total == average(terms_value(raw, (b,)), 2)
            assert total == (1 if b % 2 == 0 else 0)

    def test_phased_expression_pickles_and_copies(self):
        # Its tables hold Cyclotomic entries, which are immutable.
        expr = compute(ProblemSpec.from_rows([(1, 1)], phases=(F(1, 3), 0)))
        values = [evaluate(expr, (b,)) for b in range(-2, 9)]
        for other in (pickle.loads(pickle.dumps(expr)), copy.deepcopy(expr)):
            assert other == expr
            assert [evaluate(other, (b,)) for b in range(-2, 9)] == values


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

    def test_failure_names_the_callers_b(self):
        # The normalized b is added only where the transform moves b.
        expr = compute(ProblemSpec.from_rows([(1, -1, 0), (0, 1, 1)]))
        bad = replace(expr, terms=expr.terms[:1] + expr.terms[2:])
        with pytest.raises(SanityFailure, match=(
                r"^evaluation at \(-2, 4\) \(normalized \(4, 6\)\) is not a "
                r"nonnegative integer: -2$")):
            evaluate(bad, (-2, 4))
        expr = compute(ProblemSpec.from_rows([(1, 2)]))
        bad = replace(expr, terms=expr.terms[:1])
        with pytest.raises(SanityFailure,
                           match=r"^evaluation at \(3,\) is not a nonneg"):
            evaluate(bad, (3,))

    def test_summand_of_wrong_arity_rejected(self):
        # A hand-built expression whose summand has 2 entries in its residue
        # and exponents while the expression has 1 parameter: rejected when
        # it is built, before any evaluate.
        expr = compute(ONE_ONE)
        with pytest.raises(DimensionMismatch, match="expected 1 parameters"):
            ResultExpr(1, expr.terms + (
                Summand((), 1, (0, 0), (((0, 0), (F(1),)),)),))

    def test_phased_halved_table_not_cyclotomic_integer(self):
        # (1 1) with phases (1/3, 0) gives 1 + e(1/3) at b = 1; halving
        # every table entry leaves a denominator 2.
        expr = compute(ProblemSpec.from_rows([(1, 1)], phases=(F(1, 3), 0)))
        assert evaluate(expr, (1,)) == 1 + cyc_from_phase(F(1, 3))
        bad = replace(expr, terms=tuple(s._replace(poly=tuple(
            (e, tuple(x * F(1, 2) for x in t)) for e, t in s.poly))
            for s in expr.terms))
        with pytest.raises(SanityFailure, match=(
                r"^evaluation at \(1,\) is not a cyclotomic integer: ")):
            evaluate(bad, (1,))

    def test_unphased_cyclotomic_entry_not_rational(self):
        # An unphased expression whose tables hold e(1/3).
        expr = compute(ONE_ONE)
        bad = replace(expr, terms=expr.terms + (
            Summand((), 1, (0,), (((0,), (cyc_from_phase(F(1, 3)),)),)),))
        with pytest.raises(SanityFailure, match=(
                r"^evaluation at \(2,\) is not rational: ")):
            evaluate(bad, (2,))

    def test_transform_applied(self):
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        expr = compute(spec)
        for b1 in range(-3, 5):
            for b2 in range(-3, 3):
                assert evaluate(expr, (b1, b2)) == count_points(spec, (b1, b2))


def _summand(modulus=1, residue=(0,), exps=(0,), table=(F(1),), guards=()):
    return Summand(guards, modulus, residue, ((exps, table),))


class TestResultExprShape:
    """A hand-built expression is checked when it is built, so evaluate
    never indexes past a table, divides by a modulus 0 or raises b to a
    negative power."""

    @pytest.mark.parametrize("summand, error, message", [
        (_summand(modulus=2, residue=(1,)), MatrixParseError,
         "a table does not have 2 entries"),
        (_summand(modulus=0, table=()), MatrixParseError,
         "modulus 0 is not positive"),
        (_summand(exps=(-1,)), MatrixParseError, "an exponent is negative"),
        (_summand(residue=(0, 1)), DimensionMismatch, "expected 1 parameters"),
        (_summand(exps=(0, 0)), DimensionMismatch, "expected 1 parameters"),
        (_summand(guards=(Guard(AffineForm((1, 1))),)), DimensionMismatch,
         "expected 1 parameters"),
    ], ids=["short-table", "modulus-0", "negative-exponent", "residue-length",
            "exponent-length", "guard-length"])
    def test_bad_summand_rejected_when_built(self, summand, error, message):
        good = compute(ONE_ONE)
        with pytest.raises(error, match=message):
            ResultExpr(1, good.terms + (summand,))
        with pytest.raises(error, match=message):
            replace(good, terms=(summand,))

    @pytest.mark.parametrize("summand, message", [
        (_summand(modulus=2.0, residue=(1,), table=(F(1), F(1))),
         "non-integer"),
        (_summand(residue=(0.5,)), "non-integer"),
        (_summand(exps=(1.0,)), "non-integer"),
        (_summand(exps=(True,)), "bool"),
        (_summand(guards=(Guard(AffineForm((0.5,))),)), "non-integer"),
        (_summand(guards=(Guard(AffineForm((1,), 0.5)),)), "non-integer"),
        (_summand(table=(1.5,)), "non-rational"),
        (_summand(table=("1",)), "non-rational"),
    ], ids=["float-modulus", "float-residue", "float-exponent",
            "bool-exponent", "float-guard-coeff", "float-guard-const",
            "float-entry", "str-entry"])
    def test_summand_number_of_wrong_type_rejected(self, summand, message):
        # These reached evaluate: a float modulus or residue was a
        # TypeError, a float entry or exponent an AttributeError, and a
        # guard coefficient 0.5 was evaluated as written.
        good = compute(ONE_ONE)
        with pytest.raises(MatrixParseError, match=message):
            ResultExpr(1, good.terms + (summand,))
        with pytest.raises(MatrixParseError, match=message):
            replace(good, terms=(summand,))

    @pytest.mark.parametrize("summand, message", [
        (Summand((), 1, 5, ()), "summand residue 5 is not a sequence"),
        (Summand((), 1, (0,), 7), "summand poly 7 is not a sequence"),
        (Summand(("x",), 1, (0,), (((0,), (F(1),)),)), "not all Guards"),
        (Summand(5, 1, (0,), (((0,), (F(1),)),)),
         "summand guards 5 is not a sequence"),
        (Summand((), 1, (0,), ((5, (F(1),)),)),
         "summand exponents 5 is not a sequence"),
        (Summand((), 1, (0,), (((0,), 3),)),
         "summand table 3 is not a sequence"),
        (Summand((), 1, (0,), (((0,), (F(1),), ()),)), "has length 3"),
    ], ids=["int-residue", "int-poly", "str-guard", "int-guards",
            "int-exponents", "int-table", "triple-monomial"])
    def test_summand_part_of_wrong_kind_rejected(self, summand, message):
        # These were a bare TypeError or AttributeError.
        good = compute(ONE_ONE)
        with pytest.raises(MatrixParseError, match=message):
            ResultExpr(1, good.terms + (summand,))
        with pytest.raises(MatrixParseError, match=message):
            replace(good, terms=(summand,))

    @pytest.mark.parametrize("m, message", [
        (0, "m = 0 is not positive"), (-2, "m = -2 is not positive"),
        (True, "bool"), (1.0, "non-integer")])
    def test_m_not_a_positive_int_rejected(self, m, message):
        # The JSON reader's rule: ResultExpr(0, ()) evaluated to 0 at b = (),
        # and m = True passed as 1.
        with pytest.raises(MatrixParseError, match=message):
            ResultExpr(m, ())
        with pytest.raises(MatrixParseError, match=message):
            replace(compute(ONE_ONE), m=m)

    def test_spec_and_unimodular_of_wrong_size(self):
        expr = compute(A2)
        for u in (((1, 0),), ((1, 0), (0,)), ((1, 0, 0),) * 2):
            with pytest.raises(DimensionMismatch):
                replace(expr, report=replace(expr.report, unimodular=u))
        with pytest.raises(DimensionMismatch, match="expected 2 parameters"):
            replace(expr, spec=ONE_ONE)


#: Not a vector or a matrix: an int, None, a str and a float.
NOT_VECTORS = [5, None, "ab", 2.5]

#: Every public entry point that takes a vector or a matrix, by argument.
TAKES_VECTORS = {
    "spec-rows": lambda bad: ProblemSpec(bad),
    "spec-phases": lambda bad: ProblemSpec(((1, 1),), bad),
    "from_rows-rows": lambda bad: ProblemSpec.from_rows(bad),
    "from_rows-row": lambda bad: ProblemSpec.from_rows([bad]),
    "from_rows-phases": lambda bad: ProblemSpec.from_rows([(1, 1)], bad),
    "nonnegativize-y": lambda bad: nonnegativize(A2, bad),
    "compute-order": lambda bad: compute(A2, bad),
    "evaluate-b": lambda bad: evaluate(compute(A2), bad),
    "verify_box-lo": lambda bad: verify_box(A2, compute(A2), bad, (1, 1)),
    "verify_box-hi": lambda bad: verify_box(A2, compute(A2), (0, 0), bad),
    "box_counts-lo": lambda bad: box_counts(A2, bad, (1, 1)),
    "box_counts-hi": lambda bad: box_counts(A2, (0, 0), bad),
    "count_points-b": lambda bad: count_points(A2, bad),
    "dedekind_sum-f": lambda bad: dedekind_sum(2, 0, bad, 0),
}


@pytest.mark.parametrize("bad", NOT_VECTORS, ids=repr)
@pytest.mark.parametrize("entry", TAKES_VECTORS)
def test_non_vector_argument_is_typed(entry, bad):
    # A VpfError, never a bare TypeError; a non-sequence is named as one.
    # compute's order=None is its documented default.
    if entry == "compute-order" and bad is None:
        assert TAKES_VECTORS[entry](bad) == compute(A2)
        return
    with pytest.raises(VpfError) as info:
        TAKES_VECTORS[entry](bad)
    if not isinstance(bad, str):
        assert "is not a sequence" in str(info.value)


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

    def test_three_row_negative_entries(self):
        # A 3-row matrix with negative entries from the differential fuzz:
        # its normalized rows make many children at every elimination step.
        spec = ProblemSpec.from_rows([(-2, 3, 2), (3, 0, -1), (1, 1, -2)])
        expr = compute(spec, (2, 1, 0))
        report = verify_box(spec, expr, (-2,) * 3, (3,) * 3)
        assert report.points_checked == 216
        assert report.ok, report.mismatches[:3]

    def test_merging_soundness(self):
        # The raw engine terms' sum, averaged over the Galois group, equals
        # the summands' sum everywhere.
        for spec in (A2, THREE_ONE, BECK):
            raw = raw_terms(spec)
            expr = compute(spec)
            for a in range(-2, 7):
                for b in range(-2, 7):
                    merged = sum(summand_value(s, (a, b)) for s in expr.terms)
                    assert merged == average(terms_value(raw, (a, b)), 1)


def test_all_exports_no_module():
    import types

    import vpf

    assert "compute" in vpf.__all__ and "level_cap" in vpf.__all__
    for name in vpf.__all__:
        assert not isinstance(getattr(vpf, name), types.ModuleType), name
