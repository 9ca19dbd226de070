"""Lattice-point oracle: the graded box DP, checked against the DFS."""
from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import permutations, product

import pytest

from vpf import (
    MatrixParseError,
    NotPointed,
    ProblemSpec,
    check_pointed,
    count_points,
)
from vpf.oracle import box_counts

from .helpers import count_points_dfs


A2 = ProblemSpec.from_rows([(1, 0, 1), (0, 1, 1)])


class TestCountPoints:
    def test_single_column(self):
        spec = ProblemSpec.from_rows([(1,)])
        assert count_points(spec, (5,)) == 1
        assert count_points(spec, (0,)) == 1
        assert count_points(spec, (-1,)) == 0

    def test_parity(self):
        spec = ProblemSpec.from_rows([(2,)])
        assert count_points(spec, (3,)) == 0
        assert count_points(spec, (4,)) == 1

    def test_a2_example(self):
        assert count_points(A2, (2, 5)) == 3

    @pytest.mark.parametrize("b", [(2.5, 5), (2, "5"), (2,), (2, 5, 0)])
    def test_bad_b_rejected(self, b):
        with pytest.raises(MatrixParseError):
            count_points(A2, b)

    def test_phased_spec_rejected(self):
        # At b = 1 the weighted count is 1 + e(1/3), not the 2 solutions.
        spec = ProblemSpec.from_rows([(1, 1)], phases=(F(1, 3), F(0)))
        with pytest.raises(MatrixParseError):
            count_points(spec, (1,))

    def test_a2_min_formula(self):
        # On the cone a, b >= 0, the count is min(a, b) + 1.
        for a in range(8):
            for b in range(8):
                assert count_points(A2, (a, b)) == min(a, b) + 1

    def test_one_one(self):
        spec = ProblemSpec.from_rows([(1, 1)])
        for b in range(12):
            assert count_points(spec, (b,)) == b + 1
        assert count_points(spec, (-3,)) == 0

    def test_column_permutation_invariance(self):
        rows = [(1, 2, 1, 0), (1, 1, 0, 1)]
        base = ProblemSpec.from_rows(rows)
        for perm in permutations(range(4)):
            spec = ProblemSpec.from_rows(
                [tuple(r[j] for j in perm) for r in rows])
            for b in [(0, 0), (3, 2), (5, 5), (7, 1)]:
                assert count_points(spec, b) == count_points(base, b)

    def test_zero_outside_halfspace(self):
        # y . b < 0 forces a zero count.
        from vpf import check_pointed
        y = check_pointed(A2)
        rng = random.Random(2)
        for _ in range(30):
            b = (rng.randint(-6, 6), rng.randint(-6, 6))
            if sum(yi * bi for yi, bi in zip(y, b)) < 0:
                assert count_points(A2, b) == 0

    def test_negative_entries(self):
        # x1 + 2 x2 = b1, -x1 = b2: solution needs b2 <= 0, b1 + b2 even >= 0.
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        assert count_points(spec, (3, -1)) == 1   # x = (1, 1)
        assert count_points(spec, (3, -2)) == 0   # parity
        assert count_points(spec, (0, 0)) == 1
        assert count_points(spec, (2, 1)) == 0

    def test_counts_can_exceed_small_words(self):
        spec = ProblemSpec.from_rows([(1, 1, 1, 1)])
        # Compositions of 30 into 4 nonnegative parts: C(33, 3).
        assert count_points(spec, (30,)) == 5456


    def test_1_97_101_coin_change(self):
        # Ways to pay b with coins 1, 97 and 101: for each count z of 101s,
        # the 97s range over 0..(b - 101 z) // 97.
        spec = ProblemSpec.from_rows([(1, 97, 101)])
        for b, want in ((9797, 4999), (10000, 5207)):
            assert sum((b - 101 * z) // 97 + 1
                       for z in range(b // 101 + 1)) == want
            assert count_points(spec, (b,)) == want


class TestBoxCounts:
    NEG = ProblemSpec.from_rows([(1, -1, 0), (0, 1, 1)])

    def test_negative_matrix_fiber(self):
        # A x = b has the solutions x = (b1 + t, t, b2 - t): count the t that
        # keep all three entries nonnegative.
        counts = box_counts(self.NEG, (-6, 0), (12, 12))
        assert len(counts) == 19 * 13
        for (b1, b2), n in counts.items():
            assert n == max(0, b2 - max(0, -b1) + 1)

    def test_first_coordinate_fastest(self):
        counts = box_counts(A2, (0, 1), (2, 2))
        assert list(counts) == [(0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)]

    def test_below_halfspace_is_all_zero(self):
        # y . b < 0 on the whole box: the first column already exceeds it,
        # so no cell is built, however far out the box lies.
        y = check_pointed(self.NEG)
        far = (10**12, -10**12)
        for lo, hi in [((-6, -6), (-1, -1)), (far, far)]:
            assert all(sum(yi * bi for yi, bi in zip(y, b)) < 0
                       for b in product(*zip(lo, hi)))
            counts = box_counts(self.NEG, lo, hi)
            assert counts and not any(counts.values())

    @pytest.mark.parametrize("lo, hi", [
        ((0,), (2,)), ((0, 0), (2, 2, 2)), ((0, 0, 0), (1, 1, 1)), ((), ()),
        ((3, 3), (1, 1)), ((0, 3), (2, 1)),
        ((0.5, 0), (2, 2)), ((0, 0), (2, 2.0)), ((0, "0"), (2, 2)),
    ], ids=["short", "long-hi", "long", "no-entries", "reversed",
            "reversed-second", "float-lo", "float-hi", "string"])
    def test_bad_box_rejected(self, lo, hi):
        with pytest.raises(MatrixParseError):
            box_counts(A2, lo, hi)

    def test_phased_spec_rejected(self):
        # The DP counts solutions; a phased spec weights each one by e(q . x).
        for phases in ((F(1, 2), F(0)), (F(1, 3), F(0)), (F(0), F(2, 3))):
            spec = ProblemSpec.from_rows([(1, 1)], phases=phases)
            with pytest.raises(MatrixParseError):
                box_counts(spec, (0,), (6,))

    def test_matches_dfs_on_random_specs(self):
        rng = random.Random(404)
        done = negative = 0
        while done < 100:
            m = rng.randint(1, 3)
            d = rng.randint(1, 5)
            rows = [tuple(rng.randint(-2, 3) for _ in range(d))
                    for _ in range(m)]
            try:
                spec = ProblemSpec.from_rows(rows)
                y = check_pointed(spec)
            except NotPointed:
                continue
            counts = box_counts(spec, (-2,) * m, (2,) * m)
            assert len(counts) == 5 ** m
            for b, n in counts.items():
                assert n == count_points_dfs(spec, b, y), (rows, b)
            negative += any(v < 0 for r in rows for v in r)
            done += 1
        assert negative >= 50
