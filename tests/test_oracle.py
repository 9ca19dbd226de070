"""Brute-force lattice-point oracle."""
from __future__ import annotations

import random
from itertools import permutations

import pytest

from vpf import MatrixParseError, ProblemSpec, count_points


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

