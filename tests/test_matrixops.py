"""Exact matrix utilities: Fourier-Motzkin, unimodular completion and the
determinant that checks the completion."""
from __future__ import annotations

import random
from fractions import Fraction

import pytest

from vpf.errors import MatrixParseError, NotPointed
from vpf.matrixops import (
    det_int,
    fm_certificate,
    int_from_text,
    int_vector,
    mat_mul_int,
    mat_vec_int,
    primitive_integer,
    rat_from_text,
    rat_vector,
    sequence,
    unimodular_with_last_row,
)


def F(p, q=1):
    return Fraction(p, q)


class TestFmCertificate:
    def test_a2(self):
        y = fm_certificate([(1, 0), (0, 1), (1, 1)])
        for c in [(1, 0), (0, 1), (1, 1)]:
            assert sum(yi * ci for yi, ci in zip(y, c)) >= 1

    def test_not_pointed(self):
        with pytest.raises(NotPointed):
            fm_certificate([(1,), (-1,)])
        with pytest.raises(NotPointed):
            fm_certificate([(1, 0), (-1, 0)])

    def test_mixed_sign_columns(self):
        y = fm_certificate([(1, -1), (2, 0)])
        for c in [(1, -1), (2, 0)]:
            assert sum(yi * ci for yi, ci in zip(y, c)) >= 1

    def test_random_pointed(self):
        rng = random.Random(11)
        done = 0
        while done < 25:
            m = rng.randint(1, 3)
            d = rng.randint(1, 4)
            cols = [tuple(rng.randint(-3, 3) for _ in range(m))
                    for _ in range(d)]
            if any(not any(c) for c in cols):
                continue
            try:
                y = fm_certificate(cols)
            except NotPointed:
                continue
            for c in cols:
                assert sum(yi * ci for yi, ci in zip(y, c)) >= 1
            done += 1


class TestPrimitiveInteger:
    def test_fractions(self):
        assert primitive_integer([F(1, 2), F(-1, 2)]) == (1, -1)
        assert primitive_integer([F(2), F(4)]) == (1, 2)
        assert primitive_integer([F(3, 4), F(1, 2)]) == (3, 2)


class TestDetInt:
    def test_examples(self):
        assert det_int([[1]]) == 1
        assert det_int([[1, 2], [3, 4]]) == -2
        assert det_int([[0, 1], [1, 0]]) == -1
        assert det_int([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
        assert det_int([[1, 2], [2, 4]]) == 0

    def test_random_against_expansion(self):
        def det_rec(mat):
            n = len(mat)
            if n == 1:
                return mat[0][0]
            total = 0
            for j in range(n):
                minor = [row[:j] + row[j + 1:] for row in mat[1:]]
                total += (-1) ** j * mat[0][j] * det_rec(minor)
            return total

        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(1, 4)
            mat = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            assert det_int(mat) == det_rec(mat)


class TestUnimodularCompletion:
    def test_examples(self):
        for y0 in [(1,), (1, 0), (0, 1), (1, -1), (2, 3), (3, -2, 1),
                   (5, 0, -3), (1, 1, 1)]:
            u = unimodular_with_last_row(list(y0))
            assert tuple(u[-1]) == y0
            assert abs(det_int(u)) == 1

    def test_random_primitive(self):
        rng = random.Random(7)
        done = 0
        while done < 30:
            m = rng.randint(1, 4)
            y = [rng.randint(-5, 5) for _ in range(m)]
            if not any(y):
                continue
            y0 = primitive_integer([F(v) for v in y])
            u = unimodular_with_last_row(y0)
            assert tuple(u[-1]) == tuple(y0)
            assert abs(det_int(u)) == 1
            done += 1


class TestMatHelpers:
    def test_mat_mul(self):
        a = [[1, 2], [3, 4]]
        b = [[5, 6], [7, 8]]
        assert mat_mul_int(a, b) == [[19, 22], [43, 50]]

    def test_mat_vec(self):
        assert mat_vec_int([[1, 2], [3, 4]], (5, 6)) == (17, 39)


class TestIntVector:
    def test_integers_pass(self):
        assert int_vector([3, -1, 0], "row") == (3, -1, 0)
        assert int_vector(iter([2, 5]), "row") == (2, 5)

    def test_tuple_of_exact_ints_passes_as_it_is(self):
        row = (3, -1, 0)
        assert int_vector(row, "row", 3) is row and int_vector(row, "row") is row

    @pytest.mark.parametrize("values", [
        (True, 1), (1, 2.0), (1, "2"), (1, 2, 3), (1,)], ids=repr)
    def test_tuple_fast_path_keeps_the_checks(self, values):
        with pytest.raises(MatrixParseError):
            int_vector(values, "b", 2)

    def test_int_subclass_read_as_int(self):
        class Int(int):
            pass
        out = int_vector((Int(2), 3), "row", 2)
        assert out == (2, 3) and type(out[0]) is int

    @pytest.mark.parametrize("values", [
        [True, 1], [1, False], [1.0], [F(1, 2)], ["2"], 5])
    def test_non_integers_rejected(self, values):
        with pytest.raises(MatrixParseError):
            int_vector(values, "row")

    @pytest.mark.parametrize("reader", [int_vector, rat_vector, sequence])
    def test_length(self, reader):
        assert reader([1, 2], "row", 2) == reader([1, 2], "row")
        assert reader([], "row", 0) == ()
        for values in ([1], [1, 2, 3]):
            with pytest.raises(MatrixParseError,
                               match=rf"^row .* has length {len(values)}, not 2$"):
                reader(values, "row", 2)

    @pytest.mark.parametrize("reader", [int_vector, rat_vector, sequence])
    @pytest.mark.parametrize("values", [5, None, 2.5, F(1, 2)])
    def test_non_sequence_named(self, reader, values):
        with pytest.raises(MatrixParseError, match=r"^row .* is not a sequence$"):
            reader(values, "row")


#: The readers of numbers from outside: what each returns for an input, or
#: MatrixParseError.  The text readers take ASCII -?[0-9]+ and
#: -?[0-9]+(/[0-9]+)? with a positive denominator, and nothing else int()
#: or Fraction() would read.
READS = [
    (rat_vector, [1, F(-1, 2), F(6, 4)], (F(1), F(-1, 2), F(3, 2))),
    (rat_vector, range(0, 8, 7), (F(0), F(7))),
    (rat_vector, [], ()),
    (rat_vector, [0.5], MatrixParseError),
    (rat_vector, [1, 2.0], MatrixParseError),
    (rat_vector, [True, 1], MatrixParseError),
    (rat_vector, [F(1, 2), False], MatrixParseError),
    (rat_vector, ["1/2"], MatrixParseError),
    (rat_vector, [1j], MatrixParseError),
    (int_from_text, "0", 0),
    (int_from_text, "-12", -12),
    (int_from_text, "007", 7),
    (int_from_text, "-0", 0),
    (int_from_text, "123456789012345678901234567890", 123456789012345678901234567890),
    *((int_from_text, text, MatrixParseError) for text in [
        "", "-", "--1", "1_0", "+2", "\u0662", "\uff12", "\u00b2", " 2",
        "2 ", "2\n", "0.5", "1e-1", "1/2", "1/0", "0x10", "inf"]),
    (rat_from_text, "3", F(3)),
    (rat_from_text, "-7", F(-7)),
    (rat_from_text, "-3/6", F(-1, 2)),
    (rat_from_text, "2/04", F(1, 2)),
    (rat_from_text, "0/5", F(0)),
    (rat_from_text, "007/1", F(7)),
    *((rat_from_text, text, MatrixParseError) for text in [
        "", "-", "/2", "1/", "1/0", "0/0", "1/00", "1/-2", "-1/-2", "1/+2",
        "1/2/3", "1_0", "+2", "\u0662", "\uff12", "\u00bd", " 2", "1/ 2",
        "3/4\n", "0.5", "1e-1", "1.5/2", "inf", "nan"]),
]


@pytest.mark.parametrize("reader, value, expect", READS, ids=[
    f"{reader.__name__}-{value!r}" for reader, value, _ in READS])
def test_number_readers(reader, value, expect):
    if expect is MatrixParseError:
        with pytest.raises(MatrixParseError, match="the entry"):
            reader(value, "the entry")
        return
    got = reader(value, "the entry")
    assert got == expect
    assert type(got) is type(expect)
    if reader is rat_vector:
        assert all(type(q) is Fraction for q in got)


def test_rat_vector_passes_fractions_through():
    # A tuple of Fractions alone is returned as it is; anything else is
    # still read entry by entry, so an int comes back as a Fraction and a
    # bool or a float next to Fractions is still rejected.
    fracs = (F(1, 2), F(-3), F(0))
    assert rat_vector(fracs, "row") is fracs
    got = rat_vector([F(1, 2), 3], "row")
    assert got == (F(1, 2), F(3)) and all(type(q) is Fraction for q in got)
    for bad in ([F(1, 2), True], [F(1, 2), 0.5], [True], [0.5]):
        with pytest.raises(MatrixParseError):
            rat_vector(bad, "row")
    with pytest.raises(MatrixParseError, match="has length 3, not 2"):
        rat_vector(fracs, "row", 2)
