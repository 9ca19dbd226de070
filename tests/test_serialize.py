"""JSON round-trips for every serialized object."""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

from vpf import (
    AffineForm,
    Cyclotomic,
    Guard,
    MatrixParseError,
    ProblemSpec,
    compute,
    cyc_from_phase,
    evaluate,
)
from vpf.cyclotomic import cyc_triple
from vpf.params import EQ_ZERO, GE_ZERO, ParamPoly, PhaseForm, Term
from vpf.serialize import (
    cyc_from_json,
    cyc_to_json,
    expr_from_json,
    expr_to_json,
    guard_from_json,
    guard_to_json,
    phase_from_json,
    poly_from_json,
    rat_from_json,
    rat_to_json,
    term_from_json,
)

from .helpers import (
    phase_to_json,
    poly_from_affine,
    poly_to_json,
    spec_level,
    term_to_json,
)
from .test_tables import BENCH_INPUTS, PHASED


DATA = Path(__file__).parent / "data"


def F(p, q=1):
    return Fraction(p, q)


class TestScalars:
    def test_rat(self):
        assert rat_to_json(F(3)) == "3"
        assert rat_to_json(F(-1, 2)) == "-1/2"
        for q in (F(0), F(5), F(-7, 3), F(22, 7)):
            assert rat_from_json(rat_to_json(q)) == q

    @pytest.mark.parametrize("text", [
        "0.5", "0.75", " 1e2 ", "1e2", "1_0", "+1", "1/ 2", " 3/4", "3/4\n",
        "-1/-2", "1/2/3", "", "-", "/2", "inf", "nan", "\u0661"])
    def test_rat_grammar(self, text):
        # Only what rat_to_json writes: -?[0-9]+(/[0-9]+)? or a JSON
        # integer; Fraction alone takes decimals, exponents, spaces and "_".
        with pytest.raises(MatrixParseError):
            rat_from_json(text)

    def test_rat_grammar_accepts(self):
        for text, q in (("3", F(3)), ("-7", F(-7)), ("3/4", F(3, 4)),
                        ("-1/2", F(-1, 2)), ("2/4", F(1, 2)), ("007", F(7))):
            assert rat_from_json(text) == q
        assert rat_from_json(5) == F(5)

    def test_cyc(self):
        for x in (Cyclotomic.one(), cyc_from_phase(F(1, 4)),
                  cyc_from_phase(F(1, 3)) * F(2, 5) + 1):
            obj = cyc_to_json(x)
            assert cyc_from_json(obj) == x
            # JSON-encodable as-is
            json.dumps(obj)

    @pytest.mark.parametrize("coeffs", [
        ["0", "0", "1"], ["1"], [], ["1", "0", "0", "0"]])
    def test_cyc_coefficient_count(self, coeffs):
        # phi(4) = 2 coefficients; ["0", "0", "1"] was read as zeta_4^2 = -1.
        with pytest.raises(MatrixParseError, match="level 4 takes 2"):
            cyc_from_json({"level": 4, "coeffs": coeffs})

    def test_written_cyc_has_phi_coefficients(self):
        for q, phi in ((F(0), 1), (F(1, 4), 2), (F(1, 9), 6), (F(5, 12), 4)):
            assert len(cyc_to_json(cyc_from_phase(q))["coeffs"]) == phi


class TestComponents:
    def test_guard(self):
        for g in (Guard(AffineForm((1, -1), -1), GE_ZERO),
                  Guard(AffineForm((0, 1), 0), EQ_ZERO)):
            assert guard_from_json(guard_to_json(g)) == g

    def test_phase(self):
        p = PhaseForm((1, 0), 4)
        assert phase_from_json(phase_to_json(p)) == p

    def test_poly(self):
        p = ParamPoly(2, {(1, 0): cyc_triple(2),
                          (0, 0): cyc_triple(cyc_from_phase(F(1, 3)))})
        assert poly_from_json(poly_to_json(p), 2) == p

    def test_repeated_monomial_named(self):
        # The last coefficient of a repeated monomial was kept alone.
        one = {"exps": [1, 0], "coeff": {"level": 1, "coeffs": ["1"]}}
        with pytest.raises(MatrixParseError, match=r"exponents \(1, 0\)"):
            poly_from_json([one, one], 2)

    def test_term(self):
        t = Term(PhaseForm((1, 0), 4),
                 poly_from_affine(AffineForm((1, 0), 1)).scale(
                     cyc_triple(cyc_from_phase(F(1, 4)) * F(1, 8))),
                 (Guard(AffineForm((0, 1), 0), GE_ZERO),))
        t2 = term_from_json(term_to_json(t), 2)
        assert t2 == t


class TestExpr:
    def test_roundtrip_evaluates_identically(self):
        for rows in ([(1, 1)], [(1, 0, 1), (0, 1, 1)], [(1, 2), (-1, 0)]):
            spec = ProblemSpec.from_rows(rows)
            expr = compute(spec)
            blob = json.dumps(expr_to_json(expr))
            back = expr_from_json(json.loads(blob))
            m = spec.m
            for b1 in range(-3, 6):
                bs = [(b1,)] if m == 1 else [(b1, b2) for b2 in range(-3, 6)]
                for b in bs:
                    assert evaluate(back, b) == evaluate(expr, b)

    def test_matrix_and_transform_recorded(self):
        spec = ProblemSpec.from_rows([(1, 2), (-1, 0)])
        obj = expr_to_json(compute(spec))
        assert obj["matrix"] == [[1, 2], [-1, 0]]
        assert "unimodular" in obj and "certificate" in obj

    @pytest.mark.parametrize("name, rows, box", [
        ("a2_schema1.json", [(1, 0, 1), (0, 1, 1)], [range(-3, 16)] * 2),
        ("p157_schema1.json", [(1, 5, 7)], [range(-3, 150)]),
    ])
    def test_schema1_file_evaluates_like_compute(self, name, rows, box):
        # Written by `vpf compute --format json` before terms lost "scalar".
        obj = json.loads((DATA / name).read_text(encoding="utf-8"))
        assert "schema" not in obj and "scalar" in obj["terms"][0]
        old = expr_from_json(obj)
        new = compute(ProblemSpec.from_rows(rows))
        assert len(old.terms) == len(new.terms)
        for b in product(*box):
            assert evaluate(old, b) == evaluate(new, b)

    @pytest.mark.parametrize("name, rows", [
        ("one_one_schema2.json", [(1, 1)]),
        ("p157_schema2.json", [(1, 5, 7)]),
        ("beck_schema2.json", [(1, 2, 1, 0), (1, 1, 0, 1)]),
        ("negative_schema2.json", [(1, -1, 0), (0, 1, 1)]),
    ])
    def test_schema2_file_evaluates_like_compute(self, name, rows):
        # Written by `vpf compute --format json` while terms were schema 2.
        obj = json.loads((DATA / name).read_text(encoding="utf-8"))
        assert obj["schema"] == 2
        old = expr_from_json(obj)
        new = compute(ProblemSpec.from_rows(rows))
        assert old.terms == new.terms
        box = [range(-4, 40)] * len(rows)
        for b in product(*box):
            assert evaluate(old, b) == evaluate(new, b)

    @pytest.mark.parametrize("m", [0, -2])
    def test_nonpositive_m_rejected(self, m):
        # {"m": 0, "terms": []} loaded, and evaluate(e, ()) gave 0.
        for schema in (2, 3):
            with pytest.raises(MatrixParseError, match=f"m = {m}"):
                expr_from_json({"schema": schema, "m": m, "terms": []})

    def test_unknown_schema_rejected(self):
        obj = expr_to_json(compute(ProblemSpec.from_rows([(1, 1)])))
        assert obj["schema"] == 3
        for schema in (4, 5, 0, "3", None, 3.0, True):
            with pytest.raises(MatrixParseError):
                expr_from_json({**obj, "schema": schema})

    @pytest.mark.parametrize("rows, order, phases", [
        pytest.param(*p.values, (), id=p.id) for p in BENCH_INPUTS] + [
        pytest.param(rows, None, phases, id="phased_" + p.id)
        for p in PHASED for rows, phases in [p.values]])
    def test_roundtrip_is_identity(self, rows, order, phases):
        # The spec comes back with its phases, so a phased expression read
        # from JSON gets the phased check and the same values.
        expr = compute(ProblemSpec.from_rows(rows, phases), order=order)
        doc = json.loads(json.dumps(expr_to_json(expr)))
        assert doc["schema"] == (4 if any(phases) else 3)
        back = expr_from_json(doc)
        assert back == expr
        assert expr_to_json(back) == doc
        for b in product(range(-1, 4), repeat=expr.m):
            assert evaluate(back, b) == evaluate(expr, b)

    def test_phased_roundtrip_value(self):
        # (-1)^b: the unphased check once rejected -1 at b = 1.
        expr = compute(ProblemSpec.from_rows([(1,)], phases=(F(1, 2),)))
        doc = expr_to_json(expr)
        assert doc["phases"] == ["1/2"]
        assert evaluate(expr_from_json(doc), (1,)) == -1

    @pytest.mark.parametrize("edit", [
        lambda o: o.pop("phases"),
        lambda o: o.pop("matrix"),
        lambda o: o.update(phases=["1/2"]),
        lambda o: o.update(phases=[0.5, "0"]),
        lambda o: o.update(matrix=[[1, 1]]),
        lambda o: o.update(matrix=[[1, 0], [0, 0]]),
        lambda o: o.update(matrix=[[1, 1.0], [0, 1]]),
    ], ids=["no-phases", "no-matrix", "phase-count", "float-phase",
            "row-count", "zero-column", "float-entry"])
    def test_malformed_schema4_rejected(self, edit):
        # Typed MatrixParseError (exit 4), never NotPointed.
        spec = ProblemSpec.from_rows([(1, 1), (0, 1)], phases=(F(1, 3), 0))
        obj = json.loads(json.dumps(expr_to_json(compute(spec))))
        assert obj["schema"] == 4 and expr_from_json(obj).spec == spec
        edit(obj)
        with pytest.raises(MatrixParseError):
            expr_from_json(obj)

    @pytest.mark.parametrize("text", ["0.75", " 1e2 ", "1_0"])
    @pytest.mark.parametrize("place", [
        lambda o: o["phases"], lambda o: o["terms"][0]["poly"][0]["table"],
        lambda o: o["certificate"],
        lambda o: o["terms"][0]["poly"][0]["table"][1]["coeffs"],
    ], ids=["phase", "table-entry", "certificate", "cyclotomic-coeff"])
    def test_rational_outside_grammar_rejected(self, place, text):
        # The document loads as written and fails once one of its rational
        # strings is a decimal, an exponent or has a "_".
        spec = ProblemSpec.from_rows([(1, 1), (0, 1)], phases=(F(1, 3), 0))
        obj = json.loads(json.dumps(expr_to_json(compute(spec))))
        assert expr_from_json(obj).spec == spec
        assert isinstance(place(obj)[0], str)
        place(obj)[0] = text
        with pytest.raises(MatrixParseError):
            expr_from_json(obj)

    @pytest.mark.parametrize("matrix", [[[1, 2], [0, 1]], [[0, 2]], [[1, 2.0]]],
                             ids=["row-count", "zero-column", "float-entry"])
    def test_bad_matrix_rejected(self, matrix):
        obj = expr_to_json(compute(ProblemSpec.from_rows([(1, 2)])))
        with pytest.raises(MatrixParseError):
            expr_from_json({**obj, "matrix": matrix})

    @pytest.mark.parametrize("edit", [
        lambda o: o.update(m=1.9),
        lambda o: o.update(m=1.0),
        lambda o: o["terms"][0]["guards"][0]["coeffs"].__setitem__(0, 1.7),
        lambda o: o["terms"][0]["guards"][0].update(const=0.0),
        lambda o: o["terms"][0]["poly"][1]["exps"].__setitem__(0, 1.0),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(level=1.0),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(coeffs=[0.1]),
        lambda o: o["terms"][0]["phase"].update(coeffs=[0.0]),
        lambda o: o.update(certificate=[0.5]),
        lambda o: o.update(unimodular=[[1.0]]),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(coeffs=["1/0"]),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(coeffs=["one"]),
        lambda o: o["terms"][0]["poly"][0]["coeff"].update(level=0),
        lambda o: o["terms"][0]["guards"][0].update(sense="gt"),
        lambda o: o.pop("m"),
        lambda o: o.pop("terms"),
        lambda o: o["terms"][0].pop("phase"),
        lambda o: o["terms"][0]["guards"][0].pop("const"),
        lambda o: o["terms"][0]["poly"][0]["coeff"].pop("level"),
        lambda o: o.update(terms=5),
        lambda o: o["terms"].__setitem__(0, "term"),
        lambda o: o["terms"][0]["guards"][0].update(coeffs=1),
        lambda o: o["terms"][0]["poly"].append(o["terms"][0]["poly"][0]),
    ], ids=["float-m", "integral-float-m", "float-guard-coeff",
            "float-guard-const", "float-exponent", "float-level",
            "float-coeff", "float-phase", "float-certificate",
            "float-unimodular", "zero-denominator", "not-a-number",
            "level-0", "guard-sense", "no-m", "no-terms", "no-phase",
            "no-guard-const", "no-level", "terms-not-a-list",
            "term-not-an-object", "guard-coeffs-not-a-list",
            "repeated-monomial"])
    def test_malformed_document_rejected(self, edit):
        # Typed, never a KeyError, TypeError or ValueError, and never rounded.
        # The schema-2 reader: the edits name its term fields.
        obj = json.loads((DATA / "one_one_schema2.json").read_text(encoding="utf-8"))
        assert expr_from_json(obj).m == 1
        edit(obj)
        with pytest.raises(MatrixParseError):
            expr_from_json(obj)

    @pytest.mark.parametrize("edit", [
        lambda o: o.update(m=True),
        lambda o: o["terms"][1].update(modulus=2.0),
        lambda o: o["terms"][1].update(modulus=True),
        lambda o: o["terms"][1].update(modulus=0),
        lambda o: o["terms"][1].update(residue=[1, 0]),
        lambda o: o["terms"][1].update(residue=[0.5]),
        lambda o: o["terms"][1]["poly"][0].update(table=["1/4"]),
        lambda o: o["terms"][1]["poly"][0]["table"].__setitem__(0, 0.25),
        lambda o: o["terms"][1]["poly"][0]["table"].__setitem__(0, "1/0"),
        lambda o: o["terms"][1]["poly"][0]["table"].__setitem__(
            0, {"level": 1.0, "coeffs": ["1"]}),
        lambda o: o["terms"][1]["poly"][0].update(exps=[-1]),
        lambda o: o["terms"][1]["poly"][0].update(exps=[True]),
        lambda o: o["terms"][1]["guards"][0].update(coeffs=[1, 0]),
        lambda o: o["terms"][1].pop("modulus"),
        lambda o: o["terms"][1].pop("residue"),
        lambda o: o["terms"][1]["poly"][0].pop("table"),
        lambda o: o["terms"][1].update(poly=[{"exps": [0], "coeff": "1"}]),
        lambda o: o.update(unimodular=[[1, 0], [0, 1]]),
        lambda o: o.update(unimodular=[[1, 0]]),
        lambda o: o.update(certificate=["1", "1", "1"]),
        lambda o: o.update(normalized=[[1, 2], [1, 2]]),
    ], ids=["bool-m", "float-modulus", "bool-modulus", "modulus-0",
            "residue-length", "float-residue", "table-length", "float-entry",
            "zero-denominator-entry", "float-entry-level", "negative-exponent",
            "bool-exponent", "guard-length", "no-modulus", "no-residue",
            "no-table", "schema-2-monomial", "unimodular-2x2",
            "unimodular-long-row", "certificate-length",
            "normalized-row-count"])
    def test_malformed_schema3_rejected(self, edit):
        obj = json.loads(json.dumps(
            expr_to_json(compute(ProblemSpec.from_rows([(1, 2)])))))
        assert obj["terms"][1]["modulus"] == 2
        assert expr_from_json(obj).m == 1
        edit(obj)
        with pytest.raises(MatrixParseError):
            expr_from_json(obj)

    @pytest.mark.parametrize("doc", [[], 5, "expr", None])
    def test_non_object_document_rejected(self, doc):
        with pytest.raises(MatrixParseError):
            expr_from_json(doc)


#: sha256 of the CLI's `compute --format json` text (json.dumps(..., indent=2)
#: of expr_to_json), pinned so changes to the arithmetic cannot move a
#: table entry, a modulus or the summand order.
M34 = [(1, 1, 1, 0), (0, 1, 2, 1), (1, 0, 1, 3)]
PINNED_JSON = [
    pytest.param([(1, 0, 1), (0, 1, 1)], None,
                 "65b88901d4c047a31bf0d5ccfb03cff4ad19395bcf5068aa3f08b6700bb010b2",
                 id="a2"),
    pytest.param([(1, 2, 1, 0), (1, 1, 0, 1)], None,
                 "4ab2d05f7dbc2319ae6463d5cafac18486fcbe69f06b49ae0821f09e6cefa12c",
                 id="beck"),
    pytest.param([(1, 1), (3, 1)], None,
                 "5d1bf2841f55d9ef654fd5944ba0acf2b268ded447537d40b8d23deff7a19982",
                 id="three_one"),
    pytest.param([(1, 5, 7)], None,
                 "000a457286dc66f470844a004bc5b7ae91ec657ea9219a9922c5f17d63365207",
                 id="p5_q7"),
    pytest.param([(1, 7, 11)], None,
                 "eb001baa22979ab8c90cfcb7196e30bbe9ad0f8d373932a7c5f2bc5b53e83931",
                 id="p7_q11"),
    pytest.param(M34, (1, 2, 0),
                 "608b5b19f622b0a674756c29fe02e4c5d98f97dba7c7da8c6a0472330527b9ea",
                 id="3x4_order_120"),
    pytest.param(M34, (2, 1, 0),
                 "583f8d12cbcc3cde6735579b3ccb1c8f534340390b86fda97e6f45433de166e8",
                 id="3x4_order_210"),
    pytest.param(M34, (2, 0, 1),
                 "a3481669bf1616c78cf675cb29231b4e92cc7138c72b358936fcea8c31d46b1e",
                 id="3x4_order_201"),
    pytest.param(M34, (0, 2, 1),
                 "e7803f0a18082824ec165a5b8b57b08b6f695a85cf41a51316094ceec2941bb9",
                 id="3x4_order_021"),
    # A mult-3 group at theta = 0.
    pytest.param([(1, 11, 13)], None,
                 "e8a2e4d378abd2804a5738ad54cb614396d3fbb4e46b53fcb202e2a9a00ee198",
                 id="p11_q13"),
    pytest.param([(1, -1, 0), (0, 1, 1)], None,
                 "b7762865f2ecef1d0fffcf349d551b4b8515fbc95a55f66b1ce49344004b2963",
                 id="negative"),
    # The two orders with the most raw engine terms (218 and 210).
    pytest.param(M34, (0, 1, 2),
                 "6a404edf8de8de0e465fda745193bdfe1e57773b0581bb59c6afb8e4802ef13e",
                 id="3x4_order_012"),
    pytest.param(M34, (1, 0, 2),
                 "d4bb9fc452c5f6eb7eed70872191d1d21b6261e774c2330e41a7abe0caf32540",
                 id="3x4_order_102"),
    # Cyclotomic table entries.
    pytest.param(ProblemSpec.from_rows([(1, 1), (0, 1)], phases=(F(1, 3), 0)),
                 None,
                 "f2ac2fdc557649b7ff1c83cb8f88ebf2e071acb94d0fb63913a017a017e25a59",
                 id="phased"),
    # Phases whose denominators differ, so the engine's levels do too.
    pytest.param(ProblemSpec.from_rows([(1, 1, 0), (0, 1, 1)],
                                       phases=(F(1, 6), F(1, 2), F(2, 3))),
                 None,
                 "ce53bf167814283b0105a8c45fd3f5b8552e7391598135ca07a43cc9080fd926",
                 id="phased_a2_sixths"),
    pytest.param(ProblemSpec.from_rows([(1, 2, 3)],
                                       phases=(F(1, 3), F(1, 4), 0)),
                 None,
                 "9aed8b061e0dffd5236001ff17aa541130b0affc749aa39c629ea17a5063f216",
                 id="phased_1_2_3"),
    pytest.param(ProblemSpec.from_rows(M34, phases=(F(1, 2), 0, F(1, 3), F(3, 4))),
                 (2, 0, 1),
                 "bdf3266b857142a482d5516efaf54c9dd740400fe0488c9f863afc1410194054",
                 id="phased_3x4_order_201"),
    # Eliminated exponents whose levels reach 840 over phases of level 12.
    pytest.param(ProblemSpec.from_rows(
                     [(0, -1, 1, 0, 2), (2, 2, 2, 1, -1), (0, -1, 2, 2, 2)],
                     phases=(F(1, 4), F(5, 6), F(1, 4), F(1, 4), F(1, 2))),
                 (0, 2, 1),
                 "e7d3881acca18a3d567cb1226faf56c96b317f6c6dc77fd74079e7218132aed4",
                 id="phased_3x5_order_021"),
]


@pytest.mark.parametrize("rows, order, digest", PINNED_JSON)
def test_pinned_json_output(rows, order, digest):
    spec = rows if isinstance(rows, ProblemSpec) else ProblemSpec.from_rows(rows)
    expr = compute(spec, order=order)
    text = json.dumps(expr_to_json(expr), indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("rows, order, digest", PINNED_JSON)
def test_compute_does_no_cyclotomic_arithmetic(rows, order, digest,
                                               monkeypatch):
    # The engine runs on integer triples and builds a Cyclotomic only for a
    # table entry that is not rational: with Cyclotomic's arithmetic made to
    # raise (== too, through -), compute still gives the pinned JSON.
    def refuse(*args):
        raise AssertionError("Cyclotomic arithmetic in compute")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "inv", "raise_level"):
        monkeypatch.setattr(Cyclotomic, name, refuse)
    test_pinned_json_output(rows, order, digest)


@pytest.mark.parametrize("rows, order, digest", PINNED_JSON)
def test_compute_builds_cyclotomics_only_for_irrational_entries(
        rows, order, digest, monkeypatch):
    # A Term's coefficients stay triples from the engine to the tables, so
    # the only Cyclotomics compute builds are its table entries that are
    # not rational: none for an unphased spec (the 3x4 default order built
    # 225 when each coefficient was one).  Both __init__ and _ints go
    # through _set.
    spec = rows if isinstance(rows, ProblemSpec) else ProblemSpec.from_rows(rows)
    built = []
    set_ = Cyclotomic._set

    def counted(self, *args):
        built.append(args)
        set_(self, *args)

    monkeypatch.setattr(Cyclotomic, "_set", counted)
    expr = compute(spec, order=order)
    entries = [x for s in expr.terms for _, t in s.poly for x in t
               if isinstance(x, Cyclotomic)]
    assert len(built) == len(entries)
    assert bool(entries) == any(spec.phases)


@pytest.mark.parametrize("spec, order", [
    pytest.param(spec, order, id=p.id)
    for p in PINNED_JSON for spec, order, _ in [p.values]
    if isinstance(spec, ProblemSpec)])
def test_phased_entries_and_values_stay_at_the_phase_level(spec, order):
    # A table entry is a trace into Q(zeta_h) with h | L0, and is written
    # there; so is a value, a sum of such entries times rationals.
    l0 = spec_level(spec)
    expr = compute(spec, order=order)
    entries = [x for s in expr.terms for _, t in s.poly for x in t
               if isinstance(x, Cyclotomic)]
    values = [v for b in product(range(-1, 5), repeat=spec.m)
              if isinstance(v := evaluate(expr, b), Cyclotomic)]
    assert entries and values
    assert all(l0 % x.level == 0 for x in entries + values)
