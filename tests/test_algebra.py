"""Commutators, structure constants, solvability, reduction-order advice."""

import random
from fractions import Fraction

import pytest

from liereduce import (AlgebraError, AlgebraTable, JetError, JetSpace, VectorField,
                       commutator, equiv, eval_numeric, is_solvable, rat,
                       reduction_order_advice, structure_constants)
from liereduce.corpus import corpus_dir
from liereduce.problem import load_problem
from genexpr import random_polynomial

ODE = JetSpace(("x",), ("y",), 2)
PDE = JetSpace(("x1", "x2"), ("u",), 2)


def fields_equal(A, B):
    return all(equiv(A.coeff(n), B.coeff(n)) for n in A.space.base_names)


class TestCommutator:
    def test_fields_over_different_base_coordinates(self):
        X, Y = VectorField.parse(ODE, {"x": "1"}), VectorField.parse(PDE, {"x1": "1"})
        with pytest.raises(JetError, match="fields live over different base coordinates"):
            commutator(X, Y)
        with pytest.raises(JetError, match="generators live over different base coordinates"):
            structure_constants([X, Y])

    def test_translated_pair(self):
        X1 = VectorField.parse(ODE, {"y": "1"})
        X2 = VectorField.parse(ODE, {"x": "x", "y": "-y"})
        assert fields_equal(commutator(X1, X2), rat(-1) * X1)

    def test_power_law_pair(self):
        X1 = VectorField.parse(PDE, {"u": "1"})
        X2 = VectorField.parse(PDE, {"x1": "x1", "x2": "2*x2", "u": "u"})
        assert fields_equal(commutator(X1, X2), X1)

    def test_self_bracket_vanishes(self):
        X = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
        assert commutator(X, X).is_zero()

    def test_antisymmetry_and_jacobi_random(self):
        rng = random.Random(71)
        names = ["x1", "x2", "u"]
        for _ in range(25):
            def rnd():
                return VectorField(PDE, {
                    n: random_polynomial(rng, names, terms=2, degree=2)
                    for n in rng.sample(names, 2)})
            X, Y, Z = rnd(), rnd(), rnd()
            assert fields_equal(commutator(X, Y), rat(-1) * commutator(Y, X))
            jac = commutator(commutator(X, Y), Z) \
                + commutator(commutator(Y, Z), X) \
                + commutator(commutator(Z, X), Y)
            assert all(equiv(jac.coeff(n), rat(0)) for n in PDE.base_names)

    def test_bilinearity(self):
        X = VectorField.parse(ODE, {"x": "x"})
        Y = VectorField.parse(ODE, {"y": "y"})
        Z = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
        left = commutator(rat(2) * X + rat(3) * Y, Z)
        right = rat(2) * commutator(X, Z) + rat(3) * commutator(Y, Z)
        assert fields_equal(left, right)


class TestBracketOracle:
    """Independent numeric estimate of the two-scalings bracket constant.

    The bracket coefficient on each coordinate is X(Y_v) - Y(X_v); here the
    directional derivatives are estimated by central finite differences of
    the coefficient functions, with no symbolic differentiation involved.
    """

    @staticmethod
    def numeric_bracket(coeffs_X, coeffs_Y, names, point, h=1e-6):
        def ev(fmap, pt):
            return {n: eval_numeric(fmap.get(n, rat(0)), pt) for n in names}

        def directional(fmap, vec, pt):
            out = {}
            for n in names:
                up = dict(pt)
                dn = dict(pt)
                for m in names:
                    up[m] += h * vec[m]
                    dn[m] -= h * vec[m]
                f = fmap.get(n, rat(0))
                out[n] = (eval_numeric(f, up) - eval_numeric(f, dn)) / (2 * h)
            return out

        Xv = ev(coeffs_X, point)
        Yv = ev(coeffs_Y, point)
        dY = directional(coeffs_Y, Xv, point)
        dX = directional(coeffs_X, Yv, point)
        return {n: dY[n] - dX[n] for n in names}

    def test_two_scalings_constant_is_minus_one(self):
        names = ("x", "y")
        X1 = {"x": ODE.expr("x^2"), "y": ODE.expr("x*y")}
        X2 = {"x": ODE.expr("x"), "y": ODE.expr("1/2*y")}
        for point in ({"x": 0.7, "y": 1.3}, {"x": 1.9, "y": 0.4},
                      {"x": 0.3, "y": 2.1}):
            br = self.numeric_bracket(X1, X2, names, point)
            # fit [X1,X2] = c*X1 componentwise
            for n in names:
                denom = eval_numeric(X1[n], point)
                c = br[n] / denom
                assert c == pytest.approx(-1.0, abs=1e-4)
                assert abs(c - (-2.0)) > 0.5  # the stated constant is excluded

    def test_symbolic_bracket_agrees_with_oracle(self):
        X1 = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
        X2 = VectorField.parse(ODE, {"x": "x", "y": "1/2*y"})
        assert fields_equal(commutator(X1, X2), rat(-1) * X1)


def power_law_fields():
    specs = [{"u": "1"},
             {"x1": "x1", "x2": "2*x2", "u": "u"},
             {"x1": "1"},
             {"x2": "1"},
             {"x1": "2*x1", "u": "-u"}]
    return [VectorField.parse(PDE, s) for s in specs]


class TestStructureConstants:
    def test_five_generator_table(self):
        tab = structure_constants(power_law_fields())
        assert tab.closed
        assert tab.jacobi_ok()
        F = Fraction
        expected = {
            (0, 1): (F(1), F(0), F(0), F(0), F(0)),    # X1
            (0, 4): (F(-1), F(0), F(0), F(0), F(0)),   # -X1
            (1, 2): (F(0), F(0), F(-1), F(0), F(0)),   # -X3
            (1, 3): (F(0), F(0), F(0), F(-2), F(0)),   # -2 X4
            (2, 4): (F(0), F(0), F(2), F(0), F(0)),    # 2 X3
        }
        zero = (F(0),) * 5
        for i in range(5):
            for j in range(i + 1, 5):
                assert tab.entries[(i, j)] == expected.get((i, j), zero)

    def test_antisymmetry_accessor(self):
        tab = structure_constants(power_law_fields())
        assert tab.coords(4, 0) == tuple(-c for c in tab.coords(0, 4))

    def test_abelian(self):
        g = [VectorField.parse(ODE, {"x": "1"}), VectorField.parse(ODE, {"y": "1"})]
        tab = structure_constants(g)
        assert tab.entries[(0, 1)] == (Fraction(0), Fraction(0))

    def test_jacobi_violation_detected(self):
        # [e0,e1] = e0, [e0,e2] = e1, [e1,e2] = 0 is antisymmetric but
        # [[e0,e1],e2] + [[e1,e2],e0] + [[e2,e0],e1] = e1.
        F = Fraction
        g = [VectorField.parse(ODE, {"x": "1"}), VectorField.parse(ODE, {"y": "1"}),
             VectorField.parse(ODE, {"x": "x"})]
        tab = AlgebraTable(tuple(g), {(0, 1): (F(1), F(0), F(0)),
                                      (0, 2): (F(0), F(1), F(0)),
                                      (1, 2): (F(0), F(0), F(0))}, {})
        assert tab.closed and not tab.jacobi_ok()

    def test_shipped_tables_are_exact(self):
        # Integral coefficients are Python ints, and the elimination divides
        # them; every constant of every shipped table must stay exact.
        checked = 0
        for path in sorted(corpus_dir().glob("*.prob")):
            pf = load_problem(path)
            if pf.fields:
                for coords in pf.algebra_table()[1].entries.values():
                    assert coords is None or all(type(c) in (int, Fraction) for c in coords)
                    checked += 1
        assert checked >= 10

    def test_not_in_span_flagged(self):
        g = [VectorField.parse(ODE, {"x": "1"}),
             VectorField.parse(ODE, {"x": "x^2"})]
        tab = structure_constants(g)
        assert tab.entries[(0, 1)] is None
        assert tab.describe_entry(0, 1, ["A", "B"]) == "not in span"
        assert not tab.closed
        res = tab.brackets[(0, 1)]
        assert equiv(res.coeff("x"), ODE.expr("2*x"))
        with pytest.raises(AlgebraError, match="table is not closed"):
            tab.jacobi_ok()
        with pytest.raises(AlgebraError, match="bracket leaves the span"):
            reduction_order_advice(tab, 0, 1)


class TestSolvable:
    def test_five_generator_series(self):
        tab = structure_constants(power_law_fields())
        solvable, dims = is_solvable(tab)
        assert solvable and dims == (5, 3, 0)

    def test_two_dimensional_always_solvable(self):
        for specs in ([{"y": "1"}, {"x": "x", "y": "-y"}],
                      [{"x": "1"}, {"x": "x"}]):
            tab = structure_constants([VectorField.parse(ODE, s) for s in specs])
            solvable, dims = is_solvable(tab)
            assert solvable and dims[-1] == 0

    def test_abelian_series(self):
        g = [VectorField.parse(ODE, {"x": "1"}), VectorField.parse(ODE, {"y": "1"})]
        solvable, dims = is_solvable(structure_constants(g))
        assert solvable and dims == (2, 0)

    def test_simple_algebra_not_solvable(self):
        g = [VectorField.parse(ODE, {"x": "1"}),
             VectorField.parse(ODE, {"x": "x"}),
             VectorField.parse(ODE, {"x": "x^2"})]
        tab = structure_constants(g)
        assert tab.closed
        solvable, dims = is_solvable(tab)
        assert not solvable
        assert dims[-1] == 3

    def test_not_closed_errors(self):
        g = [VectorField.parse(ODE, {"x": "1"}),
             VectorField.parse(ODE, {"x": "x^2"})]
        with pytest.raises(AlgebraError, match="not closed"):
            is_solvable(structure_constants(g))


class TestAdvice:
    def test_translated_pair_reduce_translation_first(self):
        g = [VectorField.parse(ODE, {"y": "1"}),
             VectorField.parse(ODE, {"x": "x", "y": "-y"})]
        adv = reduction_order_advice(structure_constants(g), 0, 1)
        assert adv.first == 0 and adv.second == 1 and not adv.either

    def test_power_law_pair(self):
        tab = structure_constants(power_law_fields())
        adv = reduction_order_advice(tab, 0, 1)
        assert adv.first == 0 and adv.second == 1

    def test_proportional_to_second(self):
        # [X1, X2] = -X2 for X1 = x d/dx, X2 = d/dx ... actually [x d/dx, d/dx] = -d/dx
        g = [VectorField.parse(ODE, {"x": "x"}), VectorField.parse(ODE, {"x": "1"})]
        adv = reduction_order_advice(structure_constants(g), 0, 1)
        assert adv.first == 1 and adv.second == 0

    def test_abelian_either(self):
        g = [VectorField.parse(ODE, {"x": "1"}), VectorField.parse(ODE, {"y": "1"})]
        adv = reduction_order_advice(structure_constants(g), 0, 1)
        assert adv.either

    def test_unusable_bracket_errors(self):
        g = [VectorField.parse(ODE, {"x": "1"}),
             VectorField.parse(ODE, {"x": "x"}),
             VectorField.parse(ODE, {"x": "x^2"})]
        tab = structure_constants(g)
        with pytest.raises(AlgebraError, match="proportional"):
            reduction_order_advice(tab, 0, 2)  # [X1, X3] = 2 X2
