"""Jet spaces, total derivatives, prolongation."""

import random

import pytest

from liereduce import (JetError, JetSpace, VectorField, ZERO, equiv,
                       prolong, rat, sym, total_derivative)
from genexpr import random_polynomial, small_rat

ODE = JetSpace(("x",), ("y",), 2)
PDE = JetSpace(("x1", "x2"), ("u",), 2)


class TestJetSpace:
    def test_multi_index_sorted(self):
        assert PDE.resolve("u_21") == "u_12"
        assert PDE.jet_name("u", (2, 1)) == "u_12"

    def test_ode_sugar(self):
        assert ODE.resolve("y''") == "y''"
        assert ODE.resolve("y_11") == "y''"
        assert ODE.jet_name("y", (1, 1, 1)) == "y'''"

    def test_prime_form_requires_single_variable(self):
        assert PDE.resolve("u'") is None

    def test_out_of_range_index(self):
        assert PDE.resolve("u_3") is None
        for index in [(0,), (3,), (1, 3)]:
            with pytest.raises(JetError, match="out of range"):
                PDE.jet_name("u", index)

    def test_unknown_names(self):
        assert PDE.resolve("w_1") is None
        assert PDE.resolve("q") is None
        with pytest.raises(JetError, match="'w' is not a dependent variable"):
            PDE.jet_name("w", (1,))

    def test_negative_order(self):
        with pytest.raises(JetError, match="order must be nonnegative"):
            JetSpace(("x",), ("y",), -1)

    def test_name_validation(self):
        with pytest.raises(JetError, match="prime"):
            JetSpace(("x",), ("y'",), 1)
        with pytest.raises(JetError, match="collides"):
            JetSpace(("x1", "x2"), ("u", "u_1"), 1)
        with pytest.raises(JetError, match="duplicate"):
            JetSpace(("x",), ("x",), 1)
        with pytest.raises(JetError, match="at most 9"):
            JetSpace(tuple(f"x{i}" for i in range(1, 11)), ("u",), 1)

    def test_jet_order_and_enumeration(self):
        e = PDE.expr("u_12 + u_1*u_2")
        assert PDE.jet_order(e) == 2
        assert PDE.jet_names(1) == ["u_1", "u_2"]

    def test_auto_extension_in_parsing(self):
        # names above the declared order resolve anyway
        assert ODE.resolve("y''''") == "y''''"


class TestTotalDerivative:
    def test_product(self):
        assert total_derivative(ODE, ODE.expr("x*y"), 1) == ODE.expr("y + x*y'")

    def test_combination(self):
        got = total_derivative(ODE, ODE.expr("x*y"), 1) \
            - sym("y'") * total_derivative(ODE, ODE.expr("x^2"), 1)
        assert got == ODE.expr("y - x*y'")

    def test_raises_order(self):
        assert total_derivative(PDE, PDE.expr("u_1"), 2) == sym("u_12")

    def test_commutes_random(self):
        rng = random.Random(41)
        names = ["x1", "x2", "u", "u_1", "u_2"]
        for _ in range(40):
            e = random_polynomial(rng, names)
            d12 = total_derivative(PDE, total_derivative(PDE, e, 1), 2)
            d21 = total_derivative(PDE, total_derivative(PDE, e, 2), 1)
            assert equiv(d12, d21)


class TestVectorField:
    def test_rejects_jet_coefficients(self):
        with pytest.raises(JetError, match="non-base"):
            VectorField.parse(ODE, {"y": "y'"})

    def test_rejects_unknown_coordinate(self):
        with pytest.raises(JetError, match="not a base coordinate"):
            VectorField(ODE, {"z": sym("x")})

    def test_zero_coefficients_dropped(self):
        X = VectorField.parse(ODE, {"x": "0", "y": "1"})
        assert set(X.coeffs) == {"y"}

    def test_apply_first_order(self):
        X = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
        assert X.apply_to(ODE.expr("y/x")) == ZERO

    def test_arithmetic(self):
        X = VectorField.parse(ODE, {"x": "x"})
        Y = VectorField.parse(ODE, {"y": "y"})
        Z = X + rat(2) * Y
        assert Z.coeff("x") == sym("x") and Z.coeff("y") == 2 * sym("y")

    def test_sum_over_different_spaces(self):
        with pytest.raises(JetError, match="cannot add fields over different spaces"):
            VectorField.parse(ODE, {"x": "1"}) + VectorField.parse(PDE, {"x1": "1"})


class TestProlong:
    def test_half_scaling(self):
        X2 = VectorField.parse(ODE, {"x": "x", "y": "1/2*y"})
        assert prolong(X2, 1).coeff("y'") == ODE.expr("-1/2*y'")

    def test_full_scaling_three_orders(self):
        sp = JetSpace(("x",), ("y",), 3)
        X2 = VectorField.parse(sp, {"x": "x", "y": "-y"})
        P = prolong(X2, 3)
        assert P.coeff("y'") == sp.expr("-2*y'")
        assert P.coeff("y''") == sp.expr("-3*y''")
        assert P.coeff("y'''") == sp.expr("-4*y'''")

    def test_pde_scaling(self):
        X2 = VectorField.parse(PDE, {"x1": "x1", "x2": "2*x2", "u": "u"})
        P = prolong(X2, 1)
        assert P.coeff("u_1") == ZERO
        assert P.coeff("u_2") == PDE.expr("-u_2")

    def test_order_zero_rejected(self):
        X = VectorField.parse(ODE, {"y": "1"})
        with pytest.raises(JetError):
            prolong(X, 0)

    def test_pure_fiber_translation_is_iterated_total_derivative(self):
        # with no independent-variable motion and base-only coefficient,
        # the extended coefficients are plain total derivatives
        X = VectorField.parse(ODE, {"y": "x^3"})
        P = prolong(X, 2)
        d1 = total_derivative(ODE, ODE.expr("x^3"), 1)
        assert P.coeff("y'") == d1
        assert P.coeff("y''") == total_derivative(ODE, d1, 1)

    def test_multi_index_symmetry(self):
        X2 = VectorField.parse(PDE, {"x1": "x1", "x2": "2*x2", "u": "u"})
        P = prolong(X2, 2)
        # recompute u_12 coefficient through the other split of the index
        eta_2 = P.coeff("u_2")
        xi = {i: X2.coeff(PDE.independent[i - 1]) for i in (1, 2)}
        alt = total_derivative(PDE, eta_2, 1)
        for i in (1, 2):
            alt = alt - total_derivative(PDE, xi[i], 1) * sym(PDE.jet_name("u", tuple(sorted((2, i)))))
        assert equiv(P.coeff("u_12"), alt)

    def test_linearity_random(self):
        rng = random.Random(43)
        for _ in range(25):
            a, b = small_rat(rng), small_rat(rng)
            X = VectorField(PDE, {"x1": random_polynomial(rng, ["x1", "x2", "u"]),
                                  "u": random_polynomial(rng, ["x1", "x2", "u"])})
            Y = VectorField(PDE, {"x2": random_polynomial(rng, ["x1", "x2", "u"]),
                                  "u": random_polynomial(rng, ["x1", "x2", "u"])})
            Z = rat(a) * X + rat(b) * Y
            PZ = prolong(Z, 2)
            PX, PY = prolong(X, 2), prolong(Y, 2)
            for name in PDE.jet_names(2):
                assert equiv(PZ.coeff(name),
                             rat(a) * PX.coeff(name) + rat(b) * PY.coeff(name))


class TestApply:
    def test_translation_invariance(self):
        X = VectorField.parse(PDE, {"u": "1"})
        K = PDE.expr("u_2 - u_1^(-4/3)*u_11")
        assert prolong(X, 2).apply_to(K) == ZERO

    def test_wrong_field_residual(self):
        X = VectorField.parse(ODE, {"y": "x"})
        K = ODE.expr("y'' - (1+x)*y'^2 - y'")
        assert prolong(X, 2).apply_to(K) == ODE.expr("-2*(1+x)*y' - 1")

    def test_constant_annihilated(self):
        X = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
        assert prolong(X, 2).apply_to(rat(7, 3)) == ZERO

    def test_order_cap(self):
        X = VectorField.parse(ODE, {"y": "1"})
        P = prolong(X, 1)
        with pytest.raises(JetError, match="exceeds"):
            P.apply_to(ODE.expr("y''"))
