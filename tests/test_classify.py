"""Point-vs-nonlocal classification across reductions."""

import pytest

from liereduce import (ClassifyError, DESystem, JetSpace, PointTransformation,
                       Pushforward, VectorField, check_point_symmetry, classify_pushforward,
                       gradient_poly,
                       lie_reduce, lift_test, pushforward_field, rat,
                       reduce_ode, reduce_pde, sym)

ODE = JetSpace(("x",), ("y",), 2)
PDE = JetSpace(("x1", "x2"), ("u",), 2)

SCALING_ODE = DESystem.build(ODE, ["x*y^2*y'' + x*y' - y = 0"])
X1 = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
X2 = VectorField.parse(ODE, {"x": "x", "y": "1/2*y"})
CHART1 = PointTransformation.parse(
    ODE, independent={"r": "y/x"}, dependent={"s": "-1/x"}, canonical="s",
    inverse={"x": "-1/s", "y": "-r/s"}, aux={"alpha": "1/(x*y'-y)"})
CHART2 = PointTransformation.parse(
    ODE, independent={"r": "y^2/x"}, dependent={"s": "log(x)"}, canonical="s",
    inverse={"x": "exp(s)", "y": "(r*exp(s))^(1/2)"},
    aux={"alpha": "x/(2*x*y*y'-y^2)"})

POWER_PDE = DESystem.build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
P_X1 = VectorField.parse(PDE, {"u": "1"})
P_CHART = PointTransformation.parse(
    PDE, independent={"r1": "x2/x1^2", "r2": "u/x1"},
    dependent={"s": "log(x1)"}, canonical="s",
    inverse={"x1": "exp(s)", "x2": "r1*exp(2*s)", "u": "r2*exp(s)"},
    aux={"alpha": "-(x1^2*u_2)/(x1*u_1 + 2*x2*u_2 - u)",
         "beta": "x1/(x1*u_1 + 2*x2*u_2 - u)"})


class TestClassifyPushforward:
    def test_point_case(self):
        red = lie_reduce(SCALING_ODE, CHART1)
        got = classify_pushforward(pushforward_field(X2, CHART1), CHART1, red)
        assert got.verdict == "point"

    def test_nonlocal_ode_case(self):
        red = lie_reduce(SCALING_ODE, CHART2)
        got = classify_pushforward(pushforward_field(X1, CHART2), CHART2, red)
        assert got.verdict == "nonlocal"
        assert got.witness == "s"

    def test_witness_is_the_canonical_variable(self):
        # The eliminated variable a sorts before s, but the witness is the
        # chart's canonical coordinate s.
        red = lie_reduce(SCALING_ODE, CHART2)
        pf = pushforward_field(X1, CHART2)
        pf = pf._replace(coeffs={**pf.coeffs, "r": sym("a") * pf.coeffs["r"]})
        got = classify_pushforward(pf, CHART2, red)
        assert (got.verdict, got.witness) == ("nonlocal", "s")

    def test_nonlocal_pde_case(self):
        red = lie_reduce(POWER_PDE, P_CHART)
        got = classify_pushforward(pushforward_field(P_X1, P_CHART), P_CHART, red)
        assert got.verdict == "nonlocal"
        assert got.witness == "s"

    def test_translation_through_own_chart_is_trivially_point(self):
        ident = PointTransformation.parse(
            PDE, independent={"r1": "x1", "r2": "x2"}, dependent={"s": "u"},
            canonical="s", inverse={"x1": "r1", "x2": "r2", "u": "s"},
            aux={"alpha": "u_1", "beta": "u_2"})
        red = lie_reduce(POWER_PDE, ident)
        got = classify_pushforward(pushforward_field(P_X1, ident), ident, red)
        assert got.verdict == "point"
        pf_coords = red.system.space.base_names
        # the translation dies: all coefficients vanish
        from liereduce import ZERO
        pf = pushforward_field(P_X1, ident)
        assert all(pf.coeff(n) == ZERO for n in pf.coords)

    def test_rescaled_field_same_verdict(self):
        red = lie_reduce(SCALING_ODE, CHART2)
        got = classify_pushforward(pushforward_field(rat(3) * X1, CHART2), CHART2, red)
        assert got.verdict == "nonlocal"

    def test_local_coefficients_that_are_no_symmetry(self):
        red = lie_reduce(SCALING_ODE, CHART1)
        pushed = Pushforward(red.system.space.base_names, {"r": sym("r")})
        got = classify_pushforward(pushed, CHART1, red)
        assert (got.verdict, got.criterion) == (
            "inconclusive", "local coefficients but residual does not vanish")
        assert got.witness == "alpha^2*r^(-2)"

    def test_inconclusive_without_inverse(self):
        chart = PointTransformation.parse(
            ODE, independent={"r": "y/x"}, dependent={"s": "-1/x"},
            canonical="s", aux={"alpha": "1/(x*y'-y)"})
        red = lie_reduce(SCALING_ODE, CHART1)
        got = classify_pushforward(pushforward_field(X2, chart), chart, red)
        assert got.verdict == "inconclusive"


class TestLiftTest:
    def test_quadratic_row_blocks_lift(self):
        # The witness is the unmatched monomial, for p = 1 and p = 2 alike.
        for red, coeffs, witness in (
                (reduce_ode(DESystem.build(ODE, ["y'' = (1+x)*y'^2 + y'"])),
                 {"alpha": "alpha*(1+x*alpha)"}, "x*alpha^2"),
                (reduce_pde(DESystem.build(PDE, ["u_12 = 0"]), "u"),
                 {"alpha": "alpha^2"}, "1*alpha^2")):
            got = lift_test(VectorField.parse(red.system.space, coeffs), red)
            assert got.verdict == "nonlocal"
            assert "quadratic" in got.criterion
            assert got.witness == witness

    def test_shared_translation_lifts(self):
        parent = DESystem.build(ODE, ["y'' = y'^2"])
        red = reduce_ode(parent)
        Y = VectorField.parse(red.system.space, {"x": "1"})
        got = lift_test(Y, red)
        assert got.verdict == "point"

    def test_non_polynomial_component_is_nonlocal(self):
        red = reduce_pde(POWER_PDE, "u")
        Y = VectorField.parse(red.system.space, {
            "x1": "x1^2", "alpha": "-3*x1*alpha",
            "beta": "-(3*alpha^(-1/3) + x1*beta)"})
        got = lift_test(Y, red)
        assert got.verdict == "nonlocal"
        assert "polynomial" in got.criterion

    def test_pde_scaling_lifts(self):
        red = reduce_pde(POWER_PDE, "u")
        Y = VectorField.parse(red.system.space,
                              {"x1": "x1", "x2": "2*x2", "beta": "-beta"})
        got = lift_test(Y, red)
        assert got.verdict == "point"

    def test_gradient_dependent_base_component(self):
        parent = DESystem.build(ODE, ["y'' = y'^2"])
        red = reduce_ode(parent)
        # alpha d/dx + alpha^3 d/dalpha is alpha times the flow of
        # alpha' = alpha^2, so a symmetry of it.
        Y = VectorField.parse(red.system.space, {"x": "alpha", "alpha": "alpha^3"})
        assert check_point_symmetry(red.system, Y).is_symmetry
        got = lift_test(Y, red)
        assert (got.verdict, got.criterion, got.witness) == \
            ("nonlocal", "base component depends on a gradient variable", "x")

    def test_unmatched_verdicts(self):
        # Each row: a reduction, a point symmetry of it that does not lift,
        # and the criterion and witness that say why.
        for red, coeffs, criterion, witness in (
                (reduce_ode(DESystem.build(ODE, ["y'' = 0"])), {"x": "alpha"},
                 "base component depends on a gradient variable", "x"),
                (reduce_ode(DESystem.build(ODE, ["y'' = 0"])), {"x": "x^2"},
                 "matching system inconsistent: mixed derivative condition fails", "2*x"),
                (reduce_pde(DESystem.build(PDE, ["u_11 + u_22 = 0"])),
                 {"alpha": "beta", "beta": "-alpha"},
                 "matching system inconsistent: cross term unmatched", "alpha"),
                (reduce_pde(DESystem.build(PDE, ["u_12 = 0"])), {"alpha": "alpha"},
                 "matching system inconsistent: unequal diagonal terms", "0")):
            got = lift_test(VectorField.parse(red.system.space, coeffs), red)
            assert (got.verdict, got.criterion, got.witness) == ("nonlocal", criterion, witness)

    def test_precondition_violation_raises(self):
        parent = DESystem.build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        red = reduce_ode(parent)
        Y = VectorField.parse(red.system.space, {"x": "1"})
        with pytest.raises(ClassifyError, match="not a point symmetry"):
            lift_test(Y, red)

    def test_rescaling_invariance(self):
        parent = DESystem.build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        red = reduce_ode(parent)
        Y = VectorField.parse(red.system.space, {"alpha": "alpha*(1+x*alpha)"})
        assert lift_test(rat(5) * Y, red).verdict == "nonlocal"


class TestGradientPoly:
    def test_splits_by_degree(self):
        a, x = sym("alpha"), sym("x")
        e = x + 2 * a + x * a * a
        got = gradient_poly(e, ["alpha"])
        assert got[(0,)] == x
        assert got[(1,)] == rat(2)
        assert got[(2,)] == x

    def test_non_polynomial_returns_none(self):
        a = sym("alpha")
        from liereduce import power, kernel
        assert gradient_poly(power(a, rat(-1, 3)), ["alpha"]) is None
        assert gradient_poly(kernel("exp", a), ["alpha"]) is None
        assert gradient_poly(power(1 + a, rat(-1)), ["alpha"]) is None
