"""Charts: canonical verification, change of variables, push-forwards."""

from fractions import Fraction

import pytest

from liereduce import (ChartError, DESystem, JetSpace, PointTransformation,
                       SingularMapError, VectorField, ZERO, equiv, free_vars,
                       parse_expr, pushforward_field, rat, solve_affine, sym,
                       transform_de, verify_canonical)
from liereduce.corpus import equation_matches

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


def _dense_chart(singular: bool):
    """t_i = b_i + sum_j c_ij b_j^2 over 10 base coordinates; a singular
    chart replaces its middle target by a combination of the others."""
    base = [f"x{i}" for i in range(1, 10)] + ["u"]
    rows = [b + "".join(f" + ({(-1) ** (i + j) * (1 + i * j % 7)}/{1 + (i + j) % 3})*{c}^2"
                        for j, c in enumerate(base))
            for i, b in enumerate(base)]
    if singular:
        rows[5] = " + ".join(f"({1 + i % 4}/{2 + i % 3})*({rows[i]})"
                             for i in range(10) if i != 5)
    space = JetSpace(tuple(base[:-1]), ("u",), 1)
    return (space, {f"t{i}": r for i, r in enumerate(rows[:-1], start=1)},
            {"s": rows[-1]})


REGULARITY = [
    pytest.param(ODE, {"r": "x/1000000000000"}, {"s": "y"}, True,
                 id="tiny-rational-determinant"),
    pytest.param(ODE, {"r": "exp(x)/1000000000000"}, {"s": "y"}, True,
                 id="tiny-float-determinant"),
    pytest.param(ODE, {"r": "exp(x)*y"}, {"s": "1000000000000*exp(2*x)*y^2"},
                 False, id="huge-singular-with-kernels"),
    pytest.param(ODE, {"r": "x + y"}, {"s": "x*y"}, True,
                 id="determinant-vanishes-on-a-line"),
    pytest.param(ODE, {"r": "x + y"}, {"s": "x + y + y/1000000000000"}, True,
                 id="nearly-parallel-rational-rows"),
    pytest.param(*_dense_chart(False), True, id="dense-10-regular"),
    pytest.param(*_dense_chart(True), False, id="dense-10-singular"),
]


class TestPointTransformation:
    @pytest.mark.parametrize("space, independent, dependent, regular", REGULARITY)
    def test_regularity(self, space, independent, dependent, regular):
        if regular:
            PointTransformation.parse(space, independent, dependent)
        else:
            with pytest.raises(SingularMapError, match="identically zero"):
                PointTransformation.parse(space, independent, dependent)

    def test_counts_must_match(self):
        with pytest.raises(ChartError, match="counts"):
            PointTransformation.parse(PDE, independent={"r1": "x1"},
                                      dependent={"s": "u"})

    def test_name_collision(self):
        with pytest.raises(ChartError, match="collide"):
            PointTransformation.parse(ODE, independent={"x": "y/x"},
                                      dependent={"s": "-1/x"})

    def test_singular_jacobian(self):
        with pytest.raises(SingularMapError):
            PointTransformation.parse(ODE, independent={"r": "x"},
                                      dependent={"s": "2*x"})

    def test_bad_inverse_detected(self):
        with pytest.raises(ChartError, match="invert"):
            PointTransformation.parse(
                ODE, independent={"r": "y/x"}, dependent={"s": "-1/x"},
                inverse={"x": "s", "y": "r"})

    def test_jet_coordinates_rejected_in_targets(self):
        with pytest.raises(ChartError, match="non-base"):
            PointTransformation.parse(ODE, independent={"r": "y'"},
                                      dependent={"s": "x"})


class TestVerifyCanonical:
    def test_projective_chart(self):
        assert verify_canonical(X1, CHART1)

    def test_scaling_chart(self):
        assert verify_canonical(X2, CHART2)

    def test_fiber_exponential_chart(self):
        Xe = VectorField.parse(PDE, {"u": "exp(x2)*u"})
        chart = PointTransformation.parse(
            PDE, independent={"r1": "x1", "r2": "x2"},
            dependent={"s": "exp(-x2)*log(u)"}, canonical="s",
            inverse={"x1": "r1", "x2": "r2", "u": "exp(exp(r2)*s)"})
        assert verify_canonical(Xe, chart)

    def test_hodograph_chart(self):
        sp3 = JetSpace(("x",), ("y",), 3)
        Xt = VectorField.parse(sp3, {"x": "1"})
        hodo = PointTransformation.parse(
            sp3, independent={"r": "y"}, dependent={"s": "x"}, canonical="s",
            inverse={"x": "s", "y": "r"})
        assert verify_canonical(Xt, hodo)

    def test_wrong_pair_fails(self):
        assert not verify_canonical(X2, CHART1)

    def test_needs_canonical_designation(self):
        T = PointTransformation.parse(ODE, independent={"r": "y/x"},
                                      dependent={"s": "-1/x"})
        with pytest.raises(ChartError, match="canonical"):
            verify_canonical(X1, T)


class TestTransformDE:
    def test_projective_chart_result(self):
        out = transform_de(SCALING_ODE, CHART1)
        expected = out.space.expr("r^2*s'' - s'^2")
        assert equation_matches(out.equations[0], expected)

    def test_cubic_slope_chart_result(self):
        out = transform_de(SCALING_ODE, CHART2)
        expected = out.space.expr("2*r*s'' + r*(r+2)*s'^3 - 2*s'^2 + s'")
        assert equation_matches(out.equations[0], expected)

    def test_no_undifferentiated_canonical_coordinate(self):
        for chart in (CHART1, CHART2):
            out = transform_de(SCALING_ODE, chart)
            for eq in out.equations:
                assert "s" not in free_vars(eq)

    def test_log_source_pde(self):
        pde = DESystem.build(PDE, ["u_11 - u_2 + u*log(u) = 0"])
        chart = PointTransformation.parse(
            PDE, independent={"r1": "x1", "r2": "x2"},
            dependent={"s": "exp(-x2)*log(u)"}, canonical="s",
            inverse={"x1": "r1", "x2": "r2", "u": "exp(exp(r2)*s)"})
        out = transform_de(pde, chart)
        expected = out.space.expr("s_11 - s_2 + exp(r2)*s_1^2")
        assert equation_matches(out.equations[0], expected)

    def test_identity_chart_keeps_equation(self):
        chart = PointTransformation.parse(
            ODE, independent={"X": "x"}, dependent={"Y": "y"},
            inverse={"x": "X", "y": "Y"})
        sys_ = DESystem.build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        out = transform_de(sys_, chart)
        renamed = out.space.expr("Y'' - (1+X)*Y'^2 - Y'")
        assert equation_matches(out.equations[0], renamed)

    def test_round_trip_through_inverse_chart(self):
        out = transform_de(SCALING_ODE, CHART1)
        back = PointTransformation.parse(
            out.space, independent={"x": "-1/s"}, dependent={"y": "-r/s"},
            inverse={"r": "y/x", "s": "-1/x"})
        again = transform_de(out, back)
        assert equation_matches(again.equations[0], SCALING_ODE.equations[0])

    def test_order_cap(self):
        sp4 = JetSpace(("x",), ("y",), 4)
        sys_ = DESystem.build(sp4, ["y'''' = y"])
        chart = PointTransformation.parse(
            sp4, independent={"r": "x"}, dependent={"s": "y"},
            inverse={"x": "r", "y": "s"})
        with pytest.raises(ChartError, match="cap"):
            transform_de(sys_, chart)

    def test_tiny_scaling_chart(self):
        sys_ = DESystem.build(ODE, ["y'' = y"])
        chart = PointTransformation.parse(
            ODE, independent={"r": "x/1000000000000"}, dependent={"s": "y"},
            inverse={"x": "1000000000000*r", "y": "s"})
        out = transform_de(sys_, chart)
        assert out.equations == (out.space.expr("s'' - 10^24*s"),)

    def test_inverse_required(self):
        chart = PointTransformation.parse(ODE, independent={"r": "y/x"},
                                          dependent={"s": "-1/x"}, canonical="s")
        with pytest.raises(ChartError, match="inverse"):
            transform_de(SCALING_ODE, chart)


class TestPushforward:
    def test_scaling_through_projective_chart(self):
        pf = pushforward_field(X2, CHART1)
        assert not pf.flagged
        assert pf.coeff("r") == parse_expr("-1/2*r", {"r"})
        assert pf.coeff("alpha") == parse_expr("-1/2*alpha", {"alpha"})
        assert pf.suggested_scale == Fraction(-2)

    def test_projective_through_scaling_chart(self):
        pf = pushforward_field(X1, CHART2)
        vocab = {"r", "s", "alpha"}
        assert equiv(pf.coeff("r"), parse_expr("r*exp(s)", vocab))
        assert equiv(pf.coeff("alpha"), parse_expr("-r*exp(s)*alpha^2", vocab))

    def test_translation_through_power_law_chart(self):
        chart = PointTransformation.parse(
            PDE, independent={"r1": "x2/x1^2", "r2": "u/x1"},
            dependent={"s": "log(x1)"}, canonical="s",
            inverse={"x1": "exp(s)", "x2": "r1*exp(2*s)", "u": "r2*exp(s)"},
            aux={"alpha": "-(x1^2*u_2)/(x1*u_1 + 2*x2*u_2 - u)",
                 "beta": "x1/(x1*u_1 + 2*x2*u_2 - u)"})
        pf = pushforward_field(VectorField.parse(PDE, {"u": "1"}), chart)
        vocab = {"r1", "r2", "s", "alpha", "beta"}
        assert pf.coeff("r1") == ZERO
        assert equiv(pf.coeff("r2"), parse_expr("exp(-s)", vocab))
        assert equiv(pf.coeff("alpha"), parse_expr("exp(-s)*alpha*beta", vocab))
        assert equiv(pf.coeff("beta"), parse_expr("exp(-s)*beta^2", vocab))

    def test_identity_map_returns_own_coefficients(self):
        chart = PointTransformation.parse(
            ODE, independent={"X": "x"}, dependent={"Y": "y"},
            inverse={"x": "X", "y": "Y"})
        pf = pushforward_field(X2, chart)
        assert pf.coords == ("X", "Y")
        assert pf.coeff("X") == sym("X")
        assert pf.coeff("Y") == parse_expr("1/2*Y", {"Y"})

    def test_scaling_commutes_with_rational_multiple(self):
        pf = pushforward_field(rat(3) * X2, CHART1)
        base = pushforward_field(X2, CHART1)
        for n in pf.coords:
            assert pf.coeff(n) == 3 * base.coeff(n)

    def test_without_inverse_flagged_raw(self):
        chart = PointTransformation.parse(
            ODE, independent={"r": "y^2/x"}, dependent={"s": "log(x)"},
            canonical="s", aux={"alpha": "x/(2*x*y*y'-y^2)"})
        pf = pushforward_field(X1, chart)
        assert pf.flagged
        assert "x" in pf.residual_vars or "y" in pf.residual_vars
        # raw coefficients are the prolonged action on the definitions
        assert equiv(pf.coeffs["r"], ODE.expr("y^2"))

    @pytest.mark.parametrize("inverse, want", [
        (None, "(1) d/dr + (2*y) d/ds + (2*x*y') d/dalpha"),
        ({"x": "exp(r)", "y": "s"}, "(1) d/dr + (2*s) d/ds + (2*alpha) d/dalpha"),
    ], ids=["without-inverse", "with-inverse"])
    def test_aux_bound_through_log_chart(self, inverse, want):
        chart = PointTransformation.parse(
            ODE, independent={"r": "log(x)"}, dependent={"s": "y"},
            inverse=inverse, aux={"alpha": "x*y'"})
        pf = pushforward_field(VectorField.parse(ODE, {"x": "x", "y": "2*y"}), chart)
        assert pf.describe() == want
        assert pf.flagged == (inverse is None)
        assert pf.residual_vars == (() if inverse else ("y",))

    def test_wrong_aux_definition_rejected(self):
        chart = PointTransformation.parse(
            ODE, independent={"r": "y/x"}, dependent={"s": "-1/x"}, canonical="s",
            inverse={"x": "-1/s", "y": "-r/s"}, aux={"alpha": "y'"})
        with pytest.raises(ChartError, match="auxiliary 'alpha' does not match"):
            pushforward_field(X2, chart)


class TestSolveAffine:
    def test_small_system(self):
        a, b = sym("a"), sym("b")
        e1 = a + b - sym("x")
        e2 = a - b - 1
        sol = solve_affine([e1, e2], ["a", "b"])
        assert equiv(sol[0], (sym("x") + 1) / 2)
        assert equiv(sol[1], (sym("x") - 1) / 2)

    def test_singular(self):
        a, b = sym("a"), sym("b")
        with pytest.raises(SingularMapError):
            solve_affine([a + b, 2 * a + 2 * b], ["a", "b"])

    def test_not_affine(self):
        a = sym("a")
        with pytest.raises(ChartError, match="affine"):
            solve_affine([a * a - 1, a], ["a", "b"])
