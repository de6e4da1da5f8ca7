"""Charts: canonical verification, change of variables, push-forwards."""

import copy
import importlib
from fractions import Fraction

import pytest

from liereduce import (ChartError, DESystem, JetSpace, PointTransformation,
                       SingularMapError, VectorField, ZERO, charts, equiv,
                       first_order_jets, free_vars, jet_dictionaries, lie_reduce,
                       parse_expr, pushforward_field, rat, solve_affine, substitute,
                       sym, transform_de, verify_canonical, verify_solution)
from liereduce.corpus import corpus_dir, equation_matches
from liereduce.equiv import echelon
from liereduce.problem import load_problem

# The module itself: the package's ``equiv`` attribute is the function.
equiv_module = importlib.import_module("liereduce.equiv")

ODE = JetSpace(("x",), ("y",), 2)
PDE = JetSpace(("x1", "x2"), ("u",), 2)

SCALING_ODE = DESystem.build(ODE, ["x*y^2*y'' + x*y' - y = 0"])
X1 = VectorField.parse(ODE, {"x": "x^2", "y": "x*y"})
X2 = VectorField.parse(ODE, {"x": "x", "y": "1/2*y"})

CHART1 = PointTransformation.parse(
    ODE, independent={"r": "y/x"}, dependent={"s": "-1/x"}, canonical="s",
    inverse={"x": "-1/s", "y": "-r/s"}, aux={"alpha": "1/(x*y'-y)"})
# The backward solve of this chart pivots on the rational constant 10^-12.
TINY_S = PointTransformation.parse(
    ODE, independent={"r": "x"}, dependent={"s": "y/1000000000000"},
    inverse={"x": "r", "y": "1000000000000*s"})
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
    # Determinants 1/(2^61 - 1), 2^61 - 1 and (2^61 - 1)*(2^89 - 1): exact
    # integer elimination sees each as the nonzero constant it is.
    pytest.param(ODE, {"r": "x/(2^61 - 1)"}, {"s": "y"}, True,
                 id="mersenne-scaled-determinant"),
    pytest.param(ODE, {"r": "x^2/2 + 2^61*x + y"}, {"s": "x^2/2 + x + y"}, True,
                 id="mersenne-determinant"),
    pytest.param(ODE, {"r": "x^2/2 + ((2^61-1)*(2^89-1) + 1)*x + y"},
                 {"s": "x^2/2 + x + y"}, True,
                 id="mersenne-product-determinant"),
    pytest.param(ODE, {"r": "1000000000000*x^2*y"},
                 {"s": "1000000000000000000000000*x^4*y^2 + 1/1000000000000"}, False,
                 id="huge-singular-rational"),
    pytest.param(ODE, {"r": "exp(x)*y"}, {"s": "1000000000000*exp(2*x)*y^2"},
                 False, id="huge-singular-with-kernels"),
    pytest.param(ODE, {"r": "x + y"}, {"s": "x*y"}, True,
                 id="determinant-vanishes-on-a-line"),
    pytest.param(ODE, {"r": "x + y"}, {"s": "x + y + y/1000000000000"}, True,
                 id="nearly-parallel-rational-rows"),
    # exp(x) sends this Jacobian to the float path, whose first sample point
    # is x = -19/23, a pole of 1/(x + 19/23)^2; that point is skipped.
    pytest.param(ODE, {"r": "102*x - 1/(x + 19/23)"}, {"s": "y + exp(x)"}, True,
                 id="first-sample-point-on-a-pole"),
    # sqrt(4*x^2) is rational at every rational sample point, so these are
    # eliminated exactly in Fraction there: floats reject the nearly
    # parallel chart, which is regular.
    pytest.param(ODE, {"r": "sqrt(4*x^2) + y"},
                 {"s": "sqrt(4*x^2) + y + y/1000000000000"}, True,
                 id="nearly-parallel-exact-at-a-point"),
    pytest.param(ODE, {"r": "sqrt(4*x^2) + y"}, {"s": "y"}, True,
                 id="regular-exact-at-a-point"),
    pytest.param(ODE, {"r": "sqrt(4*x^2)*y"}, {"s": "sqrt(4*x^2)*y + 1"}, False,
                 id="singular-exact-at-a-point"),
    pytest.param(*_dense_chart(False), True, id="dense-10-regular"),
    pytest.param(*_dense_chart(True), False, id="dense-10-singular"),
]


class TestPointTransformation:
    @pytest.mark.parametrize("space, independent, dependent, regular", REGULARITY)
    def test_regularity(self, space, independent, dependent, regular, monkeypatch):
        # The sample points are seeded from variable names, so a chart that
        # parses has rendered nothing in the zero test.
        calls = []
        render = equiv_module.render
        monkeypatch.setattr(equiv_module, "render", lambda e: calls.append(e) or render(e))
        if regular:
            PointTransformation.parse(space, independent, dependent)
            assert calls == []
        else:
            with pytest.raises(SingularMapError, match="identically zero"):
                PointTransformation.parse(space, independent, dependent)

    @pytest.mark.parametrize("space, independent, dependent, regular", [
        p for p in REGULARITY if "sqrt(4*x^2)" in str(p.values[1])])
    def test_rational_point_elimination_is_exact(self, space, independent, dependent,
                                                 regular, monkeypatch):
        # At a rational point the Jacobian's entries are integral constants
        # as often as not; they must enter the elimination as Fractions, so
        # that it never divides one int by another into a float.
        calls = []

        def spy(rows, tol=0):
            entries = [v for row in rows for v in row]
            out = echelon(rows, tol)
            calls.append((tol, entries + [v for row in out for v in row]))
            return out

        monkeypatch.setattr(equiv_module, "echelon", spy)
        try:
            PointTransformation.parse(space, independent, dependent)
            singular = False
        except SingularMapError:
            singular = True
        assert singular != regular
        exact = [values for tol, values in calls if tol == 0]
        assert exact and all(type(v) is Fraction for values in exact for v in values)

    def test_first_sample_point_on_a_pole_is_skipped(self, monkeypatch):
        # The row is regular only if the skip is reached: the first point
        # drawn is the pole, and it is unusable.
        calls = []
        sampled = equiv_module._sampled

        def spy(rng, draw, values, witness, needed):
            seen = []
            calls.append(seen)

            def recorded(pt):
                seen.append((pt[0], values(pt)))
                return seen[-1][1]
            return sampled(rng, draw, recorded, witness, needed)

        monkeypatch.setattr(equiv_module, "_sampled", spy)
        row = next(p for p in REGULARITY if p.id == "first-sample-point-on-a-pole")
        PointTransformation.parse(*row.values[:3])
        [seen] = calls
        assert seen[0] == ({"x": Fraction(-19, 23)}, None)
        assert all(v is not None for _, v in seen[1:])

    def test_counts_must_match(self):
        with pytest.raises(ChartError, match="counts"):
            PointTransformation.parse(PDE, independent={"r1": "x1"},
                                      dependent={"s": "u"})

    def test_duplicate_target_names(self):
        with pytest.raises(ChartError, match="duplicate target names"):
            PointTransformation.parse(ODE, independent={"r": "x"}, dependent={"s": "y"},
                                      aux={"r": "y'"})

    def test_system_and_field_over_other_source_coordinates(self):
        chart = PointTransformation.parse(ODE, independent={"r": "x"}, dependent={"s": "y"},
                                          inverse={"x": "r", "y": "s"})
        other = JetSpace(("t",), ("y",), 2)
        with pytest.raises(ChartError, match="system and chart live over different"):
            transform_de(DESystem.build(other, ["y'' = y"]), chart)
        with pytest.raises(ChartError, match="field and chart live over different"):
            pushforward_field(VectorField.parse(other, {"t": "1"}), chart)

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

    def test_forward_map_must_invert_inverse(self):
        # The normal form takes the positive branch, so x = -sqrt(r) passes
        # the inverse check; only the forward check rejects it.
        with pytest.raises(ChartError, match="forward map does not invert source 'x'"):
            PointTransformation.parse(ODE, independent={"r": "x^2"}, dependent={"s": "y"},
                                      inverse={"x": "-sqrt(r)", "y": "s"})

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

    # Systems of order 4 and 5 in one variable, and of order 3 in two: each
    # candidate solves the transformed system exactly when it solves the
    # source one.
    @pytest.mark.parametrize("equation", ["y'''' = 24", "y'''' = y", "y''''' = 0"])
    def test_high_order_ode(self, equation):
        sp = JetSpace(("x",), ("y",), 5)
        sys_ = DESystem.build(sp, [equation])
        chart = PointTransformation.parse(
            sp, independent={"r": "log(x)"}, dependent={"s": "y/x"},
            inverse={"x": "exp(r)", "y": "exp(r)*s"})
        out = transform_de(sys_, chart)
        assert out.order == sys_.order
        x_of_r = {"x": parse_expr("exp(r)")}
        verdicts = set()
        for text in ("x^4", "exp(x)", "sin(x)"):
            s = substitute(parse_expr(f"({text})/x"), x_of_r)
            verdict = verify_solution(sys_, {"y": text})
            assert verify_solution(out, {"s": s}) == verdict, text
            verdicts.add(verdict)
        assert verdicts == {True, False}
        assert substitute(parse_expr("x^3"), x_of_r) == parse_expr("exp(3*r)")

    def test_order_three_pde(self):
        sp = JetSpace(("x", "t"), ("u",), 3)
        sys_ = DESystem.build(sp, ["u_222 = u_1*u_11"])
        chart = PointTransformation.parse(
            sp, independent={"a": "x + t", "b": "x - t"}, dependent={"v": "u"},
            inverse={"x": "(a + b)/2", "t": "(a - b)/2", "u": "v"})
        out = transform_de(sys_, chart)
        assert out.order == 3
        x_t = {"x": parse_expr("(a + b)/2"), "t": parse_expr("(a - b)/2")}
        for text, solves in (("x*t^2", True), ("t^2", True), ("x^4", False),
                             ("exp(x)", False), ("sin(x)", False), ("x*t^3", False)):
            assert verify_solution(sys_, {"u": text}) is solves, text
            assert verify_solution(out, {"v": substitute(parse_expr(text), x_t)}) is solves, text

    def test_tiny_scaling_chart(self):
        sys_ = DESystem.build(ODE, ["y'' = y"])
        chart = PointTransformation.parse(
            ODE, independent={"r": "x/1000000000000"}, dependent={"s": "y"},
            inverse={"x": "1000000000000*r", "y": "s"})
        out = transform_de(sys_, chart)
        assert out.equations == (out.space.expr("s'' - 10^24*s"),)

    def test_tiny_dependent_scaling_chart(self):
        out = transform_de(DESystem.build(ODE, ["y'' = y"]), TINY_S)
        assert out.equations == (out.space.expr("s'' - s"),)

    def test_inverse_required(self):
        chart = PointTransformation.parse(ODE, independent={"r": "y/x"},
                                          dependent={"s": "-1/x"}, canonical="s")
        with pytest.raises(ChartError, match="inverse"):
            transform_de(SCALING_ODE, chart)


def _laplace_chart(p: int) -> PointTransformation:
    """r_i = x_i/x_p, r_p = log x_p, s = u over p independent variables."""
    space = JetSpace(tuple(f"x{i}" for i in range(1, p + 1)), ("u",), 2)
    independent = {f"r{i}": f"x{i}/x{p}" for i in range(1, p)}
    independent[f"r{p}"] = f"log(x{p})"
    inverse = {f"x{i}": f"r{i}*exp(r{p})" for i in range(1, p)}
    inverse[f"x{p}"] = f"exp(r{p})"
    inverse["u"] = "s"
    return PointTransformation.parse(space, independent, {"s": "u"},
                                     canonical="s", inverse=inverse)


class TestJetDictionaries:
    """The dictionary derives the second-order jets it is given and no
    other, each with the expression the full dictionary has for it."""

    @pytest.fixture(params=["log-diffusion", "laplace-p3"])
    def chart(self, request):
        if request.param == "laplace-p3":
            return _laplace_chart(3)
        return load_problem(corpus_dir() / "log-diffusion.prob").charts["canon"]

    def _counted(self, monkeypatch, T, exprs):
        """The dictionary and how many jets of order 2 it derived."""
        calls = []
        inner = charts._mixed_total_derivative
        monkeypatch.setattr(charts, "_mixed_total_derivative",
                            lambda *args: calls.append(args) or inner(*args))
        try:
            return jet_dictionaries(T, exprs), len(calls)
        finally:
            monkeypatch.undo()

    def test_one_jet_asked_one_derived(self, monkeypatch, chart):
        src = chart.source
        every = src.jet_names(2)
        one, n_one = self._counted(monkeypatch, chart, [sym("u_11")])
        full, n_full = self._counted(monkeypatch, chart, [sym(j) for j in every])
        assert n_one == 1
        assert n_full == len(every) - src.p
        assert set(one) == set(src.jet_names(1)) | {"u_11"}
        assert set(full) == set(every)
        assert all(one[j].key() == full[j].key() for j in one)

    def test_first_order_only_when_nothing_of_order_two_is_named(self, monkeypatch, chart):
        got, n = self._counted(monkeypatch, chart, [sym("u_1"), sym("x1")])
        assert n == 0 and set(got) == set(chart.source.jet_names(1))
        # The jets mentioned bound the order: a third-order jet is derived,
        # through its second-order prefix.
        got, n = self._counted(monkeypatch, chart, [sym("u_111")])
        assert n == 2 and set(got) == set(chart.source.jet_names(1)) | {"u_11", "u_111"}

    def test_given_first_order_jets_are_not_solved_again(self, monkeypatch, chart):
        """A chart solves its first-order jets once, whoever asks; an equal
        chart built afresh solves them again, to the same result."""
        solves = []
        inner = charts.solve_affine
        monkeypatch.setattr(charts, "solve_affine",
                            lambda *args: solves.append(args) or inner(*args))
        every = [sym(j) for j in chart.source.jet_names(2)]
        first = jet_dictionaries(chart, every)
        assert jet_dictionaries(chart, every) == first
        assert first_order_jets(chart) is first_order_jets(chart)
        assert len(solves) == 1
        fresh = copy.copy(chart)  # rebuilt through the constructor
        assert fresh == chart
        again = jet_dictionaries(fresh, every)
        assert len(solves) == 2
        assert {j: e.key() for j, e in again.items()} == {j: e.key() for j, e in first.items()}

    def test_a_failed_solve_keeps_nothing(self, monkeypatch, chart):
        def singular(*args):
            raise SingularMapError("refused")

        monkeypatch.setattr(charts, "solve_affine", singular)
        with pytest.raises(SingularMapError):
            first_order_jets(chart)
        monkeypatch.undo()
        _, first = first_order_jets(chart)
        assert set(first) == set(chart.source.jet_names(1))


def test_one_chart_solves_its_first_order_jets_once(monkeypatch):
    """``lie_reduce``, ``pushforward_field`` and ``transform_de`` on one
    chart share one solve of its first-order jets."""
    chart = copy.copy(CHART1)  # a chart no other test has solved
    solves = []
    inner = charts.solve_affine
    monkeypatch.setattr(charts, "solve_affine",
                        lambda *args: solves.append(args) or inner(*args))
    lie_reduce(SCALING_ODE, chart)
    pushforward_field(X2, chart)
    transform_de(SCALING_ODE, chart)
    assert len(solves) == 1


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

    @pytest.mark.parametrize("field, want", [
        ({"x": "1"}, "(1) d/dr"),
        ({"y": "y"}, "(s) d/ds"),
    ], ids=["translation", "scaling"])
    def test_through_tiny_dependent_scaling_chart(self, field, want):
        pf = pushforward_field(VectorField.parse(ODE, field), TINY_S)
        assert not pf.flagged
        assert pf.describe() == want

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
    def test_count_mismatch(self):
        with pytest.raises(ChartError, match="1 equations for 2 unknowns"):
            solve_affine([sym("a") - 1], ["a", "b"])

    def test_small_system(self):
        a, b = sym("a"), sym("b")
        e1 = a + b - sym("x")
        e2 = a - b - 1
        sol = solve_affine([e1, e2], ["a", "b"])
        assert equiv(sol[0], (sym("x") + 1) / 2)
        assert equiv(sol[1], (sym("x") - 1) / 2)

    def test_zero_pivot_candidate_skipped(self):
        # a's first coefficient, sin^2 + cos^2 - 1, is no ZERO node but is
        # zero, so it is never the pivot, though it has the fewest terms.
        a, b = sym("a"), sym("b")
        zero = parse_expr("sin(x)^2 + cos(x)^2 - 1", {"x"})
        big = parse_expr("x^3 + x^2 + x + 1", {"x"})
        sol = solve_affine([zero * a + b - 2, big * a + b - 1], ["a", "b"])
        assert equiv(sol[0], -1 / big)
        assert equiv(sol[1], rat(2))

    def test_singular(self):
        a, b = sym("a"), sym("b")
        with pytest.raises(SingularMapError):
            solve_affine([a + b, 2 * a + 2 * b], ["a", "b"])

    def test_not_affine(self):
        a = sym("a")
        with pytest.raises(ChartError, match="affine"):
            solve_affine([a * a - 1, a], ["a", "b"])
