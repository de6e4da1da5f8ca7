"""DE systems, on-manifold symmetry checks, and solution verification."""

import pytest

from liereduce import (DESystem, JetError, JetSpace, SystemError_, VectorField, equiv,
                       check_point_symmetry, parse_expr, reduce_on_manifold,
                       verify_solution)

from fresh import fresh

ODE = JetSpace(("x",), ("y",), 2)
PDE = JetSpace(("x1", "x2"), ("u",), 2)


def build(space, eqs):
    return DESystem.build(space, eqs)


class TestSolvedForms:
    def test_basic(self):
        sys_ = build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        assert sys_.leads == ("y''",)
        assert equiv(sys_.rhss[0], ODE.expr("(1+x)*y'^2 + y'"))

    def test_solves_highest_order(self):
        sys_ = build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        assert sys_.leads == ("u_11",)
        assert sys_.rhss[0] == PDE.expr("u_1^(4/3)*u_2")

    def test_distinct_leads(self):
        sp = JetSpace(("x1", "x2"), ("alpha", "beta"), 1)
        sys_ = build(sp, ["beta = alpha^(-4/3)*alpha_1", "alpha_2 = beta_1"])
        assert sys_.leads == ("alpha_1", "alpha_2")

    def test_backtracks_when_leads_collide(self):
        # Both equations solve first for u'; the first takes v' instead.
        sys_ = build(JetSpace(("x",), ("u", "v"), 1), ["u' + v'", "u' - x"])
        assert sys_.leads == ("v'", "u'")

    def test_not_affine_raises(self):
        with pytest.raises(SystemError_, match="affine"):
            build(ODE, ["y''^2 + y = 0"])

    def test_needs_an_equation(self):
        with pytest.raises(SystemError_, match="at least one equation"):
            build(ODE, [])

    def test_substituting_solved_form_vanishes(self):
        sys_ = build(ODE, ["x*y^2*y'' + x*y' - y = 0"])
        from liereduce import substitute, is_zero
        assert is_zero(substitute(sys_.equations[0], {sys_.leads[0]: sys_.rhss[0]}))

    def test_build_makes_no_zero_test(self, monkeypatch):
        # A solved form satisfies its equation by construction.
        def refuse(e):
            raise AssertionError("DESystem.build ran a zero test")
        monkeypatch.setattr("liereduce.systems.is_zero", refuse)
        sys_ = build(ODE, ["x*y^2*y'' + x*y' - y = 0"])
        assert sys_.leads == ("y''",)


class TestCheckPointSymmetry:
    def test_field_over_other_base_coordinates(self):
        sys_ = build(ODE, ["y'' = 0"])
        with pytest.raises(JetError, match="field and system live over different base"):
            check_point_symmetry(sys_, VectorField.parse(PDE, {"x1": "1"}))

    def test_translation(self):
        sys_ = build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        X = VectorField.parse(ODE, {"y": "1"})
        assert check_point_symmetry(sys_, X).verdict == "symmetry"

    def test_all_five_power_law_fields(self):
        sys_ = build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        fields = [
            {"u": "1"},
            {"x1": "x1", "x2": "2*x2", "u": "u"},
            {"x1": "1"},
            {"x2": "1"},
            {"x1": "2*x1", "u": "-u"},
        ]
        for coeffs in fields:
            X = VectorField.parse(PDE, coeffs)
            assert check_point_symmetry(sys_, X).verdict == "symmetry"

    def test_wrong_field_with_residual(self):
        sys_ = build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        X = VectorField.parse(ODE, {"y": "x"})
        rep = check_point_symmetry(sys_, X)
        assert rep.verdict == "not-symmetry"
        assert equiv(rep.residuals[0], ODE.expr("-2*(1+x)*y' - 1"))

    def test_verdict_invariant_under_nonzero_factor(self):
        base = "y'' - (1+x)*y'^2 - y'"
        X = VectorField.parse(ODE, {"y": "1"})
        W = VectorField.parse(ODE, {"y": "x"})
        for factor in ["(1+x^2)", "exp(x)", "-3"]:
            scaled = build(ODE, [f"{factor}*({base}) = 0"])
            assert check_point_symmetry(scaled, X).verdict == "symmetry"
            assert check_point_symmetry(scaled, W).verdict == "not-symmetry"

    def test_derivative_consequence_of_a_solved_form(self):
        # The prolonged field leaves -2*u_12 on u_11 = 0, which vanishes only
        # through the total derivative D_1 of the solved form u_2 = 0.
        sys_ = build(PDE, ["u_2 = 0", "u_11 = 0"])
        rep = check_point_symmetry(sys_, VectorField.parse(PDE, {"x2": "x1"}))
        assert rep.verdict == "symmetry"
        assert reduce_on_manifold(sys_, PDE.expr("u_12")) == (PDE.expr("0"), True)

    def test_reduction_on_the_manifold_refuses_a_cycle(self):
        # u' = v' and v' = u' substitute into each other: reducing u', or
        # u' + v', reaches a jet still being reduced.
        sp = JetSpace(("x",), ("u", "v"), 1)
        sys_ = build(sp, ["u' - v'", "v' - u'"])
        for text in ["u'", "u' + v'"]:
            assert reduce_on_manifold(sys_, parse_expr(text, sp)) == (parse_expr(text, sp), False)
        with pytest.raises(SystemError_, match="cycle among the solved forms u' = v', v' = u'"):
            check_point_symmetry(sys_, VectorField.parse(sp, {"u": "u"}))
        # A residual free of principal jets needs no reduction.
        assert check_point_symmetry(sys_, VectorField.parse(sp, {"x": "1"})).is_symmetry
        # The message quotes at most 80 characters of a long solved form.
        sys_ = build(sp, ["u' - v' + 3^300*x", "v' - u'"])
        with pytest.raises(SystemError_) as exc:
            check_point_symmetry(sys_, VectorField.parse(sp, {"u": "u"}))
        message = str(exc.value)
        assert message.startswith("residual u' meets a cycle among the solved forms u' = v' - ")
        assert message.endswith("...") and len(message) <= 200

    def test_right_hand_side_above_its_lead_is_refused(self):
        # A hand-built solved form u' = u'' would make every u^(k) principal;
        # the reduction refuses it instead of recursing without end.
        sp = "JetSpace(('x',), ('u',), 2)"
        code = (f"check_point_symmetry(DESystem({sp}, ({sp}.expr(\"u' - u''\"),), (\"u'\",), "
                f"({sp}.expr(\"u''\"),)), VectorField.parse({sp}, {{'u': 'u'}}))")
        assert fresh(code) == ("SystemError_ the solved form for u' has a right-hand "
                               "side of higher order than its lead")

    def test_u_free_equations_admit_u_translation(self):
        X = VectorField.parse(PDE, {"u": "1"})
        for eq in ["u_2 - u_1^2 - x1*u_11", "u_11 + u_22 - exp(x1)*u_1"]:
            sys_ = build(PDE, [eq])
            assert check_point_symmetry(sys_, X).verdict == "symmetry"

    def test_gradient_system_inherited_scaling(self):
        sp = JetSpace(("x1", "x2"), ("alpha", "beta"), 1)
        sys_ = build(sp, ["beta = alpha^(-4/3)*alpha_1", "alpha_2 = beta_1"])
        X = VectorField.parse(sp, {"x1": "x1", "x2": "2*x2", "beta": "-beta"})
        assert check_point_symmetry(sys_, X).verdict == "symmetry"


class TestVerifySolution:
    def test_unknown_or_missing_variable(self):
        sys_ = build(JetSpace(("x",), ("y", "z"), 1), ["y' = z"])
        with pytest.raises(SystemError_, match="'w' is not a dependent variable"):
            verify_solution(sys_, {"w": "x"})
        with pytest.raises(SystemError_, match="no candidate supplied for 'z'"):
            verify_solution(sys_, {"y": "x"})

    def test_bernoulli_particular(self):
        sp = JetSpace(("x",), ("alpha",), 1)
        sys_ = build(sp, ["alpha' = (1+x)*alpha^2 + alpha"])
        assert verify_solution(sys_, {"alpha": "1/(exp(-x)-x)"})
        assert verify_solution(sys_, {"alpha": "-1/x"})
        assert not verify_solution(sys_, {"alpha": "x"})

    def test_parent_logarithm(self):
        sys_ = build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        assert verify_solution(sys_, {"y": "-log(x)"})

    def test_pde_pair(self):
        sys_ = build(PDE, ["u_11 - u_2 + exp(x2)*u_1^2 = 0"])
        assert verify_solution(sys_, {"u": "x1 + exp(x2)"})
        assert verify_solution(sys_, {"u": "1/4*(2-x1^2)*exp(-x2)"})

    def test_translated_candidate_also_solves(self):
        # an autonomous equation admits x-translation; shifted solutions pass
        aut = build(ODE, ["y'' = y'^2"])
        X = VectorField.parse(ODE, {"x": "1"})
        assert check_point_symmetry(aut, X).verdict == "symmetry"
        assert verify_solution(aut, {"y": "-log(x)"})
        assert verify_solution(aut, {"y": "-log(x + 2)"})

    def test_rejects_jet_in_candidate(self):
        sys_ = build(ODE, ["y'' = y'^2"])
        with pytest.raises(SystemError_, match="mentions"):
            verify_solution(sys_, {"y": "y' + x"})

    def test_parameter_allowed(self):
        sp = JetSpace(("x",), ("y",), 2, params=("C",))
        sys_ = DESystem.build(sp, ["y'' = y'"])
        assert verify_solution(sys_, {"y": "C*exp(x)"})
