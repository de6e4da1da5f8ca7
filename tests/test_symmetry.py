"""DE systems, on-manifold symmetry checks, and solution verification."""

import pytest

from liereduce import (DESystem, JetSpace, SystemError_, VectorField, equiv,
                       check_point_symmetry, verify_solution)

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

    def test_not_affine_raises(self):
        with pytest.raises(SystemError_, match="affine"):
            build(ODE, ["y''^2 + y = 0"])

    def test_substituting_solved_form_vanishes(self):
        sys_ = build(ODE, ["x*y^2*y'' + x*y' - y = 0"])
        from liereduce import substitute, is_zero
        assert is_zero(substitute(sys_.equations[0], {sys_.leads[0]: sys_.rhss[0]}))


class TestCheckPointSymmetry:
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
