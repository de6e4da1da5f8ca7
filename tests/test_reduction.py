"""Reduced systems: order reduction, integrability conditions, connections."""

import random

import pytest

from liereduce import (DESystem, JetSpace, PointTransformation, ReductionError,
                       VectorField, check_point_symmetry, diff, free_vars,
                       lie_reduce, parse_expr, reduce_ode, reduce_pde, render,
                       substitute, sym, verify_connection, verify_solution)
from liereduce.corpus import equation_matches, systems_match
from genexpr import random_polynomial

ODE = JetSpace(("x",), ("y",), 2)
PDE = JetSpace(("x1", "x2"), ("u",), 2)


def reduce_ode_both(sys_, target=None, aux_name=None):
    """reduce_ode, which is the gradient reduction with one independent
    variable: reduce_pde must give the same system or the same error."""
    aux = [aux_name] if aux_name else None
    try:
        red = reduce_ode(sys_, target, aux_name)
    except ReductionError as exc:
        with pytest.raises(ReductionError) as again:
            reduce_pde(sys_, target, aux)
        assert str(again.value) == str(exc)
        raise
    assert reduce_pde(sys_, target, aux) == red
    return red


class TestReduceOde:
    def test_needs_one_independent_variable(self):
        sys_ = DESystem.build(PDE, ["u_11 = u_2"])
        with pytest.raises(ReductionError, match="reduce-ode needs exactly one independent"):
            reduce_ode(sys_)

    def test_bernoulli(self):
        sys_ = DESystem.build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        red = reduce_ode_both(sys_)
        rsp = red.system.space
        assert equation_matches(red.system.equations[0],
                                rsp.expr("alpha' - (1+x)*alpha^2 - alpha"))
        assert red.system.space.order == 1
        assert red.connection.eliminated == "y"
        assert dict(red.connection.aux_defs) == {"alpha": sym("y'")}

    def test_third_order(self):
        sp = JetSpace(("x",), ("y",), 3)
        sys_ = DESystem.build(sp, ["2*y'*y''' - 6*y''^2 + x*y'^2*y'' = 0"])
        red = reduce_ode_both(sys_)
        rsp = red.system.space
        assert equation_matches(
            red.system.equations[0],
            rsp.expr("2*alpha*alpha'' - 6*alpha'^2 + x*alpha^2*alpha'"))
        assert red.system.space.order == sp.order - 1

    def test_separable(self):
        sp = JetSpace(("r",), ("s",), 2)
        sys_ = DESystem.build(sp, ["r^2*s'' - s'^2 = 0"])
        red = reduce_ode_both(sys_)
        assert equation_matches(red.system.equations[0],
                                red.system.space.expr("r^2*alpha' - alpha^2"))

    def test_first_order_gives_algebraic(self):
        sp = JetSpace(("R",), ("S",), 1)
        sys_ = DESystem.build(sp, ["1 + R*(1-R)*S' = 0"])
        red = reduce_ode_both(sys_, aux_name="omega")
        assert red.system.space.order == 0
        assert equation_matches(red.system.equations[0],
                                parse_expr("1 + R*(1-R)*omega", {"R", "omega"}))

    def test_algebraic_system_has_no_solved_forms(self):
        # Reducing y leaves an algebraic system in alpha and z, which z's
        # translation leaves invariant and which cannot be reduced again.
        sys_ = DESystem.build(JetSpace(("x",), ("y", "z"), 1), ["y' = x"])
        red = reduce_pde(sys_, "y")
        assert red.system.space.dependent == ("alpha", "z")
        assert red.system.order == 0
        assert (red.system.leads, red.system.rhss) == ((), ())
        assert verify_solution(red.system, {"alpha": "x"})
        Z = VectorField.parse(red.system.space, {"z": "1"})
        assert check_point_symmetry(red.system, Z).is_symmetry
        with pytest.raises(ReductionError, match="nothing to reduce: system has order zero"):
            reduce_pde(red.system, "z")
        with pytest.raises(ReductionError, match="no candidate supplied for 'y'"):
            verify_connection(sys_, red, parent_solution={"z": "x"})

    def test_undifferentiated_target_rejected(self):
        sys_ = DESystem.build(ODE, ["y'' = y"])
        with pytest.raises(ReductionError, match="undifferentiated"):
            reduce_ode_both(sys_)

    def test_aux_name_clash(self):
        sys_ = DESystem.build(ODE, ["y'' = y'"])
        with pytest.raises(ReductionError, match="collides"):
            reduce_ode_both(sys_, aux_name="x")

    def test_random_round_trip(self):
        # a prescribed slope solves the parent iff it solves the reduction
        rng = random.Random(59)
        from liereduce import verify_solution
        for _ in range(20):
            P = random_polynomial(rng, ["x"], terms=3, degree=3)
            dP = diff(P, "x")
            sys_ = DESystem.build(ODE, [sym("y''") - dP])
            before = substitute(sys_.equations[0], {"y''": dP, "y'": P})
            assert before == parse_expr("0", set())
            red = reduce_ode_both(sys_)
            assert verify_solution(red.system, {"alpha": P})


class TestReducePde:
    def test_translated_log_diffusion(self):
        sys_ = DESystem.build(PDE, ["u_11 - u_2 + exp(x2)*u_1^2 = 0"])
        red = reduce_pde(sys_, "u")
        rsp = red.system.space
        assert systems_match(red.system, [
            rsp.expr("alpha_1 - beta + exp(x2)*alpha^2"),
            rsp.expr("alpha_2 - beta_1"),
        ])
        assert red.roles == ("reduced", "integrability")
        assert red.integrability_count == 1

    def test_power_law(self):
        sys_ = DESystem.build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        red = reduce_pde(sys_, "u")
        rsp = red.system.space
        assert systems_match(red.system, [
            rsp.expr("beta - alpha^(-4/3)*alpha_1"),
            rsp.expr("alpha_2 - beta_1"),
        ])

    def test_three_variables_curl_count(self):
        sp = JetSpace(("x1", "x2", "x3"), ("u",), 2)
        sys_ = DESystem.build(sp, ["u_11 + u_22 + u_33 = 0"])
        red = reduce_pde(sys_, "u")
        assert red.integrability_count == 3
        assert len(red.system.equations) == 4

    def test_five_variables_pairwise_count(self):
        sp = JetSpace(("x1", "x2", "x3", "x4", "x5"), ("u",), 2)
        sys_ = DESystem.build(sp, ["u_11 + u_22 + u_33 + u_44 + u_55 = 0"])
        red = reduce_pde(sys_, "u")
        assert red.integrability_count == 10

    def test_mixed_derivative_lexicographic_rewrite(self):
        sys_ = DESystem.build(PDE, ["u_12 - u_1 = 0"])
        red = reduce_pde(sys_, "u")
        # the mixed derivative goes through the first gradient component
        assert red.system.equations[0] == red.system.space.expr("alpha_2 - alpha")

    def test_unknown_target(self):
        sys_ = DESystem.build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        with pytest.raises(ReductionError, match="'w' is not a dependent variable"):
            reduce_pde(sys_, "w")

    def test_eliminated_variable_absent(self):
        sys_ = DESystem.build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        red = reduce_pde(sys_, "u")
        for eq in red.system.equations:
            assert "u" not in free_vars(eq)

    def test_other_dependents_untouched(self):
        sp = JetSpace(("x1", "x2"), ("v", "w"), 2)
        sys_ = DESystem.build(sp, ["v_11 - w_2 = 0", "w_11 - v_2 = 0"])
        red = reduce_pde(sys_, "v", aux_names=["p", "q"])
        assert set(red.system.space.dependent) == {"p", "q", "w"}
        got = {render(e) for e in red.system.equations}
        assert any("w_2" in s for s in got)
        assert red.system.space.order == red.system.order == 2

    def test_order_drop(self):
        sys_ = DESystem.build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        red = reduce_pde(sys_, "u")
        assert red.system.space.order == sys_.order - 1


class TestPushedSymmetryIsSymmetryOfReduction:
    def test_scaling_through_translation_chart(self):
        sp = JetSpace(("x",), ("y",), 3)
        sys_ = DESystem.build(sp, ["2*y'*y''' - 6*y''^2 + x*y'^2*y'' = 0"])
        red = reduce_ode(sys_)
        Y = VectorField.parse(red.system.space, {"x": "x", "alpha": "-2*alpha"})
        assert check_point_symmetry(red.system, Y).verdict == "symmetry"

    def test_pde_scaling(self):
        sys_ = DESystem.build(PDE, ["u_2 = u_1^(-4/3)*u_11"])
        red = reduce_pde(sys_, "u")
        Y = VectorField.parse(red.system.space,
                              {"x1": "x1", "x2": "2*x2", "beta": "-beta"})
        assert check_point_symmetry(red.system, Y).verdict == "symmetry"


class TestLieReduceChains:
    def test_algebraic_chain(self):
        sp = JetSpace(("r",), ("alpha",), 1)
        sys_ = DESystem.build(sp, ["r^2*alpha' - alpha^2 = 0"])
        chart = PointTransformation.parse(
            sp, independent={"R": "alpha/r"}, dependent={"S": "log(r)"},
            canonical="S", inverse={"r": "exp(S)", "alpha": "R*exp(S)"},
            aux={"omega": "r/(r*alpha' - alpha)"})
        red = lie_reduce(sys_, chart)
        assert red.system.space.order == 0
        assert equation_matches(red.system.equations[0],
                                parse_expr("1 + R*(1-R)*omega", {"R", "omega"}))

    def test_boundary_layer_chain(self):
        sp = JetSpace(("x",), ("alpha",), 2)
        sys_ = DESystem.build(sp, ["2*alpha*alpha'' - 6*alpha'^2 + x*alpha^2*alpha' = 0"])
        chart = PointTransformation.parse(
            sp, independent={"r": "x^2*alpha"}, dependent={"s": "log(x)"},
            canonical="s", inverse={"x": "exp(s)", "alpha": "r*exp(-2*s)"},
            aux={"omega": "1/(2*x^2*alpha + x^3*alpha')"})
        red = lie_reduce(sys_, chart)
        vocab = {"r", "omega", "omega'"}
        target = parse_expr(
            "2*r*omega' + 2*r^2*(r+6)*omega^3 - r*(r+14)*omega^2 + 6*omega", vocab)
        assert equation_matches(red.system.equations[0], target)


class TestVerifyConnection:
    def setup_method(self):
        self.parent = DESystem.build(ODE, ["y'' = (1+x)*y'^2 + y'"])
        self.red = reduce_ode(self.parent)

    def test_parent_direction(self):
        assert verify_connection(self.parent, self.red,
                                 parent_solution={"y": "-log(x)"})

    def test_reduced_with_antiderivative(self):
        assert verify_connection(self.parent, self.red,
                                 reduced_solution={"alpha": "-1/x"},
                                 antiderivative="-log(x)")

    def test_reduced_only(self):
        assert verify_connection(self.parent, self.red,
                                 reduced_solution={"alpha": "1/(exp(-x)-x)"})

    def test_reduced_solution_of_another_equation_fails(self):
        assert not verify_connection(self.parent, self.red, reduced_solution={"alpha": "x"})

    def test_wrong_antiderivative_fails(self):
        assert not verify_connection(self.parent, self.red,
                                     reduced_solution={"alpha": "-1/x"},
                                     antiderivative="x^2")

    def test_pde_pair_with_antiderivative(self):
        parent = DESystem.build(PDE, ["u_11 - u_2 + exp(x2)*u_1^2 = 0"])
        red = reduce_pde(parent, "u")
        assert verify_connection(
            parent, red,
            reduced_solution={"alpha": "-1/2*x1*exp(-x2)",
                              "beta": "1/4*(x1^2-2)*exp(-x2)"},
            antiderivative="1/4*(2-x1^2)*exp(-x2)")

    def test_pde_parent_direction(self):
        parent = DESystem.build(PDE, ["u_11 - u_2 + exp(x2)*u_1^2 = 0"])
        red = reduce_pde(parent, "u")
        assert verify_connection(parent, red, parent_solution={"u": "x1 + exp(x2)"})

    def test_requires_some_direction(self):
        with pytest.raises(ReductionError, match="supply"):
            verify_connection(self.parent, self.red)

    def test_rejects_antiderivative_beside_parent_solution(self):
        with pytest.raises(ReductionError, match="antiderivative"):
            verify_connection(self.parent, self.red, parent_solution={"y": "-log(x)"},
                              antiderivative="x^2")

    def test_rejects_both_directions(self):
        with pytest.raises(ReductionError, match="supply"):
            verify_connection(self.parent, self.red, parent_solution={"y": "-log(x)"},
                              reduced_solution={"alpha": "-1/x"})
