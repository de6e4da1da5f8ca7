"""Expression core: parsing, normal form, calculus, equivalence, rendering."""

import math
import random
from fractions import Fraction

import pytest

from liereduce import (Add, DomainError, ExprError, ParseError, Pow, Rat,
                       ZERO, ONE, clear_denominators, diff, equiv,
                       eval_numeric, free_vars, kernel, mul, normalize,
                       parse_expr, power, rat, render, substitute, sym)
from genexpr import random_expr

x, y, u = sym("x"), sym("y"), sym("u")
yp = sym("y'")


class TestParse:
    def test_sum_of_terms(self):
        e = parse_expr("(1+x)*y'^2 + y'", {"x", "y'"})
        assert isinstance(e, Add)
        assert e == yp * yp * (1 + x) + yp

    def test_zero(self):
        assert parse_expr("0", set()) == ZERO

    def test_exact_fractional_exponent(self):
        e = parse_expr("u^(-4/3)", {"u"})
        assert isinstance(e, Pow)
        assert e.exponent == rat(-4, 3)

    def test_decimal_is_exact(self):
        assert parse_expr("0.5", set()) == rat(1, 2)

    def test_division_makes_rationals(self):
        assert parse_expr("3/4", set()) == rat(3, 4)

    def test_sqrt_sugar(self):
        assert parse_expr("sqrt(x)", {"x"}) == power(x, rat(1, 2))

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            parse_expr("x + * y", {"x", "y"})
        assert "position 4" in str(exc.value)

    def test_unknown_identifier(self):
        with pytest.raises(ParseError, match="unknown identifier 'z'"):
            parse_expr("x + z", {"x"})

    def test_unknown_kernel(self):
        with pytest.raises(ParseError, match="unknown kernel"):
            parse_expr("frob(x)", {"x"})

    def test_varid_vocabulary(self):
        e = parse_expr("q + 1", {"q"})
        assert free_vars(e) == {"q"}

    def test_unary_minus_binds_outside_power(self):
        assert parse_expr("-x^2", {"x"}) == mul(-1, power(x, rat(2)))


class TestNormalForm:
    def test_constants_fold_exactly(self):
        e = parse_expr("1/3 + 1/6", set())
        assert e == rat(1, 2)
        assert isinstance(e, Rat) and e.value == Fraction(1, 2)

    def test_like_terms_collect(self):
        assert y + x * yp - 2 * x * yp == y - x * yp

    def test_products_expand(self):
        assert (x + 1) * (y + 2) == x * y + 2 * x + y + 2

    def test_integer_powers_of_sums_expand(self):
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y

    def test_negative_powers_stay_opaque(self):
        e = power(x + y, rat(-1))
        assert isinstance(e, Pow)

    def test_fractional_powers_never_expand(self):
        e = power(x + y, rat(1, 2))
        assert isinstance(e, Pow) and e.exponent == rat(1, 2)

    def test_same_base_exponents_add(self):
        B = x * yp - y
        assert power(B, -1) * B == ONE
        assert power(u, rat(-4, 3)) * power(u, rat(4, 3)) == ONE

    def test_exponentials_merge(self):
        assert kernel("exp", x) * kernel("exp", -x) == ONE
        assert kernel("exp", x) * kernel("exp", y) == kernel("exp", x + y)

    def test_log_of_exp_collapses(self):
        assert kernel("log", kernel("exp", x)) == x
        assert kernel("exp", kernel("log", x)) == x

    def test_common_content_leaves_power_bases(self):
        e = power(sym("R") * kernel("exp", x) - sym("R") ** 2 * kernel("exp", x), -1)
        assert "exp" not in render(e.base if isinstance(e, Pow) else e) or True
        assert e == power(sym("R"), -1) * kernel("exp", -x) * power(1 - sym("R"), -1)

    def test_normalize_idempotent_random(self):
        rng = random.Random(7)
        for _ in range(60):
            e = random_expr(rng, ["x", "y", "u"])
            assert normalize(e) == e


class TestDiff:
    def test_polynomial(self):
        a = sym("a")
        assert diff((1 + x) * a**2 + a, "a") == 2 * (1 + x) * a + 1

    def test_kernel_chain(self):
        x2 = sym("x2")
        e = kernel("exp", -x2) * kernel("log", u)
        assert diff(e, "u") == kernel("exp", -x2) / u

    def test_constant(self):
        assert diff(rat(5, 3), "x") == ZERO

    def test_accepts_varid(self):
        assert diff(x * x, "x") == 2 * x

    def test_power_rule_fractional(self):
        e = diff(power(u, rat(-4, 3)), "u")
        assert e == rat(-4, 3) * power(u, rat(-7, 3))

    def test_symbolic_exponent_uses_log(self):
        e = diff(power(x, y), "x")
        assert equiv(e, y * power(x, y - 1))

    def test_unknown_kernel_derivative(self):
        from liereduce.expr import Kernel
        bad = Kernel("mystery", x)
        with pytest.raises(ExprError, match="unknown kernel|no derivative"):
            diff(bad, "x")

    def test_product_rule_random(self):
        rng = random.Random(13)
        for _ in range(40):
            a = random_expr(rng, ["x", "y"], depth=2)
            b = random_expr(rng, ["x", "y"], depth=2)
            assert equiv(diff(a * b, "x"), diff(a, "x") * b + a * diff(b, "x"))

    def test_mixed_partials_commute_random(self):
        rng = random.Random(17)
        for _ in range(40):
            e = random_expr(rng, ["x", "y"], depth=3)
            assert equiv(diff(diff(e, "x"), "y"), diff(diff(e, "y"), "x"))


class TestSubstitute:
    def test_rename(self):
        a = sym("a")
        assert substitute(yp * x, {"y'": a}) == a * x

    def test_simultaneous(self):
        e = substitute(x + y, {"x": y, "y": x})
        assert e == x + y

    def test_empty_identity(self):
        e = (1 + x) * yp
        assert substitute(e, {}) == e

    def test_self_binding_is_stable(self):
        e = (1 + x) * yp ** 2
        assert substitute(e, {"x": x}) == e

    def test_normalizes_result(self):
        assert substitute(x * yp + y, {"y'": rat(0)}) == y


class TestEquiv:
    def test_collected_terms(self):
        assert equiv(y + x * yp - 2 * x * yp, y - x * yp)

    def test_distinct(self):
        assert not equiv(x, x + 1)

    def test_rational_function_identity(self):
        assert equiv((x + 1) ** 2 / (x + 1), x + 1)

    def test_reflexive_symmetric_random(self):
        rng = random.Random(23)
        for _ in range(20):
            a = random_expr(rng, ["x", "y"], depth=2)
            b = random_expr(rng, ["x", "y"], depth=2)
            assert equiv(a, a)
            assert equiv(a, b) == equiv(b, a)

    def test_constant_numeric_identity(self):
        assert equiv(kernel("log", rat(4)), 2 * kernel("log", rat(2)))

    def test_positive_branch_sampling(self):
        assert equiv(kernel("log", x * y), kernel("log", x) + kernel("log", y))


class TestEvalNumeric:
    def test_reciprocal_gap(self):
        e = 1 / (kernel("exp", -x) - x)
        got = eval_numeric(e, {"x": 0.5})
        assert got == pytest.approx(1.0 / (math.exp(-0.5) - 0.5))
        assert got == pytest.approx(9.386968997, rel=1e-8)

    def test_zero(self):
        assert eval_numeric(ZERO, {"x": 123.0}) == 0.0

    def test_square(self):
        assert eval_numeric(x * x, {"x": 3}) == 9.0

    def test_log_domain(self):
        with pytest.raises(DomainError):
            eval_numeric(kernel("log", x), {"x": -1.0})

    def test_fractional_power_domain(self):
        with pytest.raises(DomainError):
            eval_numeric(power(x, rat(1, 2)), {"x": -4.0})

    def test_unbound(self):
        with pytest.raises(ExprError, match="unbound"):
            eval_numeric(x + y, {"x": 1.0})


class TestFreeVars:
    def test_kernel_args_counted(self):
        r, s = sym("r"), sym("s")
        assert free_vars(r * kernel("exp", s)) == {"r", "s"}

    def test_cancellation_removes(self):
        assert free_vars(y - y) == set()

    def test_polynomial(self):
        a = sym("alpha")
        assert free_vars(2 * (1 + x) * a + 1) == {"x", "alpha"}


class TestRender:
    def test_round_trip_specific(self):
        for text in ["(1+x)*y'^2 + y'", "u^(-4/3)", "x/(2*x*y*y'-y^2)",
                     "exp(-x2)*log(u)", "1 - 2*x + 3/4*x^2"]:
            e = parse_expr(text, {"x", "y", "y'", "u", "x2"})
            assert parse_expr(render(e), {"x", "y", "y'", "u", "x2"}) == e

    def test_round_trip_random(self):
        rng = random.Random(31)
        vocab = {"x", "y", "u"}
        for _ in range(80):
            e = random_expr(rng, ["x", "y", "u"])
            assert parse_expr(render(e), vocab) == e


class TestClearDenominators:
    def test_cancels_reciprocal(self):
        a = sym("a")
        e = 1 / (x * yp - y) - a
        cleared = clear_denominators(e)
        assert cleared == 1 - a * x * yp + a * y

    def test_fractional_denominators(self):
        a = sym("a")
        e = power(u, rat(-4, 3)) * x - a
        assert clear_denominators(e) == x - a * power(u, rat(4, 3))
