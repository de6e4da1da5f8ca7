"""Acceptance suite: the shipped corpus' headline results, one criterion per
test, each printing a pass/fail line.  The zero test runs at its fixed
settings: a rational difference is evaluated exactly at 4 seeded integer
points drawn from [-2^61, 2^61), and any other difference within 1e-9 at 16
rational sample points.  Structural
assertions use exact equality of normalized expressions.
"""

import random
from contextlib import contextmanager

from liereduce import (DESystem, JetSpace, VectorField,
                       ZERO, ONE, check_point_symmetry, classify_pushforward,
                       commutator, diff, equiv, is_solvable, lie_reduce,
                       lift_test, load_problem, normalize, prolong,
                       pushforward_field, rat, reduce_ode, reduce_pde, reduction_order_advice,
                       structure_constants, total_derivative,
                       verify_canonical, verify_connection)
from liereduce.corpus import corpus_dir, equation_matches, run_corpus, systems_match
from liereduce.equiv import (_EXACT_RANGE, _EXACT_SAMPLES, _MAX_ATTEMPTS, _SAMPLES,
                             _SEED, _TOLERANCE)
from liereduce.reduction import _SHIFTS
from genexpr import random_expr, random_polynomial, small_rat

assert (_TOLERANCE, _SAMPLES, _SEED, _MAX_ATTEMPTS) == (1e-9, 16, 20260809, 80)
assert (_EXACT_SAMPLES, _EXACT_RANGE) == (4, 2**61)


@contextmanager
def criterion(n, desc):
    try:
        yield
    except BaseException:
        print(f"[criterion {n:2d}] FAIL  {desc}")
        raise
    print(f"[criterion {n:2d}] PASS  {desc}")


def load(name):
    return load_problem(corpus_dir() / name)


TWO_SCALINGS = load("two-scalings.prob")
BLASIUS_T = load("blasius-translated.prob")
BLASIUS = load("blasius.prob")
POWER = load("power-diffusion.prob")
POWER_GRAD = load("power-diffusion-gradient.prob")
BERNOULLI = load("bernoulli.prob")
BERNOULLI_RED = load("bernoulli-reduced.prob")
LOG_T = load("log-diffusion-translated.prob")
LOG_D = load("log-diffusion.prob")


def test_criterion_1_prolongation_exact():
    with criterion(1, "first extensions match exactly after normalization"):
        sp = TWO_SCALINGS.space
        P = prolong(TWO_SCALINGS.fields["X2"], 1)
        assert P.coeff("y'") == sp.expr("-1/2*y'")
        P = prolong(BLASIUS_T.fields["X2"], 1)
        assert P.coeff("y'") == BLASIUS_T.space.expr("-2*y'")
        P = prolong(POWER.fields["X2"], 1)
        assert P.coeff("u_1") == ZERO
        assert P.coeff("u_2") == POWER.space.expr("-u_2")


def test_criterion_2_symmetry_verification():
    with criterion(2, "five power-law generators verify; x d/dy fails with residual"):
        for name in ("X1", "X2", "X3", "X4", "X5"):
            rep = check_point_symmetry(POWER.system, POWER.fields[name])
            assert rep.is_symmetry, name
        rep = check_point_symmetry(BERNOULLI.system, BERNOULLI.fields["W"])
        assert not rep.is_symmetry
        assert equiv(rep.residuals[0], BERNOULLI.space.expr("-2*(1+x)*y' - 1"))


def test_criterion_3_canonical_charts_exact():
    with criterion(3, "all four canonical charts satisfy Xr = 0 and Xs = 1 exactly"):
        cases = [
            (TWO_SCALINGS.fields["X1"], TWO_SCALINGS.charts["chart1"]),
            (TWO_SCALINGS.fields["X2"], TWO_SCALINGS.charts["chart2"]),
            (BLASIUS.fields["X1"], BLASIUS.charts["hodo"]),
            (LOG_D.fields["Xe"], LOG_D.charts["canon"]),
        ]
        for X, T in cases:
            for name, expr_ in T.target_independent + T.target_dependent:
                got = normalize(X.apply_to(expr_))
                assert got == (ONE if name == T.canonical else ZERO), name
            assert verify_canonical(X, T)


def test_criterion_4_transformations():
    with criterion(4, "chart rewrites reproduce the separable and source-term forms"):
        out = lambda chart, pf: __import__("liereduce").transform_de(
            pf.system, pf.charts[chart])
        t1 = out("chart1", TWO_SCALINGS)
        assert equation_matches(t1.equations[0], t1.space.expr("r^2*s'' - s'^2"))
        t2 = out("canon", LOG_D)
        assert equation_matches(t2.equations[0],
                                t2.space.expr("s_11 - s_2 + exp(r2)*s_1^2"))


def test_criterion_5_reductions():
    with criterion(5, "slope and gradient reductions incl. curl condition counts"):
        red = reduce_ode(BERNOULLI.system)
        assert equation_matches(red.system.equations[0],
                                red.system.space.expr("alpha' - (1+x)*alpha^2 - alpha"))
        red = reduce_ode(BLASIUS_T.system)
        assert equation_matches(
            red.system.equations[0],
            red.system.space.expr("2*alpha*alpha'' - 6*alpha'^2 + x*alpha^2*alpha'"))
        sep = DESystem.build(JetSpace(("r",), ("s",), 2), ["r^2*s'' - s'^2 = 0"])
        red = reduce_ode(sep)
        assert equation_matches(red.system.equations[0],
                                red.system.space.expr("r^2*alpha' - alpha^2"))
        redp = reduce_pde(LOG_T.system, "u")
        assert redp.integrability_count == 1
        assert systems_match(redp.system, [
            redp.system.space.expr("alpha_1 - beta + exp(x2)*alpha^2"),
            redp.system.space.expr("alpha_2 - beta_1")])
        redq = reduce_pde(POWER.system, "u")
        assert redq.integrability_count == 1
        assert systems_match(redq.system, [
            redq.system.space.expr("beta - alpha^(-4/3)*alpha_1"),
            redq.system.space.expr("alpha_2 - beta_1")])
        lap3 = DESystem.build(JetSpace(("x1", "x2", "x3"), ("u",), 2),
                              ["u_11 + u_22 + u_33 = 0"])
        assert reduce_pde(lap3, "u").integrability_count == 3
        lap5 = DESystem.build(JetSpace(("x1", "x2", "x3", "x4", "x5"), ("u",), 2),
                              ["u_11 + u_22 + u_33 + u_44 + u_55 = 0"])
        assert reduce_pde(lap5, "u").integrability_count == 10


def test_criterion_6_chain_reductions():
    with criterion(6, "chained reductions end in the algebraic and first-order forms"):
        sep = load("two-scalings-reduced.prob")
        red = lie_reduce(sep.system, sep.charts["further"])
        assert red.system.space.order == 0
        assert equation_matches(
            red.system.equations[0],
            __import__("liereduce").parse_expr("1 + R*(1-R)*omega", {"R", "omega"}))
        bl = load("blasius-reduced.prob")
        red = lie_reduce(bl.system, bl.charts["scalred"])
        vocab = {"r", "omega", "omega'"}
        target = __import__("liereduce").parse_expr(
            "2*r*omega' + 2*r^2*(r+6)*omega^3 - r*(r+14)*omega^2 + 6*omega", vocab)
        assert equation_matches(red.system.equations[0], target)


def test_criterion_7_classification():
    with criterion(7, "point/nonlocal verdicts with witnesses; lifts blocked"):
        red1 = lie_reduce(TWO_SCALINGS.system, TWO_SCALINGS.charts["chart1"])
        got = classify_pushforward(pushforward_field(TWO_SCALINGS.fields["X2"],
                                                     TWO_SCALINGS.charts["chart1"]),
                                   TWO_SCALINGS.charts["chart1"], red1)
        assert got.verdict == "point"
        red2 = lie_reduce(TWO_SCALINGS.system, TWO_SCALINGS.charts["chart2"])
        got = classify_pushforward(pushforward_field(TWO_SCALINGS.fields["X1"],
                                                     TWO_SCALINGS.charts["chart2"]),
                                   TWO_SCALINGS.charts["chart2"], red2)
        assert got.verdict == "nonlocal" and got.witness == "s"
        redS = lie_reduce(POWER.system, POWER.charts["scal"])
        got = classify_pushforward(pushforward_field(POWER.fields["X1"], POWER.charts["scal"]),
                                   POWER.charts["scal"], redS)
        assert got.verdict == "nonlocal" and got.witness == "s"
        got = lift_test(BERNOULLI_RED.fields["Y"], BERNOULLI_RED.reduced_view())
        assert got.verdict == "nonlocal"
        got = lift_test(POWER_GRAD.fields["Ybig"], POWER_GRAD.reduced_view())
        assert got.verdict == "nonlocal"


def test_criterion_8_lie_algebra():
    with criterion(8, "brackets exact; stated constant documented; series 5-3-0"):
        Z = commutator(BLASIUS_T.fields["X1"], BLASIUS_T.fields["X2"])
        minus_X1 = rat(-1) * BLASIUS_T.fields["X1"]
        assert Z.coeffs == minus_X1.coeffs
        Z = commutator(POWER.fields["X1"], POWER.fields["X2"])
        assert Z.coeffs == POWER.fields["X1"].coeffs
        # two-scalings bracket: oracle value -X1, literature states -2*X1
        Z = commutator(TWO_SCALINGS.fields["X1"], TWO_SCALINGS.fields["X2"])
        assert Z.coeffs == (rat(-1) * TWO_SCALINGS.fields["X1"]).coeffs
        records, failed = run_corpus(filter="two-scalings")
        noted = [r for r in records if r.verdict == "discrepancy-documented"]
        assert not failed and len(noted) == 1
        assert noted[0].operation == "commutator" and "-2*X1" in noted[0].expected
        gens = [POWER.fields[n] for n in ("X1", "X2", "X3", "X4", "X5")]
        tab = structure_constants(gens)
        assert tab.closed and tab.jacobi_ok()
        solvable, dims = is_solvable(tab)
        assert solvable and dims == (5, 3, 0)


def test_criterion_9_connection_formulas():
    with criterion(9, "four solution pairs connect; constant shift at 3 values"):
        assert _SHIFTS == (0, 1, -2)
        red = reduce_ode(BERNOULLI.system)
        assert verify_connection(BERNOULLI.system, red,
                                 reduced_solution={"alpha": "1/(exp(-x)-x)"})
        assert verify_connection(BERNOULLI.system, red,
                                 parent_solution={"y": "-log(x)"})
        assert verify_connection(BERNOULLI.system, red,
                                 reduced_solution={"alpha": "-1/x"},
                                 antiderivative="-log(x)")
        redp = reduce_pde(LOG_T.system, "u")
        assert verify_connection(LOG_T.system, redp,
                                 reduced_solution={"alpha": "-1/2*x1*exp(-x2)",
                                                   "beta": "1/4*(x1^2-2)*exp(-x2)"},
                                 antiderivative="1/4*(2-x1^2)*exp(-x2)")
        assert verify_connection(LOG_T.system, redp,
                                 parent_solution={"u": "x1 + exp(x2)"})


def test_criterion_10_property_suites():
    with criterion(10, "200 randomized cases per property, zero failures"):
        N = 200
        rng = random.Random(1009)
        for _ in range(N):
            e = random_expr(rng, ["x", "y", "u"])
            assert normalize(e) == e
        rng = random.Random(1013)
        for _ in range(N):
            a = random_expr(rng, ["x", "y"], depth=2)
            b = random_expr(rng, ["x", "y"], depth=2)
            assert equiv(diff(a * b, "x"), diff(a, "x") * b + a * diff(b, "x"))
        PDE = JetSpace(("x1", "x2"), ("u",), 2)
        rng = random.Random(1019)
        names = ["x1", "x2", "u", "u_1", "u_2"]
        for _ in range(N):
            e = random_polynomial(rng, names)
            d12 = total_derivative(PDE, total_derivative(PDE, e, 1), 2)
            d21 = total_derivative(PDE, total_derivative(PDE, e, 2), 1)
            assert equiv(d12, d21)
        rng = random.Random(1021)
        base = ["x1", "x2", "u"]
        for _ in range(N):
            a, b = small_rat(rng), small_rat(rng)
            X = VectorField(PDE, {"x1": random_polynomial(rng, base, 2, 1),
                                  "u": random_polynomial(rng, base, 2, 1)})
            Y = VectorField(PDE, {"x2": random_polynomial(rng, base, 2, 1),
                                  "u": random_polynomial(rng, base, 2, 1)})
            PZ = prolong(rat(a) * X + rat(b) * Y, 1)
            PX, PY = prolong(X, 1), prolong(Y, 1)
            for nm in PDE.jet_names(1):
                assert equiv(PZ.coeff(nm),
                             rat(a) * PX.coeff(nm) + rat(b) * PY.coeff(nm))
        rng = random.Random(1031)
        for _ in range(N):
            def rnd():
                return VectorField(PDE, {
                    n: random_polynomial(rng, base, terms=2, degree=2)
                    for n in rng.sample(base, 2)})
            X, Y, Z = rnd(), rnd(), rnd()
            anti = commutator(X, Y) + commutator(Y, X)
            assert all(c == ZERO for c in anti.coeffs.values())
            jac = commutator(commutator(X, Y), Z) \
                + commutator(commutator(Y, Z), X) \
                + commutator(commutator(Z, X), Y)
            assert all(equiv(c, ZERO) for c in jac.coeffs.values())
        # prolongation/bracket compatibility on the corpus generator pairs
        pairs = [
            (TWO_SCALINGS.fields["X1"], TWO_SCALINGS.fields["X2"], 2),
            (BLASIUS_T.fields["X1"], BLASIUS_T.fields["X2"], 2),
            (POWER.fields["X1"], POWER.fields["X2"], 2),
            (POWER.fields["X3"], POWER.fields["X5"], 2),
            (POWER.fields["X2"], POWER.fields["X5"], 2),
        ]
        rng = random.Random(1033)
        for k in range(N):
            A, B, order = pairs[k % len(pairs)]
            a, b = small_rat(rng), small_rat(rng)
            c, d = small_rat(rng), small_rat(rng)
            X = rat(a) * A + rat(b) * B
            Y = rat(c) * A + rat(d) * B
            PX, PY = prolong(X, order), prolong(Y, order)
            PZ = prolong(commutator(X, Y), order)
            space = X.space
            for nm in list(space.base_names) + space.jet_names(order):
                op = PX.apply_to(PY.coeff(nm)) - PY.apply_to(PX.coeff(nm))
                assert equiv(PZ.coeff(nm), op), nm


def test_criterion_11_cross_module_consistency():
    with criterion(11, "ordering advice agrees with inherited classifications"):
        cases = [
            (TWO_SCALINGS, "X1", "X2", "chart1", "chart2"),
            (BLASIUS_T, "X1", "X2", "ident", "scal2"),
            (POWER, "X1", "X2", "ident", "scal"),
        ]
        for pf, n1, n2, chart_first, chart_reverse in cases:
            names = sorted(pf.fields)
            tab = structure_constants([pf.fields[n] for n in names])
            adv = reduction_order_advice(tab, names.index(n1), names.index(n2))
            assert names[adv.first] == n1
            assert names[adv.second] == n2
            red = lie_reduce(pf.system, pf.charts[chart_first])
            got = classify_pushforward(pushforward_field(pf.fields[n2], pf.charts[chart_first]),
                                       pf.charts[chart_first], red)
            assert got.verdict == "point", (pf.id, chart_first)
            red = lie_reduce(pf.system, pf.charts[chart_reverse])
            got = classify_pushforward(pushforward_field(pf.fields[n1], pf.charts[chart_reverse]),
                                       pf.charts[chart_reverse], red)
            assert got.verdict == "nonlocal", (pf.id, chart_reverse)


def test_full_corpus_green():
    with criterion(0, "entire shipped corpus passes (one documented discrepancy)"):
        records, failed = run_corpus()
        assert not failed
        assert sum(1 for r in records if r.verdict == "fail") == 0
        assert sum(1 for r in records if r.verdict == "discrepancy-documented") == 1
