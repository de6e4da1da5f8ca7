"""Command-line interface: subcommands, exit codes, deterministic output."""

import json

import pytest

from liereduce.classify import Classification
from liereduce.cli import main
from liereduce.corpus import corpus_dir, run_corpus
from liereduce.expr import render
from liereduce.parse import parse_expr
from liereduce.problem import load_problem


def prob(name: str) -> str:
    return str(corpus_dir() / name)


class TestSubcommands:
    def test_prolong(self, capsys):
        rc = main(["prolong", "--problem", prob("blasius-translated.prob"),
                   "--field", "X2", "--order", "1"])
        out = capsys.readouterr().out
        assert rc == 0 and "y': -2*y'" in out

    def test_prolong_order_below_one_is_error(self, capsys):
        # --order 0 is an order, not the space's default.
        for order in ("0", "-1"):
            rc = main(["prolong", "--problem", prob("blasius-translated.prob"),
                       "--field", "X2", "--order", order])
            assert (rc, capsys.readouterr()) == (
                1, ("", "error: prolongation order must be at least 1\n"))

    def test_check_symmetry_pass(self, capsys):
        rc = main(["check-symmetry", "--problem", prob("power-diffusion.prob"),
                   "--field", "X5"])
        assert rc == 0
        assert "symmetry" in capsys.readouterr().out

    def test_check_symmetry_fail_exit_1(self, capsys):
        rc = main(["check-symmetry", "--problem", prob("bernoulli.prob"),
                   "--field", "W"])
        assert rc == 1
        assert "not-symmetry" in capsys.readouterr().out

    def test_canonical_verify(self):
        rc = main(["canonical-verify", "--problem", prob("two-scalings.prob"),
                   "--field", "X1", "--chart", "chart1"])
        assert rc == 0

    def test_transform(self, capsys):
        rc = main(["transform", "--problem", prob("two-scalings.prob"),
                   "--chart", "chart1"])
        assert rc == 0
        assert "s''" in capsys.readouterr().out

    def test_reduce_ode(self, capsys):
        for aux, conn, eq in (([], "alpha = y'", "alpha'"),
                              (["--aux", "beta"], "beta = y'",
                               "-beta + beta' - beta^2 - beta^2*x = 0  [reduced]")):
            rc = main(["reduce-ode", "--problem", prob("bernoulli.prob")] + aux)
            out = capsys.readouterr().out
            assert rc == 0 and conn in out and eq in out and "quadrature" in out

    def test_reduce_pde(self, capsys):
        for aux, conn in (([], "alpha = u_1, beta = u_2"),
                          (["--aux", "a", "b"], "a = u_1, b = u_2")):
            rc = main(["reduce-pde", "--problem", prob("power-diffusion.prob"),
                       "--target", "u"] + aux)
            out = capsys.readouterr().out
            assert rc == 0 and "integrability" in out and conn in out

    def test_reduce_rejected(self, capsys):
        # The kind must match the number of independent variables, and
        # reduce-ode takes exactly one auxiliary name.
        for cmd, name, aux, err in (
                ("reduce-pde", "bernoulli.prob", [],
                 "reduce-pde needs at least two independent variables"),
                ("reduce-ode", "power-diffusion.prob", [],
                 "reduce-ode needs exactly one independent variable"),
                ("reduce-ode", "bernoulli.prob", ["--aux", "a", "b"],
                 "need 1 auxiliary names, got 2")):
            rc = main([cmd, "--problem", prob(name)] + aux)
            out, got = capsys.readouterr()
            assert (rc, out, got) == (1, "", f"error: {err}\n")

    def test_pushforward(self, capsys):
        rc = main(["pushforward", "--problem", prob("two-scalings.prob"),
                   "--field", "X2", "--chart", "chart1"])
        out = capsys.readouterr().out
        assert rc == 0 and "-1/2*r" in out and "rescale suggestion: -2" in out

    def test_classify(self, capsys):
        # two-scalings-reduced's chart names its auxiliary omega, not alpha.
        for name, field, chart, verdict, witness in (
                ("two-scalings.prob", "X1", "chart2", "nonlocal", "s"),
                ("two-scalings-reduced.prob", "X2r", "further", "point", "")):
            rc = main(["classify", "--problem", prob(name),
                       "--field", field, "--chart", chart, "--json"])
            rec = json.loads(capsys.readouterr().out)
            assert rc == 0 and rec["verdict"] == verdict and rec["witness"] == witness

    def test_classify_on_chart_without_aux(self, capsys):
        # hodo declares no auxiliary, so X2's slope coefficient is unknown;
        # without it, -r d/dr alone is no symmetry of the reduced equation.
        rc = main(["classify", "--problem", prob("blasius.prob"),
                   "--field", "X2", "--chart", "hodo"])
        assert (rc, capsys.readouterr().out) == (
            0, "X2 / hodo: inconclusive witness=alpha by chart defines no auxiliary alpha\n")

    def test_lift_test(self, capsys):
        rc = main(["lift-test", "--problem", prob("bernoulli-reduced.prob"),
                   "--field", "Y", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rc == 0 and rec["verdict"] == "nonlocal"

    def test_commutator(self, capsys):
        rc = main(["commutator", "--problem", prob("blasius-translated.prob"),
                   "--fields", "X1,X2"])
        out = capsys.readouterr().out
        assert rc == 0 and "[X1,X2] = -X1" in out

    def test_commutator_reversed_json(self, capsys):
        rc = main(["commutator", "--problem", prob("blasius-translated.prob"),
                   "--fields", "X2,X1", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rc == 0 and rec == {"operation": "commutator", "fields": ["X2", "X1"],
                                   "bracket": "(1) d/dy", "in_span": "X1"}

    def test_algebra(self, capsys):
        rc = main(["algebra", "--problem", prob("power-diffusion.prob")])
        out = capsys.readouterr().out
        assert rc == 0 and "solvable: True" in out and "5 -> 3 -> 0" in out

    def test_algebra_subset_json(self, capsys):
        rc = main(["algebra", "--problem", prob("power-diffusion.prob"),
                   "--fields", "X1,X3,X5", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rc == 0 and rec == {
            "operation": "algebra", "fields": ["X1", "X3", "X5"], "closed": True,
            "brackets": ["[X1,X3] = 0", "[X1,X5] = -X1", "[X3,X5] = 2*X3"],
            "solvable": True, "series": [3, 2, 0], "jacobi": True}

    def test_commutator_of_a_field_with_itself(self, capsys):
        rc = main(["commutator", "--problem", prob("blasius-translated.prob"),
                   "--fields", "X1,X1", "--json"])
        rec = json.loads(capsys.readouterr().out)
        assert rc == 0 and rec == {"operation": "commutator", "fields": ["X1", "X1"],
                                   "bracket": "0", "in_span": "0"}

    def test_unknown_field_is_error(self, capsys):
        rc = main(["check-symmetry", "--problem", prob("bernoulli.prob"),
                   "--field", "NoSuch"])
        assert rc == 1
        assert "unknown name" in capsys.readouterr().err
        rc = main(["commutator", "--problem", prob("blasius-translated.prob"),
                   "--fields", "X1,NoSuch"])
        assert (rc, capsys.readouterr().err) == (1, "error: unknown name 'NoSuch'\n")

    def test_reduction_target_needed_with_several_dependents(self, capsys):
        rc = main(["reduce-pde", "--problem", prob("power-diffusion-gradient.prob")])
        assert (rc, capsys.readouterr().err) == (
            1, "error: several dependent variables; name the reduction target\n")

    def test_algebra_of_dependent_fields_is_error(self, capsys):
        # X1 listed twice spans one dimension, not two.
        rc = main(["algebra", "--problem", prob("power-diffusion.prob"), "--fields", "X1,X1"])
        assert (rc, capsys.readouterr()) == (
            1, ("", "error: generators are linearly dependent\n"))

    def test_algebra_without_fields_is_error(self, capsys):
        rc = main(["algebra", "--problem", prob("laplace-3d.prob")])
        assert (rc, capsys.readouterr().err) == (1, "error: need at least one generator\n")


# Problems whose values hold a constant past the interpreter's limit on int
# digits: 3^19683 and 3^20000 have over 9,000 digits, which render writes as a
# sum of chunks.
BIG_ODE = ("[space]\nindependent = x\ndependent = y\norder = 2\n"
           "[equations]\ny'' = 3^19683*y'\n[field X]\nx = x\ny = y\n"
           "[chart c]\nindependent = r\ndependent = s\nr = x\ns = y\ncanonical = s\n"
           "inverse x = r\ninverse y = s\n")
BIG_FIELDS = ("[space]\nindependent = x\ndependent = y\norder = 1\n"
              "[equations]\ny' = 0\n[field A]\nx = 1\n[field B]\nx = 3^20000*x\n")
BIG_SCALE = ("[space]\nindependent = x\ndependent = y\norder = 1\n"
             "[equations]\ny' = 0\n[field C]\nx = 3^(-20000)*x\n"
             "[chart c]\nindependent = r\ndependent = s\nr = x\ns = y\ncanonical = s\n"
             "inverse x = r\ninverse y = s\n")
# A reduced symmetry whose lift is refused with a witness holding the constant.
BIG_LIFT = ("[space]\nindependent = x\ndependent = alpha\norder = 1\n"
            "[parent]\nindependent = x\ndependent = y\norder = 2\nkind = ode\n"
            "target = y\naux = alpha\n"
            "[equations]\nalpha' = 0\n[field Y]\nalpha = 3^20000*alpha^2\n")
# (problem, arguments, exit code, the constant, human output, fields of the
# JSON record), with {c} in the outputs standing for the constant's text.
TOO_LONG = {
    "check-symmetry": (BIG_ODE, ["--field", "X"], 1, "3^19683",
                       "X: not-symmetry  residuals: -{c}*y'\n",
                       {"verdict": "not-symmetry", "residuals": ["-{c}*y'"]}),
    "transform": (BIG_ODE, ["--chart", "c"], 0, "3^19683", "-{c}*s' + s'' = 0\n",
                  {"equations": ["-{c}*s' + s''"]}),
    "reduce-ode": (BIG_ODE, [], 0, "3^19683",
                   "-{c}*alpha + alpha' = 0  [reduced]\nconnection: alpha = y'; y recovered "
                   "by quadrature up to C\n",
                   {"equations": ["-{c}*alpha + alpha'"], "connection": {"alpha": "y'"}}),
    "prolong": (BIG_FIELDS, ["--field", "B"], 0, "3^20000", "y': -{c}*y'\n",
                {"coefficients": {"y'": "-{c}*y'"}}),
    "commutator": (BIG_FIELDS, ["--fields", "A,B"], 0, "3^20000",
                   "[A,B] = {c}*A  (({c}) d/dx)\n",
                   {"bracket": "({c}) d/dx", "in_span": "{c}*A"}),
    "algebra": (BIG_FIELDS, [], 0, "3^20000",
                "[A,B] = {c}*A\nsolvable: True; derived series 2 -> 1 -> 0\n",
                {"brackets": ["[A,B] = {c}*A"], "solvable": True}),
    "pushforward": (BIG_SCALE, ["--field", "C", "--chart", "c"], 0, "3^20000",
                    "r: 1/{c}*r\n(common constant rescale suggestion: {c})\n",
                    {"coefficients": {"r": "1/{c}*r"}, "suggested_scale": "{c}"}),
    "lift-test": (BIG_LIFT, ["--field", "Y"], 0, "3^20000",
                  "Y: nonlocal witness={c}*alpha^2 by matching system inconsistent: "
                  "quadratic row unmatched\n",
                  {"verdict": "nonlocal", "witness": "{c}*alpha^2"}),
}


@pytest.mark.parametrize("command", sorted(TOO_LONG))
def test_value_too_long_to_render_does_not_hide_a_decided_verdict(tmp_path, capsys, command):
    """Each subcommand words a value holding a constant past the digit limit
    in full, in human and JSON output, and exits by its verdict; the
    constant is written in chunks that parse back to it."""
    text, extra, code, constant, human, fields = TOO_LONG[command]
    c = render(parse_expr(constant))
    assert c.startswith("(") and parse_expr(c) == parse_expr(constant)
    (tmp_path / "big.prob").write_text(text)
    argv = [command, "--problem", str(tmp_path / "big.prob")] + extra
    assert (main(argv), capsys.readouterr()) == (code, (human.replace("{c}", c), ""))
    assert main(argv + ["--json"]) == code
    out, err = capsys.readouterr()
    record = json.loads(out)
    want = json.loads(json.dumps(fields).replace("{c}", c))
    assert err == "" and {k: record[k] for k in fields} == want


class TestUsageErrors:
    def test_unknown_subcommand_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_required_flag_exit_2(self):
        for argv in (["prolong"],
                     ["commutator", "--problem", prob("blasius-translated.prob")]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_commutator_needs_two_fields_exit_2(self, capsys):
        rc = main(["commutator", "--problem", prob("blasius-translated.prob"),
                   "--fields", "X1"])
        out, err = capsys.readouterr()
        assert (rc, out, err) == (2, "", "commutator needs exactly two field names\n")

    def test_sampling_flags_rejected(self, capsys):
        # The zero test's seed and tolerance are fixed; no flag sets them.
        for flag in (["--seed", "3"], ["--tolerance", "1e-6"]):
            for argv in (["check-symmetry", "--problem", prob("bernoulli.prob"),
                          "--field", "W"], ["run-corpus"]):
                with pytest.raises(SystemExit) as exc:
                    main(argv + flag)
                assert exc.value.code == 2
                assert "unrecognized arguments" in capsys.readouterr().err


BASE = ("[space]\nindependent = x\ndependent = y\norder = 1\n"
        "[equations]\ny' = y\n[field T]\nx = 1\n[solution s]\ny = exp(x)\n")
GOOD_CHECK = "[expect symmetry T]\ntag = oracle\nverdict = symmetry\n"
CHART = "[chart c]\nindependent = r\ndependent = v\nr = x\nv = y\n"
PARENT = ("[parent]\nindependent = x\ndependent = u\norder = 2\n"
          "kind = ode\ntarget = u\naux = a\n")
DEEP = "sin(" * 400 + "y" + ")" * 400
# Each malformed file, the check that reports it ("load" when the file is
# rejected) and the start of the reported text: the loader's own errors name
# the file and section, other exceptions their type.
MALFORMED = {
    "zero-to-negative-power":
        (BASE.replace("y' = y", "y' + 0^(-1)*y = 0"),
         "load", "bad.prob [equations]: zero raised to a negative power"),
    "algebra-unknown-bracket-field":
        (BASE + "[expect algebra]\ntag = oracle\nbracket T Q = 0\n",
         "load", "bad.prob [expect algebra]: bracket 'T Q' needs two fields"),
    "algebra-series-not-integer":
        (BASE + "[expect algebra]\ntag = oracle\nseries = 1 x\n",
         "load", "bad.prob [expect algebra]: series must be an integer"),
    "reduce-integrability-not-integer":
        (BASE + "[expect reduce-ode]\ntag = oracle\nintegrability = none\n",
         "load", "bad.prob [expect reduce-ode]: integrability must be an integer"),
    "reduce-ode-two-aux-names":
        (BASE.replace("y' = y", "y' = 1") +
         "[expect reduce-ode]\ntag = oracle\naux = a b\n",
         "load", "bad.prob [expect reduce-ode]: need 1 auxiliary names, got 2"),
    "reduce-pde-kind-mismatch":
        (BASE.replace("y' = y", "y' = 1") + "[expect reduce-pde]\ntag = oracle\n",
         "load", "bad.prob [expect reduce-pde]: reduce-pde needs at least two"),
    "reduce-ode-target-unknown":
        (BASE.replace("y' = y", "y' = 1") + "[expect reduce-ode z]\ntag = oracle\n",
         "load", "bad.prob [expect reduce-ode z]: target 'z' is not a dependent"),
    "connection-kind-mismatch":
        (BASE + "[expect connection s]\ntag = oracle\nreduce = pde\n",
         "load", "bad.prob [expect connection s]: reduce-pde needs at least two"),
    "connection-target-unknown":
        (BASE + "[expect connection s]\ntag = oracle\nreduce = ode z\n",
         "load", "bad.prob [expect connection s]: target 'z' is not a dependent"),
    "connection-two-aux-names":
        (BASE + "[expect connection s]\ntag = oracle\nreduce = ode\naux = a b\n",
         "load", "bad.prob [expect connection s]: need 1 auxiliary names, got 2"),
    "lie-reduce-two-aux-names":
        (BASE + CHART + "[expect lie-reduce c]\ntag = oracle\naux = a b\n",
         "load", "bad.prob [expect lie-reduce c]: need 1 auxiliary names, got 2"),
    "prolong-misspelt-coeff-key":
        (BASE + "[expect prolong T]\ntag = oracle\ncoef y' = 12345\n",
         "load", "bad.prob [expect prolong T]: unknown key \"coef y'\""),
    "symmetry-misspelt-verdict-key":
        (BASE + "[expect symmetry T]\ntag = oracle\nverdic = not-symmetry\n",
         "load", "bad.prob [expect symmetry T]: unknown key 'verdic'"),
    "field-line-without-equals":
        (BASE.replace("[field T]\nx = 1\n", "[field T]\nx 1\n"),
         "load", "bad.prob [field T]: expected 'key = value', got 'x 1'"),
    "chart-name-without-definition":
        (BASE + CHART.replace("v = y\n", ""),
         "load", "bad.prob [chart c]: no defining expression for ['v']"),
    "field-duplicate-key":
        (BASE.replace("[field T]\nx = 1\n", "[field T]\nx = 1\nx = 2\n"),
         "load", "bad.prob [field T]: duplicate key 'x'"),
    "chart-duplicate-key":
        (BASE + "[chart c]\nindependent = r\ndependent = v\nr = x\nv = y\nv = 2*y\n",
         "load", "bad.prob [chart c]: duplicate key 'v'"),
    "field-without-name":
        (BASE.replace("[field T]", "[field]"),
         "load", "bad.prob: [field] needs exactly one name: 'field'"),
    "chart-with-two-names":
        (BASE + CHART.replace("[chart c]", "[chart c d]"),
         "load", "bad.prob: [chart] needs exactly one name: 'chart c d'"),
    "solution-without-name":
        (BASE.replace("[solution s]", "[solution]"),
         "load", "bad.prob: [solution] needs exactly one name: 'solution'"),
    "solution-duplicate-key":
        (BASE.replace("y = exp(x)", "y = exp(x)\ny = 2*exp(x)"),
         "load", "bad.prob [solution s]: duplicate key 'y'"),
    "connection-unknown-reduce-kind":
        (BASE + "[expect connection s]\ntag = oracle\nreduce = sde\n",
         "load", "bad.prob [expect connection s]: reduce must be ode or pde"),
    "parent-kind-mismatch":
        (BASE + "[parent]\nindependent = x1 x2\ndependent = u\norder = 2\n"
         "kind = ode\ntarget = u\naux = a b\n",
         "load", "bad.prob [parent]: kind ode does not match 2 independent"),
    "parent-aux-count":
        (BASE + "[parent]\nindependent = x\ndependent = u\norder = 2\n"
         "kind = ode\ntarget = u\naux = a b\n",
         "load", "bad.prob [parent]: need 1 auxiliary names, got 2"),
    "parent-target-unknown":
        (BASE + "[parent]\nindependent = x\ndependent = u\norder = 2\n"
         "kind = ode\ntarget = v\naux = a\n",
         "load", "bad.prob [parent]: target 'v' is not a dependent variable"),
    # [problem], [space] and [parent] appear at most once: a second one
    # would replace the first.
    "problem-section-twice":
        (BASE + "[problem]\nid = bad\n[problem]\nid = other\n",
         "load", "bad.prob [problem]: section appears twice"),
    "space-section-twice":
        (BASE + "[space]\nindependent = x\ndependent = y\norder = 2\n",
         "load", "bad.prob [space]: section appears twice"),
    "parent-section-twice":
        (BASE + 2 * ("[parent]\nindependent = x\ndependent = u\norder = 2\n"
                     "kind = ode\ntarget = u\naux = a\n"),
         "load", "bad.prob [parent]: section appears twice"),
    # So does each named section; two [equations] sections concatenate.
    "field-section-twice":
        (BASE + "[field T]\ny = 1\n", "load", "bad.prob [field T]: section appears twice"),
    "chart-section-twice":
        (BASE + CHART + CHART.replace("v = y", "v = 2*y"),
         "load", "bad.prob [chart c]: section appears twice"),
    "solution-section-twice":
        (BASE + "[solution s]\ny = 2*exp(x)\n",
         "load", "bad.prob [solution s]: section appears twice"),
    # [problem], [space] and [parent] read a closed set of keys.
    "problem-misspelt-title-key":
        (BASE + "[problem]\ntitel = bad\n", "load", "bad.prob [problem]: unknown key 'titel'"),
    "space-misspelt-parameters-key":
        (BASE.replace("y' = y", "y' = a*y").replace("order = 1", "order = 1\nparameter = a"),
         "load", "bad.prob [space]: unknown key 'parameter'"),
    "parent-misspelt-parameters-key":
        (BASE + "[parent]\nindependent = x\ndependent = u\norder = 2\n"
         "kind = ode\ntarget = u\naux = a\nparameter = b\n",
         "load", "bad.prob [parent]: unknown key 'parameter'"),
    # Every load error starts with the file name, and a section's with the
    # section, its header single-spaced.
    "blank-header":
        (BASE.replace("[field T]", "[ ]"), "load", "bad.prob:7: empty section header"),
    "space-without-dependent":
        (BASE.replace("dependent = y", "dependent ="),
         "load", "bad.prob [space]: a jet space needs at least one"),
    "problem-duplicate-id":
        (BASE + "[problem]\nid = bad\nid = other\n",
         "load", "bad.prob [problem]: duplicate key 'id'"),
    "expect-header-spacing":
        (BASE + "[expect  symmetry \t T ]\ntag = folklore\n",
         "load", "bad.prob [expect symmetry T]: tag must be literature or oracle"),
    # An empty kind or tag is not the default one.
    "solution-empty-kind":
        (BASE.replace("[solution s]\n", "[solution s]\nkind =\n"),
         "load", "bad.prob [solution s]: kind must be parent or reduced"),
    "expect-empty-tag":
        (BASE + "[expect symmetry T]\ntag =\nverdict = symmetry\n",
         "load", "bad.prob [expect symmetry T]: tag must be literature or oracle"),
    "commutator-one-argument":
        (BASE + "[expect commutator T]\ntag = oracle\nresult = 0\n",
         "load", "bad.prob [expect commutator T]: "),
    "commutator-bad-coefficient":
        (BASE + "[expect commutator T T]\ntag = oracle\nresult = abc*T\n",
         "commutator T T", "error: bad: cannot parse expected combination"),
    # A bracket value must be a linear combination of the fields with
    # rational coefficients; an empty one is not 0.
    "algebra-empty-bracket":
        (BASE + "[expect algebra]\ntag = oracle\nbracket T T =\n", "algebra", "[T,T]=0"),
    "algebra-nonlinear-bracket":
        (BASE + "[expect algebra]\ntag = oracle\nbracket T T = T*T\n", "algebra", "[T,T]=0"),
    "prolong-order-not-integer":
        (BASE + "[expect prolong T]\ntag = oracle\norder = two\ncoeff y' = 0\n",
         "load", "bad.prob [expect prolong T]: "),
    # An empty order is not the space's.
    "prolong-empty-order":
        (BASE + "[expect prolong T]\ntag = oracle\norder =\ncoeff y' = 0\n",
         "load", "bad.prob [expect prolong T]: order must be an integer, got ''"),
    # An order below 1 is rejected even when every coefficient is on a base
    # coordinate.
    "prolong-order-zero":
        (BASE + "[expect prolong T]\ntag = oracle\norder = 0\ncoeff x = 1\n",
         "load", "bad.prob [expect prolong T]: prolongation order must be at least 1, got 0"),
    "prolong-order-negative":
        (BASE + "[expect prolong T]\ntag = oracle\norder = -1\ncoeff x = 1\n",
         "load", "bad.prob [expect prolong T]: prolongation order must be at least 1, got -1"),
    "space-order-not-integer":
        (BASE.replace("order = 1", "order = two"), "load", "bad.prob [space]: "),
    "connection-empty-reduce":
        (BASE + "[expect connection s]\ntag = oracle\nreduce =\n",
         "load", "bad.prob [expect connection s]: connection needs 'reduce = "),
    # Each operation's argument count and kinds come from its row in
    # corpus.OPERATIONS and are checked at load.
    "symmetry-no-argument":
        (BASE + "[expect symmetry]\ntag = oracle\n",
         "load", "bad.prob [expect symmetry]: expected '[expect symmetry FIELD]'"),
    "symmetry-two-arguments":
        (BASE + "[expect symmetry T T]\ntag = oracle\n",
         "load", "bad.prob [expect symmetry T T]: expected '[expect symmetry FIELD]'"),
    "prolong-no-argument":
        (BASE + "[expect prolong]\ntag = oracle\ncoeff y' = 0\n",
         "load", "bad.prob [expect prolong]: expected '[expect prolong FIELD]'"),
    "transform-no-argument":
        (BASE + "[expect transform]\ntag = oracle\n",
         "load", "bad.prob [expect transform]: expected '[expect transform CHART]'"),
    "transform-field-for-chart":
        (BASE + "[expect transform T]\ntag = oracle\n",
         "load", "bad.prob [expect transform T]: unknown chart 'T'"),
    "lie-reduce-no-argument":
        (BASE + "[expect lie-reduce]\ntag = oracle\n",
         "load", "bad.prob [expect lie-reduce]: expected '[expect lie-reduce CHART]'"),
    "solution-no-argument":
        (BASE + "[expect solution]\ntag = oracle\n",
         "load", "bad.prob [expect solution]: expected '[expect solution SOLUTION]'"),
    "connection-no-argument":
        (BASE + "[expect connection]\ntag = oracle\nreduce = ode\n",
         "load", "bad.prob [expect connection]: expected '[expect connection SOLUTION]'"),
    "canonical-one-argument":
        (BASE + CHART + "[expect canonical T]\ntag = oracle\n",
         "load", "bad.prob [expect canonical T]: expected '[expect canonical FIELD CHART]'"),
    "canonical-swapped-arguments":
        (BASE + CHART + "[expect canonical c T]\ntag = oracle\n",
         "load", "bad.prob [expect canonical c T]: unknown field 'c'"),
    "pushforward-field-for-chart":
        (BASE + "[expect pushforward T T]\ntag = oracle\n",
         "load", "bad.prob [expect pushforward T T]: unknown chart 'T'"),
    "classify-one-argument":
        (BASE + CHART + "[expect classify c]\ntag = oracle\n",
         "load", "bad.prob [expect classify c]: expected '[expect classify FIELD CHART]'"),
    "algebra-stray-argument":
        (BASE + "[expect algebra T]\ntag = oracle\nclosed = true\n",
         "load", "bad.prob [expect algebra T]: expected '[expect algebra]'"),
    "connection-reduce-three-words":
        (BASE + "[expect connection s]\ntag = oracle\nreduce = ode y y\n",
         "load", "bad.prob [expect connection s]: connection needs 'reduce = "),
    "reduce-ode-two-targets":
        (BASE.replace("y' = y", "y' = 1") + "[expect reduce-ode y y]\ntag = oracle\n",
         "load", "bad.prob [expect reduce-ode y y]: expected '[expect reduce-ode [TARGET]]'"),
    # Only `equation` repeats in an expect body, and a true/false key takes
    # only those words.
    "expect-duplicate-key":
        (BASE + "[expect symmetry T]\ntag = oracle\nverdict = not-symmetry\n"
         "verdict = symmetry\n",
         "load", "bad.prob [expect symmetry T]: duplicate key 'verdict'"),
    "algebra-jacobi-not-true-false":
        (BASE + "[expect algebra]\ntag = oracle\njacobi = yes\n",
         "load", "bad.prob [expect algebra]: jacobi must be true or false, got 'yes'"),
    "canonical-verdict-not-true-false":
        (BASE + CHART + "canonical = v\n[expect canonical T c]\ntag = oracle\n"
         "verdict = ture\n",
         "load", "bad.prob [expect canonical T c]: verdict must be true or false, got 'ture'"),
    # `jacobi = false` expects a violation, as `closed = false` expects a
    # bracket outside the span.
    "algebra-jacobi-false-on-lie-algebra":
        (BASE + "[expect algebra]\ntag = oracle\njacobi = false\n", "algebra", "jacobi=ok"),
    # A solution's kind decides how it is checked: an antiderivative belongs
    # to a reduced solution, and a solution check takes a parent one, whose
    # components are dependent variables of the space.
    "solution-parent-with-antiderivative":
        (BASE.replace("y = exp(x)", "y = exp(x)\nantiderivative = x^2"),
         "load", "bad.prob [solution s]: an antiderivative needs kind = reduced"),
    "solution-check-of-reduced-solution":
        (BASE + "[solution r]\nkind = reduced\nalpha = x\n"
         "[expect solution r]\ntag = oracle\nverdict = true\n",
         "load", "bad.prob [expect solution r]: solution 'r' has kind reduced"),
    "parent-solution-unknown-component":
        (BASE.replace("y = exp(x)", "alpha = x") + "[expect solution s]\ntag = oracle\n",
         "load", "bad.prob [solution s]: 'alpha' is not a dependent variable"),
    # A prolongation coefficient names a coordinate within the expect's
    # order, which defaults to the space's.
    "prolong-coeff-above-space-order":
        (BASE + "[expect prolong T]\ntag = oracle\ncoeff y'' = 0\n",
         "load", "bad.prob [expect prolong T]: coeff \"y''\" is not a coordinate of order at most 1"),
    "prolong-coeff-above-expect-order":
        (BASE + "[expect prolong T]\ntag = oracle\norder = 2\ncoeff y''' = 0\n",
         "load", "bad.prob [expect prolong T]: coeff \"y'''\" is not a coordinate of order at most 2"),
    "prolong-coeff-unknown-variable":
        (BASE + "[expect prolong T]\ntag = oracle\ncoeff w' = 0\n",
         "load", "bad.prob [expect prolong T]: coeff \"w'\" is not a coordinate"),
    # An expect must give one of the keys its operation checks: without
    # one it would pass, or fail only when it runs.
    "prolong-checks-nothing":
        (BASE + "[expect prolong T]\ntag = oracle\norder = 1\n",
         "load", "bad.prob [expect prolong T]: checks nothing; give 'coeff *'"),
    "algebra-checks-nothing":
        (BASE + "[expect algebra]\ntag = oracle\nfields = T\n",
         "load", "bad.prob [expect algebra]: checks nothing; give 'closed' or 'bracket *' or "
         "'solvable' or 'series' or 'jacobi'"),
    "reduce-ode-checks-nothing":
        (BASE.replace("y' = y", "y' = 1") + "[expect reduce-ode]\ntag = oracle\naux = a\n",
         "load", "bad.prob [expect reduce-ode]: checks nothing; give 'equation' or "
         "'integrability'"),
    "transform-checks-nothing":
        (BASE + CHART + "inverse x = r\ninverse y = v\n[expect transform c]\ntag = oracle\n",
         "load", "bad.prob [expect transform c]: checks nothing; give 'equation'"),
    "lie-reduce-checks-nothing":
        (BASE + CHART + "canonical = v\n[expect lie-reduce c]\ntag = oracle\n",
         "load", "bad.prob [expect lie-reduce c]: checks nothing; give 'equation'"),
    "advice-checks-nothing":
        (BASE + "[expect advice T T]\ntag = oracle\n",
         "load", "bad.prob [expect advice T T]: checks nothing; give 'first'"),
    "commutator-checks-nothing":
        (BASE + "[expect commutator T T]\ntag = oracle\n",
         "load", "bad.prob [expect commutator T T]: checks nothing; give 'result'"),
    # A section that takes no name is rejected with one.
    "problem-named":
        (BASE + "[problem extra]\nid = bad\n",
         "load", "bad.prob: [problem] takes no name: 'problem extra'"),
    "space-named":
        (BASE.replace("[space]", "[space extra words]"),
         "load", "bad.prob: [space] takes no name: 'space extra words'"),
    "parent-named":
        (BASE + "[parent p]\nindependent = x\ndependent = u\norder = 2\n"
         "kind = ode\ntarget = u\naux = a\n",
         "load", "bad.prob: [parent] takes no name: 'parent p'"),
    "equations-named":
        (BASE.replace("[equations]", "[equations main]"),
         "load", "bad.prob: [equations] takes no name: 'equations main'"),
    # A verdict takes only its operation's words; an empty one is not the
    # default.
    "symmetry-empty-verdict":
        (BASE + "[expect symmetry T]\ntag = oracle\nverdict =\n",
         "load", "bad.prob [expect symmetry T]: verdict must be symmetry or not-symmetry, "
         "got ''"),
    "symmetry-misspelt-verdict":
        (BASE + "[expect symmetry T]\ntag = oracle\nverdict = symetry\n",
         "load", "bad.prob [expect symmetry T]: verdict must be symmetry or not-symmetry, "
         "got 'symetry'"),
    "classify-empty-verdict":
        (BASE + CHART + "[expect classify T c]\ntag = oracle\nverdict =\n",
         "load", "bad.prob [expect classify T c]: verdict must be point or nonlocal or "
         "inconclusive, got ''"),
    "classify-misspelt-verdict":
        (BASE + CHART + "[expect classify T c]\ntag = oracle\nverdict = nonlocall\n",
         "load", "bad.prob [expect classify T c]: verdict must be point or nonlocal or "
         "inconclusive, got 'nonlocall'"),
    "lift-empty-verdict":
        (BASE + PARENT + "[expect lift T]\ntag = oracle\nverdict =\n",
         "load", "bad.prob [expect lift T]: verdict must be point or nonlocal, got ''"),
    "lift-misspelt-verdict":
        (BASE + PARENT + "[expect lift T]\ntag = oracle\nverdict = pointt\n",
         "load", "bad.prob [expect lift T]: verdict must be point or nonlocal, got 'pointt'"),
    # advice's first names one of its two fields, or is `either`; a series
    # holds at least one integer.
    "advice-first-not-an-argument":
        (BASE + "[field U]\nx = x\n[expect advice T U]\ntag = oracle\nfirst = Q\n",
         "load", "bad.prob [expect advice T U]: first must be T or U or either, got 'Q'"),
    "algebra-empty-series":
        (BASE + "[expect algebra]\ntag = oracle\nseries =\n",
         "load", "bad.prob [expect algebra]: series must be an integer, got ''"),
    # Generators must be linearly independent: T twice, or T beside 2*T,
    # spans one dimension.
    "algebra-field-listed-twice":
        (BASE + "[expect algebra]\ntag = oracle\nfields = T T\nseries = 2 0\n",
         "algebra", "error: generators are linearly dependent"),
    "algebra-field-multiple-of-another":
        (BASE + "[field U]\nx = 2\n[expect algebra]\ntag = oracle\nseries = 2 0\n",
         "algebra", "error: generators are linearly dependent"),
    "equation-nested-400-deep":
        (BASE.replace("y' = y", f"y' = {DEEP}"), "load",
         "bad.prob [equations]: nested deeper than 100 levels at position "),
    # Past the interpreter's limit on the digits of an int read from text.
    "equation-number-of-5000-digits":
        (BASE.replace("y' = y", "y' = 2 + " + "1" * 5000 + "*y"), "load",
         "bad.prob [equations]: number of 5000 characters is too long at position "),
}


class TestRunCorpus:
    def test_full_corpus_passes(self, capsys):
        rc = main(["run-corpus"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failed" in out
        assert "discrepancy-documented" in out

    def test_filter(self, capsys):
        rc = main(["run-corpus", "--filter", "blasius", "--json"])
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rc == 0 and lines
        assert all(r["problem"].startswith("blasius") for r in lines)

    def test_json_runs_byte_identical(self, capsys):
        main(["run-corpus", "--filter", "two-scalings", "--json"])
        first = capsys.readouterr().out
        main(["run-corpus", "--filter", "two-scalings", "--json"])
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first.splitlines()[0])["ms"] is None

    def test_discrepancy_record(self, capsys):
        main(["run-corpus", "--filter", "two-scalings", "--json"])
        recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        noted = [r for r in recs if r["verdict"] == "discrepancy-documented"]
        assert len(noted) == 1
        assert noted[0]["operation"] == "commutator"
        assert "-2*X1" in noted[0]["expected"]

    def test_check_whose_text_names_inconclusive_fails(self, tmp_path, capsys):
        # The variable's name puts "inconclusive" into the failing check's
        # computed text; the verdict comes from the check, not its text.
        (tmp_path / "inc.prob").write_text(
            "[space]\nindependent = x\ndependent = inconclusive\norder = 2\n"
            "[equations]\ninconclusive'' = 0\n"
            "[field X]\ninconclusive = inconclusive^2\n"
            "[expect symmetry X]\ntag = oracle\n")
        rc = main(["run-corpus", str(tmp_path)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert lines[0].startswith("[FAIL] inc: symmetry X  computed: not-symmetry "
                                   "(residual 2*inconclusive'^2)  expected: symmetry")
        assert lines[1:] == ["1 checks: 0 passed, 0 discrepancy-documented, "
                             "0 inconclusive, 1 failed"]

    def test_empty_directory(self, tmp_path, capsys):
        rc = main(["run-corpus", str(tmp_path)])
        assert rc == 0
        assert "0 checks" in capsys.readouterr().out

    def test_invalid_file_reported_and_skipped(self, tmp_path, capsys):
        (tmp_path / "broken.prob").write_text("[space]\nindependent = x\n")
        (tmp_path / "ok.prob").write_text(
            "[space]\nindependent = x\ndependent = y\norder = 1\n"
            "[equations]\ny' = y\n"
            "[field T]\nx = 1\n"
            "[expect symmetry T]\ntag = oracle\nverdict = symmetry\n")
        rc = main(["run-corpus", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "[FAIL] broken: load" in out
        assert "[PASS] ok: symmetry T" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_file_fails_alone(self, tmp_path, capsys, case):
        text, check, computed = MALFORMED[case]
        (tmp_path / "bad.prob").write_text(text + GOOD_CHECK)
        (tmp_path / "ok.prob").write_text(BASE + GOOD_CHECK)
        rc = main(["run-corpus", str(tmp_path), "--json"])
        recs = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert rc == 1
        bad = [r for r in recs if r["problem"] == "bad"]
        assert bad[0]["check"] == check and bad[0]["verdict"] == "fail"
        assert bad[0]["computed"].startswith(computed)
        # The next check of the same file still runs unless the file is rejected.
        assert [r["verdict"] for r in bad] == (["fail"] if check == "load" else ["fail", "pass"])
        assert [r["verdict"] for r in recs if r["problem"] == "ok"] == ["pass"]


# Every shipped transform and classify check, as (file, problem id, check).
SHARED = [(path.name, pf.id, exp) for path in sorted(corpus_dir().glob("*.prob"))
          for pf in [load_problem(path)] for exp in pf.expects
          if exp.op in ("transform", "classify")]


@pytest.fixture(scope="module")
def corpus_computed():
    records, _ = run_corpus()
    return {(r.problem, r.check): r.computed for r in records}


@pytest.mark.parametrize("name, pid, exp", SHARED,
                         ids=[f"{pid}: {exp.label}" for _, pid, exp in SHARED])
def test_cli_computes_what_the_corpus_computed(capsys, corpus_computed, name, pid, exp):
    if exp.op == "transform":
        rc = main(["transform", "--problem", prob(name), "--chart", exp.args[0], "--json"])
        rec = json.loads(capsys.readouterr().out)
        got = "; ".join(rec["equations"])
    else:
        rc = main(["classify", "--problem", prob(name), "--field", exp.args[0],
                   "--chart", exp.args[1], "--json"])
        rec = json.loads(capsys.readouterr().out)
        got = str(Classification(rec["verdict"], rec["witness"], rec["criterion"]))
    assert rc == 0 and got == corpus_computed[(pid, exp.label)]
