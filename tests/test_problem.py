"""Problem-file parsing, validation, and the shipped corpus files."""

import pytest

from liereduce import ProblemError, load_problem
from liereduce.corpus import corpus_dir
from fresh import fresh
from mutate import escapes


def write(tmp_path, text, name="case.prob"):
    p = tmp_path / name
    p.write_text(text)
    return p


GOOD = """
[problem]
id = demo
title = demo problem

[space]
independent = x
dependent = y
order = 2

[equations]
y'' = (1+x)*y'^2 + y'

[field T]
y = 1

[solution neglog]
kind = parent
y = -log(x)

[expect symmetry T]
tag = literature
verdict = symmetry
"""


class TestLoadProblem:
    def test_good_file(self, tmp_path):
        pf = load_problem(write(tmp_path, GOOD))
        assert pf.id == "demo"
        assert len(pf.system.equations) == 1
        assert set(pf.fields) == {"T"}
        assert set(pf.solutions) == {"neglog"}
        assert len(pf.expects) == 1
        assert pf.expects[0].op == "symmetry"

    def test_unknown_expect_operation(self, tmp_path):
        bad = GOOD + "\n[expect frobnicate T]\ntag = oracle\n"
        with pytest.raises(ProblemError, match=r"case.prob: \[expect\] needs an operation from"):
            load_problem(write(tmp_path, bad))

    def test_empty_equations(self, tmp_path):
        bad = GOOD.replace("y'' = (1+x)*y'^2 + y'\n", "")
        with pytest.raises(ProblemError, match="empty equations"):
            load_problem(write(tmp_path, bad))

    def test_undeclared_variable_named(self, tmp_path):
        bad = GOOD.replace("y'' = (1+x)*y'^2 + y'", "y'' = z + y'")
        with pytest.raises(ProblemError, match="'z'"):
            load_problem(write(tmp_path, bad))

    def test_unknown_section(self, tmp_path):
        with pytest.raises(ProblemError, match="unknown section"):
            load_problem(write(tmp_path, GOOD + "\n[mystery]\nkey = 1\n"))

    def test_missing_space(self, tmp_path):
        bad = "\n".join(l for l in GOOD.splitlines()
                        if l not in ("[space]", "independent = x",
                                     "dependent = y", "order = 2"))
        with pytest.raises(ProblemError, match="missing \\[space\\]"):
            load_problem(write(tmp_path, bad))

    def test_expect_references_checked(self, tmp_path):
        bad = GOOD.replace("[expect symmetry T]", "[expect symmetry Q]")
        with pytest.raises(ProblemError, match="unknown field 'Q'"):
            load_problem(write(tmp_path, bad))

    def test_reduced_view_needs_parent(self, tmp_path):
        pf = load_problem(write(tmp_path, GOOD))
        with pytest.raises(ProblemError, match="demo: no \\[parent\\] section declared"):
            pf.reduced_view()

    def test_lift_needs_parent(self, tmp_path):
        bad = GOOD + "\n[expect lift T]\ntag = oracle\nverdict = point\n"
        with pytest.raises(ProblemError, match="parent"):
            load_problem(write(tmp_path, bad))

    def test_bad_tag(self, tmp_path):
        bad = GOOD.replace("tag = literature", "tag = folklore")
        with pytest.raises(ProblemError, match="tag"):
            load_problem(write(tmp_path, bad))

    def test_content_before_section(self, tmp_path):
        with pytest.raises(ProblemError, match="before any"):
            load_problem(write(tmp_path, "id = x\n" + GOOD))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ProblemError, match="cannot read"):
            load_problem(tmp_path / "absent.prob")

    def test_file_not_utf8(self, tmp_path):
        (tmp_path / "latin.prob").write_bytes(GOOD.replace("demo", "d\xe9mo").encode("latin-1"))
        with pytest.raises(ProblemError, match="^latin.prob: cannot read: 'utf-8' codec"):
            load_problem(tmp_path / "latin.prob")

    def test_exact_power_bound_located(self, tmp_path):
        # Before the bound this hung, so it runs in a fresh interpreter.
        path = write(tmp_path, GOOD.replace("y'' = (1+x)", "y'' = 3^31^31*(1+x)"))
        assert fresh(f"load_problem({str(path)!r})") == \
            "ProblemError case.prob [equations]: exact power beyond 1048576 bits"

    def test_mutants_load_or_fail_located(self):
        # Line-level mutants of the shipped files (tests/mutate.py); CI runs
        # the same check on 3000.
        assert escapes(300) == []


class TestShippedCorpus:
    def test_all_files_load(self):
        files = sorted(corpus_dir().glob("*.prob"))
        assert len(files) >= 12
        total = 0
        for f in files:
            pf = load_problem(f)
            assert pf.expects, f"{f.name} has no expected results"
            total += len(pf.expects)
        assert total >= 60

    def test_reduced_view_available_where_declared(self):
        pf = load_problem(corpus_dir() / "bernoulli-reduced.prob")
        red = pf.reduced_view()
        assert red.connection.eliminated == "y"
        assert dict(red.connection.aux_defs)["alpha"].name == "y'"

    def test_expect_accessors(self):
        pf = load_problem(corpus_dir() / "two-scalings.prob")
        comm = [e for e in pf.expects if e.op == "commutator"][0]
        assert comm.one("result") == "-X1"
        assert comm.one("stated") == "-2*X1"
        assert comm.tag == "oracle"
        pro = [e for e in pf.expects if e.op == "pushforward"][0]
        assert len(pro.prefixed("coeff")) == 2
