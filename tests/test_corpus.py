"""Corpus runner: a record does not depend on which checks ran before it on
the same loaded problem, and each derived artifact is computed once."""

import pytest

from liereduce import ExprError, lie_reduce, problem
from liereduce.corpus import corpus_dir, run_corpus, run_expect
from liereduce.problem import load_problem

PATHS = sorted(corpus_dir().glob("*.prob"))
# Every shipped check as (file, expect index), in run_corpus's record order.
CHECKS = [(path, exp.index) for path in PATHS for exp in load_problem(path).expects]


@pytest.fixture(scope="module")
def full_run():
    records, _ = run_corpus()
    assert len(records) == len(CHECKS)
    return records


@pytest.mark.parametrize("position", range(len(CHECKS)),
                         ids=[f"{path.stem}-{i}" for path, i in CHECKS])
def test_check_alone_matches_full_run(full_run, position):
    path, index = CHECKS[position]
    pf = load_problem(path)  # freshly loaded: nothing derived yet
    alone = run_expect(pf, pf.expects[index])
    assert alone.to_dict() == full_run[position].to_dict()


def _calls(monkeypatch, name: str) -> list:
    """The argument tuples of every later call the memo makes to ``name``."""
    calls, orig = [], getattr(problem, name)

    def counted(*args):
        calls.append(args)
        return orig(*args)

    monkeypatch.setattr(problem, name, counted)
    return calls


def test_each_artifact_computed_once(monkeypatch):
    transforms = _calls(monkeypatch, "transform_de")
    constants = _calls(monkeypatch, "structure_constants")
    run_corpus()
    charts, tables = set(), set()
    for path in PATHS:
        pf = load_problem(path)
        for exp in pf.expects:
            if exp.op in ("transform", "lie-reduce"):
                charts.add((path, exp.args[0]))
            elif exp.op == "classify":
                charts.add((path, exp.args[1]))
            elif exp.op in ("commutator", "advice", "algebra"):
                names = exp.one("fields", "").split() if exp.op == "algebra" else ()
                tables.add((path, tuple(names or sorted(pf.fields))))
    assert (len(transforms), len(constants)) == (len(charts), len(tables))


NO_INVERSE = ("[space]\nindependent = x\ndependent = y\norder = 1\n"
              "[equations]\ny' = y\n"
              "[chart c]\nindependent = r\ndependent = v\nr = x\nv = y\n"
              + "[expect transform c]\ntag = oracle\nequation = v' = v\n" * 2)


def test_failed_transform_is_not_stored(tmp_path, monkeypatch):
    calls = _calls(monkeypatch, "transform_de")
    (tmp_path / "no-inverse.prob").write_text(NO_INVERSE)
    records, failed = run_corpus(tmp_path)
    first, second = (r.to_dict() for r in records)
    assert failed and first == second
    assert first["computed"] == "error: transform_de needs the chart's inverse base map"
    assert len(calls) == 2


# Charts over y' = y whose lie reduction fails, each with the first error:
# the canonical coordinate is checked before the transform, and the
# transform before the reduction.
LIE_FAILURES = {
    "a": ("", "chart has no designated canonical coordinate"),
    "b": ("canonical = r\n", "the canonical coordinate must be a target dependent variable"),
    "c": ("canonical = v\n", "transform_de needs the chart's inverse base map"),
    "d": ("canonical = v\ninverse x = r\ninverse y = v\n",
          "'v' appears undifferentiated; transform to canonical (translated) form first"),
}


def test_lie_reduction_fails_like_lie_reduce(tmp_path):
    text = "[space]\nindependent = x\ndependent = y\norder = 1\n[equations]\ny' = y\n"
    for name, (extra, _) in LIE_FAILURES.items():
        text += f"[chart {name}]\nindependent = r\ndependent = v\nr = x\nv = y\n{extra}"
        text += f"[expect lie-reduce {name}]\ntag = oracle\nequation = v = 0\n"
    (tmp_path / "lie.prob").write_text(text)
    pf = load_problem(tmp_path / "lie.prob")
    for exp in pf.expects:
        with pytest.raises(ExprError) as exc:
            lie_reduce(pf.system, pf.charts[exp.args[0]])
        assert str(exc.value) == LIE_FAILURES[exp.args[0]][1]
        assert run_expect(pf, exp).computed == f"error: {exc.value}"
