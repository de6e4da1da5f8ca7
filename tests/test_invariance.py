"""Symmetry invariance over every shipped chart: a point symmetry stays a
symmetry under a change of variables (Olver, *Applications of Lie Groups to
Differential Equations*, ch. 2).  So each symmetry of a shipped problem,
pushed through the full point map of each of its charts, must be a symmetry
of the transformed system.  The oracle needs no expected output, so it
cross-checks ``transform_de``, ``prolong``, ``reduce_on_manifold`` and
``check_point_symmetry`` against each other, on charts whose ``transform``
the corpus states and on those it does not."""

import pytest

from liereduce import (PointTransformation, SystemError_, VectorField,
                       check_point_symmetry, substitute)
from liereduce.corpus import corpus_dir
from liereduce.problem import load_problem

PROBLEMS = {path.stem: load_problem(path) for path in sorted(corpus_dir().glob("*.prob"))}
# (problem, chart, field): every chart with an inverse map, with every field
# that is a symmetry of its problem.
PAIRS = [(name, chart, field)
         for name, pf in PROBLEMS.items()
         for chart, T in sorted(pf.charts.items()) if T.inverse is not None
         for field, X in sorted(pf.fields.items())
         if check_point_symmetry(pf.system, X).is_symmetry]
# The transformed system of this chart has solved forms for s1_1 and s1_2
# that name each other, so the check meets a cycle (ROADMAP item 3, a joint
# solve of the leads).
CYCLE = ("power-diffusion-gradient", "further", "Ybig")


def pushed(X: VectorField, T: PointTransformation, space) -> VectorField:
    """X on the chart's target coordinates: X applied to each target's
    defining expression, written in the targets through the inverse map."""
    return VectorField(space, {n: substitute(X.apply_to(e), T.inverse)
                               for n, e in T.target_independent + T.target_dependent})


def test_every_pair_is_checked():
    assert len(PAIRS) == 25 and CYCLE in PAIRS


@pytest.mark.parametrize("name, chart, field", [
    pytest.param(*pair, marks=pytest.mark.xfail(
        strict=True, raises=SystemError_,
        reason="solved forms that name each other (ROADMAP item 3)"))
    if pair == CYCLE else pair for pair in PAIRS], ids=["/".join(p) for p in PAIRS])
def test_symmetry_survives_the_change_of_variables(name, chart, field):
    pf = PROBLEMS[name]
    system = pf.transformed(chart)
    Y = pushed(pf.fields[field], pf.charts[chart], system.space)
    assert check_point_symmetry(system, Y).verdict == "symmetry"
