"""Records: every record type is read-only, equal when built from equal
arguments and to its deep copy, and hashable exactly when its fields are;
importing the package loads neither ``dataclasses`` nor ``inspect``."""

import copy
import subprocess
import sys

import pytest

from liereduce import (Advice, AlgebraTable, Classification, Connection, DESystem,
                       JetSpace, PointTransformation, ProlongedField, Pushforward,
                       ReducedSystem, Report, SymmetryReport, VectorField,
                       first_order_jets, sym)
from liereduce.expr import KERNELS, KernelRule
from liereduce.problem import Expect, ProblemFile, Solution
from fresh import SRC

x, y, r, s = sym("x"), sym("y"), sym("r"), sym("s")


def space():
    return JetSpace(("x",), ("y",), 2)


def field():
    return VectorField(space(), {"x": x, "y": 2 * y})


def system():
    return DESystem.build(space(), ["y'' = y"])


def connection():
    return Connection(space(), "y", ("alpha",))


def chart():
    return PointTransformation(space(), (("r", x),), (("s", y),), canonical="s")


# Each record type with a builder of one instance; each call builds fresh,
# equal arguments.
RECORDS = {
    "AlgebraTable": lambda: AlgebraTable((field(),), {}, {}),
    "Advice": lambda: Advice(0, 1),
    "Pushforward": lambda: Pushforward(("r", "s"), {"r": r}, suggested_scale=2),
    "Classification": lambda: Classification("nonlocal", "s", "witness"),
    "Report": lambda: Report("p", "symmetry X", "symmetry", "pass", "symmetry", "symmetry"),
    "KernelRule": lambda: KernelRule(KERNELS["exp"].deriv, KERNELS["exp"].fn),
    "ProlongedField": lambda: ProlongedField(field(), 1, {"y'": y}),
    "Solution": lambda: Solution("parent", {"y": "exp(x)"}),
    "Expect": lambda: Expect("symmetry", ("X",), "oracle", {"verdict": "symmetry"}),
    "Connection": connection,
    "ReducedSystem": lambda: ReducedSystem(system(), ("reduced",), connection()),
    "DESystem": system,
    "SymmetryReport": lambda: SymmetryReport("not-symmetry", (y,)),
    "JetSpace": space,
    "VectorField": field,
    "PointTransformation": chart,
    "ProblemFile": lambda: ProblemFile("p.prob", "p", "", space(), system(), {"X": field()},
                                       {"c": chart()}, {}, ()),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_is_a_read_only_value(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert type(a).__name__ == name
    with pytest.raises(AttributeError):
        setattr(a, a._fields[0], None)
    with pytest.raises(AttributeError):
        delattr(a, a._fields[0])
    assert a == b and not a != b and a != object()
    assert copy.deepcopy(a) == a
    try:
        hash(tuple(getattr(a, f) for f in a._fields))
    except TypeError:  # a mapping field
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


def test_pushforward_is_flagged_exactly_when_source_coordinates_remain():
    # The flag is read from residual_vars, so the two cannot disagree.
    assert "flagged" not in Pushforward._fields
    assert not RECORDS["Pushforward"]().flagged
    assert Pushforward(("r",), {"r": x}, residual_vars=("x",)).flagged


def test_problem_memo_takes_no_part_in_equality():
    a, b = RECORDS["ProblemFile"](), RECORDS["ProblemFile"]()
    a.pushforward("X", "c")
    assert a == b
    with pytest.raises(AttributeError):
        a._memo = {}


def test_chart_first_order_jets_take_no_part_in_equality():
    a, b = chart(), chart()
    first = first_order_jets(a)
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert copy.copy(a) == a and copy.deepcopy(a) == b
    assert copy.copy(a)._first_order is None  # a copy solves afresh
    assert first_order_jets(a) is first
    with pytest.raises(AttributeError):
        a._first_order = None


def test_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import liereduce; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, SRC], capture_output=True,
                         text=True, timeout=30, check=True)
    assert run.stdout.strip() == "[]"
