"""liereduce: symmetry-based order reduction for ODEs and PDEs.

Exact symbolic machinery for prolonging point-symmetry generators, verifying
symmetries on the solution manifold, changing variables to canonical
coordinates, constructing nonlocally related reduced systems (with
integrability conditions for PDEs), classifying inherited symmetries as point
or nonlocal, and analysing solvable generator algebras; plus a problem-file
corpus format and CLI.
"""

from .expr import (Add, DomainError, Expr, ExprError, Kernel, Mul, Pow, Rat,
                   Sym, ZERO, ONE, add, clear_denominators, diff,
                   eval_numeric, free_vars, kernel, mul, normalize, power,
                   rat, render, substitute, sym)
from .parse import ParseError, parse_expr
from .equiv import SamplingDomainError, equiv, is_zero
from .jets import (JetError, JetSpace, ProlongedField, VectorField, prolong,
                   total_derivative)
from .systems import (DESystem, SymmetryReport, SystemError_,
                      check_point_symmetry, reduce_on_manifold,
                      verify_solution)
from .charts import (ChartError, PointTransformation, Pushforward,
                     SingularMapError, jet_dictionaries, pushforward_field,
                     solve_affine, transform_de, verify_canonical)
from .reduction import (Connection, ReducedSystem, ReductionError, lie_reduce,
                        reduce_ode, reduce_pde, verify_connection)
from .classify import (Classification, ClassifyError, classify_pushforward,
                       gradient_poly, lift_test)
from .algebra import (Advice, AlgebraError, AlgebraTable, commutator,
                      is_solvable, reduction_order_advice, structure_constants)
from .problem import ProblemError, ProblemFile, load_problem
from .corpus import Report, corpus_dir, run_corpus

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
