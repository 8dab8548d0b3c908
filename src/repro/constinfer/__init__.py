"""Const inference for C (paper Section 4).

* :mod:`repro.constinfer.analysis` — constraint generation over C ASTs:
  the ``l`` translation applied to declarations, (Assign') write
  restrictions, struct-field sharing, cast severing, library
  conservatism.
* :mod:`repro.constinfer.fdg` — the function dependence graph and its
  SCC decomposition (Definition 4).
* :mod:`repro.constinfer.engine` — the monomorphic, polymorphic and
  polymorphic-recursive engines and the three-way must / must-not /
  either classification.  A run's ``solution.stats``
  (:class:`~repro.qual.solver.SolverStats`) counts its constraint system.
* :mod:`repro.constinfer.cache` — the content-addressed analysis cache.
* :mod:`repro.constinfer.results` — Table 1 / Table 2 / Figure 6 counts
  and rendering.
* :mod:`repro.constinfer.annotate` — writing inferred consts back into
  the program text.
* :mod:`repro.constinfer.cli` — the ``quals-const`` driver.
"""

from .analysis import ConstInference, ConstPosition, FunctionSig
from .annotate import Suggestion, annotate_source, format_report, suggestions
from .engine import (
    ConstInferenceError,
    InferenceRun,
    run_mono,
    run_poly,
    run_polyrec,
)
from .fdg import FunctionDependenceGraph
from .results import (
    BenchmarkRow,
    analyze_program,
    format_figure6,
    format_table1,
    format_table2,
    make_row,
    summarize_shape_claims,
)

__all__ = [name for name in dir() if not name.startswith("_")]
