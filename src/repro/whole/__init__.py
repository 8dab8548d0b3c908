"""Whole-program qualifier analysis: linker model, cross-TU call graph,
and link-time joining of per-TU polymorphic summaries.

The per-unit pipeline (``constinfer``, ``checker``) analyses one
translation unit at a time, so qualifier flows through ``extern``
symbols and indirect calls are invisible.  This package links several
translation units into one analysis, matching the paper's Section 4
evaluation over whole multi-file benchmarks:

* :mod:`repro.whole.linker` — a program-level symbol table implementing
  C linkage rules: ``extern`` declarations merge with the defining TU,
  ``static`` symbols stay TU-private (renamed deterministically), and
  conflicting qualified types across units are diagnosed;
* :mod:`repro.whole.callgraph` — a cross-TU call graph whose indirect
  call sites are resolved against the address-taken, type-compatible
  defined functions;
* :mod:`repro.whole.engine` — the callees-first SCC traversal lifted
  to the cross-TU function dependence graph, grouped per TU so each
  translation unit (or cycle of units) is one cacheable work item;
* :mod:`repro.whole.summary` — each TU group's output (constraints,
  positions, and the ``forall kappa. rho \\ C`` scheme per exported
  symbol) serialized through the content-addressed analysis cache, so a
  warm rebuild re-links summaries without re-running constraint
  generation.
"""

from .callgraph import WholeProgramCallGraph
from .engine import (
    WholeProgramRun,
    affected_units,
    run_whole_poly,
    tu_dependence_graph,
)
from .linker import (
    LinkDiagnostic,
    LinkedProgram,
    LinkedSymbol,
    link_paths,
    link_sources,
    link_units,
)
from .ownership import infer_ownership_summaries, ownership_for_linked
from .summary import (
    TUSummary,
    dependency_closure,
    shared_layout_digest,
)

__all__ = [
    "LinkDiagnostic",
    "LinkedProgram",
    "LinkedSymbol",
    "TUSummary",
    "WholeProgramCallGraph",
    "WholeProgramRun",
    "affected_units",
    "dependency_closure",
    "infer_ownership_summaries",
    "link_paths",
    "link_sources",
    "link_units",
    "ownership_for_linked",
    "run_whole_poly",
    "shared_layout_digest",
    "tu_dependence_graph",
]
