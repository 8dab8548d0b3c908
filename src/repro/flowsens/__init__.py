"""Flow-sensitive type qualifiers — the paper's Section 6 proposal,
prototyped.

The base framework gives each location one qualified type for the whole
program; lclint-style checking needs qualifiers that vary per program
point.  This package implements the paper's sketched solution: a
distinct qualifier variable per location per point, with subtyping
constraints between adjacent points except across strong updates.

* :mod:`repro.flowsens.language` — the small imperative language
  (assignments, havoc, annotations/assertions, conditional refinement,
  branches, loops).
* :mod:`repro.flowsens.analysis` — the constraint-based forward
  analysis, solved with the unchanged atomic solver: strongly updated
  scalars plus the weak-update half, flow-insensitive heap cells behind
  a small flow-sensitive points-to map.  Its ``FlowAnalysis`` is the
  one walker of the language; the resource pack subclasses it.
* :mod:`repro.flowsens.lower` — best-effort lowering from cfront
  function bodies into this language (pointer events, branches, loops,
  havoc for everything unsupported).
* :mod:`repro.flowsens.linear` — the linearity/resource pack: alloc/
  freed qualifier tracking with strong updates, detecting double-free,
  use-after-free, and leak-on-exit-path with flow-path diagnostics.
"""

from .analysis import (
    CheckFailure,
    FlowAnalysis,
    FlowError,
    FlowResult,
    analyze_flow,
)
from .language import (
    AnnotStmt,
    Assign,
    AssertStmt,
    Block,
    CallVia,
    CopyPtr,
    ExitPoint,
    FlowExpr,
    FlowStmt,
    FreeCell,
    Havoc,
    If,
    Join,
    Literal,
    LoadCell,
    NewCell,
    Refine,
    StoreCell,
    UseCell,
    VarRef,
    While,
    block,
)
from .linear import (
    DOUBLE_FREE,
    RESOURCE_LEAK,
    USE_AFTER_FREE,
    FlowPathStep,
    ResourceAnalysis,
    ResourceEvidence,
    ResourceFinding,
    ResourceReport,
    analyze_function_resources,
    analyze_lowered,
)
from .lower import (
    DEFAULT_POLICY,
    AllocSite,
    LoweredFunction,
    LowerPolicy,
    lower_function,
)
from .ownership import (
    PARAM_BORROWS,
    PARAM_ESCAPES,
    PARAM_FREES,
    OwnershipSummary,
    escaping_summary,
    infer_function_ownership,
    join_summaries,
    with_summaries,
)

__all__ = [name for name in dir() if not name.startswith("_")]
