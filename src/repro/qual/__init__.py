"""Core qualifier-inference framework from *A Theory of Type Qualifiers*.

The subpackage is organised as the paper presents the system:

* :mod:`repro.qual.lattice` — qualifiers and the product qualifier lattice
  (Definitions 1 and 2).
* :mod:`repro.qual.qualifiers` — the paper's standard qualifier vocabulary
  (const, nonzero, dynamic, nonnull, tainted, sorted, local).
* :mod:`repro.qual.qtypes` — standard and qualified types, the strip /
  bottom-embedding translations, and the ``sp`` spread operator.
* :mod:`repro.qual.subtype` — structural subtyping rules and their
  decomposition into atomic constraints (including the deliberately
  unsound covariant-ref rule for the ablation study).
* :mod:`repro.qual.constraints` — subtype and atomic qualifier
  constraints (``rho <= rho'``, ``Q <= Q'``) with origins.
* :mod:`repro.qual.solver` — the linear-time atomic-constraint solver with
  least/greatest solutions and must / must-not / either classification.
* :mod:`repro.qual.wellformed` — per-qualifier well-formedness conditions.
* :mod:`repro.qual.poly` — polymorphic constrained qualifier types
  (``forall kappa. rho \\ C``) and generalisation, which quantifies the
  local variables of a constraint system (``exists kappa. C``).
"""

from .lattice import (
    LatticeElement,
    LatticeError,
    Polarity,
    Qualifier,
    QualifierLattice,
    negative,
    positive,
    product,
    two_point,
)
from .qualifiers import (
    ALL_QUALIFIERS,
    ALLOC,
    CONST,
    DYNAMIC,
    FREED,
    LOCAL,
    NONNULL,
    NONZERO,
    RELEASED,
    SORTED,
    TAINTED,
    binding_time_lattice,
    const_lattice,
    const_nonzero_lattice,
    make_lattice,
    nonnull_lattice,
    paper_figure2_lattice,
    resource_lattice,
    sorted_lattice,
    taint_lattice,
)
from .qtypes import (
    FUN,
    INT,
    LIST,
    PAIR,
    QCon,
    QType,
    Qual,
    QualVar,
    REF,
    ShapeVar,
    StdCon,
    StdType,
    StdVar,
    STD_INT,
    STD_UNIT,
    TypeConstructor,
    UNIT,
    Variance,
    apply_qual_subst,
    embed_bottom,
    embed_const,
    format_qtype,
    fresh_qual_var,
    q_fun,
    q_int,
    q_ref,
    q_unit,
    q_var,
    qt,
    qual_vars,
    quals_of,
    same_shape,
    spread,
    std_fun,
    std_ref,
    strip,
)
from .constraints import (
    Origin,
    QualConstraint,
    SubtypeConstraint,
)
from .subtype import (
    ShapeMismatch,
    decompose,
    decompose_all,
    is_equal,
    is_subtype,
    unsound_ref_decompose,
)
from .solver import (
    Classification,
    Solution,
    UnsatisfiableError,
    check_ground,
    satisfiable,
    solve,
)
from .wellformed import (
    ChildQualLeqParent,
    OnlyOnConstructors,
    ParentQualLeqChild,
    Violation,
    generate,
    is_wellformed,
    violations,
)
from .poly import (
    QualScheme,
    generalize,
    minimize_scheme,
    monomorphic,
    rename_constraints,
    restrict_constraints,
    simplify_scheme,
)

__all__ = [name for name in dir() if not name.startswith("_")]
