"""Qualified type inference for the example language (Sections 2.3–3.2).

The implementation follows the paper's factorisation: standard type
inference (unification, :mod:`repro.lam.stdtypes`) runs first and fixes
the *shape* of every node's type; a second pass then spreads those shapes
into qualified types with fresh qualifier variables (the ``sp`` operator)
and generates atomic qualifier constraints according to the rules of
Figure 4b plus the reference rules of Section 2.4:

* subsumption is applied at every flow (function argument, if-branches,
  assignment value, polymorphic variable use);
* ``(SubRef)`` invariance makes stored contents equal across aliases;
* ``(Annot)`` checks ``Q <= l`` and sets the top-level qualifier to ``l``;
* ``(Assert)`` checks ``Q <= l`` and leaves the type unchanged;
* per-qualifier hooks (:class:`QualifiedLanguage`) inject extra
  constraints, e.g. (Assign') demands the assignment target lack const,
  and a nonnull discipline demands dereference targets carry nonnull.

With ``polymorphic=True``, let-bound syntactic values are generalised over
their qualifier variables (Letv) and instantiated fresh at each use
(Var'), exactly the Section 3.2 system; the underlying types stay
monomorphic throughout.

Solving is a single linear-time pass (:mod:`repro.qual.solver`); the
result carries both extreme solutions so callers can classify qualifier
positions or read off the least qualified type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

from ..qual.constraints import Origin, QualConstraint
from ..qual.lattice import LatticeElement, QualifierLattice
from ..qual.poly import QualScheme, generalize, monomorphic
from ..qual.qtypes import (
    QCon,
    QType,
    Qual,
    QualVar,
    REF,
    FUN,
    fresh_qual_var,
    map_quals,
    qual_vars,
    spread,
)
from ..qual.solver import Solution, UnsatisfiableError, solve
from ..qual.subtype import (
    ShapeMismatch,
    SubtypeConstraint,
    decompose,
    unsound_ref_decompose,
)
from ..qual.wellformed import WellFormednessRule
from .ast import (
    Annot,
    App,
    Assert,
    Assign,
    Deref,
    Expr,
    If,
    IntLit,
    Lam,
    Let,
    Loc,
    Ref,
    Span,
    UnitLit,
    Var,
)
from .stdtypes import StdTypeError, infer_std


class QualTypeError(Exception):
    """Qualifier inference failed.

    Either the underlying program has no standard type, or the qualifier
    constraints are unsatisfiable (e.g. assignment through a const
    reference, or a failed assertion).
    """


@dataclass(frozen=True)
class QualifiedLanguage:
    """A qualifier instantiation of the language: the lattice plus the
    per-qualifier rule modifications of Section 2.4.

    Attributes:
        lattice: the qualifier lattice in force.
        assign_restrictions: qualifier names that must be *absent* on the
            reference being assigned through — ``("const",)`` yields the
            paper's (Assign') rule.
        deref_requirements: negative qualifier names that must be *present*
            on the reference being dereferenced — ``("nonnull",)`` yields
            an lclint-style null-dereference discipline.
        guard_requirements: negative qualifier names required on an
            if-guard's integer (rarely used; provided for symmetry).
        wellformed: well-formedness rules applied to every node's type.
        literal_rule: optional override for the (Int) rule, mapping a
            literal's value to its qualifier lower bound.  The paper's
            default gives every literal bottom; a qualifier designer who
            adds ``nonzero`` modifies the rule so that ``0`` enters the
            system *without* nonzero (see :func:`nonzero_literal_rule`),
            which is what makes the Section 2.4 counterexample a type
            error under the sound (SubRef) rule.
    """

    lattice: QualifierLattice
    assign_restrictions: tuple[str, ...] = ()
    deref_requirements: tuple[str, ...] = ()
    guard_requirements: tuple[str, ...] = ()
    wellformed: tuple[WellFormednessRule, ...] = ()
    literal_rule: "Callable[[int, QualifierLattice], LatticeElement] | None" = None
    #: When set, an if-expression's result qualifier is at least its
    #: guard's — the rule modification binding-time analysis needs (the
    #: branch taken depends on the guard, so a dynamic guard makes the
    #: result dynamic).  Off by default: the paper's base (If) rule does
    #: not connect them.
    guard_flows_to_result: bool = False

    def literal_qual(self, value: int) -> LatticeElement:
        """Qualifier lower bound for an integer literal (rule (Int))."""
        if self.literal_rule is not None:
            return self.literal_rule(value, self.lattice)
        return self.lattice.bottom


def nonzero_literal_rule(value: int, lattice: QualifierLattice) -> LatticeElement:
    """The (Int) rule refined for the nonzero qualifier: a zero literal
    enters the system with nonzero removed; anything else at bottom
    (which, for a negative qualifier, *includes* nonzero)."""
    if value == 0 and "nonzero" in lattice:
        return lattice.bottom.without_qualifier("nonzero")
    return lattice.bottom


def const_language(lattice: QualifierLattice | None = None) -> QualifiedLanguage:
    """The Section 2.4 configuration: const with the (Assign') rule."""
    from ..qual.qualifiers import const_lattice

    lat = lattice if lattice is not None else const_lattice()
    if "const" not in lat:
        raise ValueError("const_language requires a lattice containing 'const'")
    return QualifiedLanguage(lat, assign_restrictions=("const",))


def plain_language(lattice: QualifierLattice) -> QualifiedLanguage:
    """A configuration with no extra qualifier rules (annotations and
    assertions only) — the 'sorted' style of Section 2.3."""
    return QualifiedLanguage(lattice)


@dataclass
class Inference:
    """Result of qualified inference: the type, the constraint system, and
    its extreme solutions."""

    qtype: QType
    constraints: list[QualConstraint]
    solution: Solution
    lattice: QualifierLattice
    #: Qualified type of every node, keyed by ``id(node)``.
    node_qtypes: dict[int, QType] = field(default_factory=dict)
    #: Schemes assigned to let-bound values (polymorphic runs only),
    #: keyed by ``id(let_node)``.
    let_schemes: dict[int, QualScheme] = field(default_factory=dict)

    def least_qtype(self, t: QType | None = None) -> QType:
        """Replace every qualifier variable by its least solution."""
        target = t if t is not None else self.qtype

        def least(q: Qual) -> Qual:
            if isinstance(q, QualVar):
                return self.solution.least_of(q)
            return q

        return map_quals(target, least)

    def greatest_qtype(self, t: QType | None = None) -> QType:
        """Replace every qualifier variable by its greatest solution."""
        target = t if t is not None else self.qtype

        def greatest(q: Qual) -> Qual:
            if isinstance(q, QualVar):
                return self.solution.greatest_of(q)
            return q

        return map_quals(target, greatest)

    def top_qual(self) -> LatticeElement:
        """Least solution of the result's top-level qualifier."""
        q = self.qtype.qual
        if isinstance(q, QualVar):
            return self.solution.least_of(q)
        return q


class _InferencePass:
    def __init__(
        self,
        language: QualifiedLanguage,
        node_std_types: dict[int, object],
        polymorphic: bool,
        store_qtypes: dict[int, QType] | None = None,
        ref_rule: str = "sound",
    ):
        self.language = language
        self.lattice = language.lattice
        self.node_std = node_std_types
        self.polymorphic = polymorphic
        self.constraints: list[QualConstraint] = []
        self.node_qtypes: dict[int, QType] = {}
        self.let_schemes: dict[int, QualScheme] = {}
        self.store_qtypes = store_qtypes or {}
        if ref_rule not in ("sound", "unsound"):
            raise ValueError(f"ref_rule must be 'sound' or 'unsound', got {ref_rule!r}")
        self.ref_rule = ref_rule

    # -- helpers ---------------------------------------------------------
    def origin(self, reason: str, span: Span) -> Origin:
        return Origin(reason, line=span.line or None, column=span.column or None)

    def emit(self, lhs: Qual, rhs: Qual, origin: Origin) -> None:
        self.constraints.append(QualConstraint(lhs, rhs, origin))

    def flow(self, src: QType, dst: QType, origin: Origin) -> None:
        """Subsumption: decompose ``src <= dst`` into atomic constraints.

        The ``unsound`` ref rule (covariant references, the rule the paper
        rejects in Section 2.4) is selectable purely for the ablation
        study; everything else uses the sound (SubRef) equality rule.
        """
        decomposer = decompose if self.ref_rule == "sound" else unsound_ref_decompose
        try:
            self.constraints.extend(decomposer(SubtypeConstraint(src, dst, origin)))
        except ShapeMismatch as exc:
            raise QualTypeError(str(exc)) from exc

    def spread_node(self, e: Expr) -> QType:
        """Spread the node's standard type with fresh qualifier variables."""
        std = self.node_std.get(id(e))
        if std is None:  # pragma: no cover - standard pass covers all nodes
            raise QualTypeError(f"internal: node without standard type: {e}")
        qtype = spread(std)  # type: ignore[arg-type]
        self.apply_wellformed(qtype, e.span)
        return qtype

    def apply_wellformed(self, qtype: QType, span: Span) -> None:
        if not self.language.wellformed:
            return
        from ..qual.wellformed import generate

        origin = self.origin("well-formedness", span)
        self.constraints.extend(generate(qtype, self.language.wellformed, self.lattice, origin))

    def record(self, e: Expr, qtype: QType) -> QType:
        self.node_qtypes[id(e)] = qtype
        return qtype

    def expect_fun(self, qtype: QType, span: Span) -> tuple[Qual, QType, QType]:
        if qtype.constructor is not FUN:
            raise QualTypeError(f"expected a function type at {span}, got {qtype}")
        dom, rng = qtype.args
        return qtype.qual, dom, rng

    def expect_ref(self, qtype: QType, span: Span) -> tuple[Qual, QType]:
        if qtype.constructor is not REF:
            raise QualTypeError(f"expected a ref type at {span}, got {qtype}")
        return qtype.qual, qtype.args[0]

    def resolve_literal(self, e: Annot | Assert) -> LatticeElement:
        try:
            return e.qual.resolve(self.lattice)
        except Exception as exc:
            raise QualTypeError(
                f"unknown qualifier in {e.qual} at {e.span}: {exc}"
            ) from exc

    # -- the syntax-directed rules ----------------------------------------
    def visit(self, e: Expr, scope: dict[str, QualScheme]) -> QType:
        match e:
            case IntLit(value=v):
                qtype = self.spread_node(e)
                # (Int): literals enter at the language's literal qualifier
                # (bottom by default); the fresh variable is only bounded
                # below, leaving room for subsumption.
                self.emit(
                    self.language.literal_qual(v),
                    qtype.qual,
                    self.origin("integer literal", e.span),
                )
                return self.record(e, qtype)

            case UnitLit():
                return self.record(e, self.spread_node(e))

            case Var(name=n):
                if n not in scope:
                    raise QualTypeError(f"unbound variable {n!r} at {e.span}")
                scheme = scope[n]
                if scheme.is_monomorphic:
                    return self.record(e, scheme.body)
                # (Var'): instantiate with fresh qualifier variables and
                # re-emit the scheme's constraints under the renaming.
                body, carried = scheme.instantiate()
                self.constraints.extend(carried)
                return self.record(e, body)

            case Loc(address=a):
                if a not in self.store_qtypes:
                    raise QualTypeError(f"unknown store location {a}")
                qual = fresh_qual_var()
                qtype = QType(qual, QCon(REF, (self.store_qtypes[a],)))
                return self.record(e, qtype)

            case Lam(param=p, body=b):
                qtype = self.spread_node(e)
                _, dom, rng = self.expect_fun(qtype, e.span)
                body_t = self.visit(b, {**scope, p: monomorphic(dom)})
                self.flow(body_t, rng, self.origin("function body", e.span))
                return self.record(e, qtype)

            case App(func=f, arg=a):
                fun_t = self.visit(f, scope)
                arg_t = self.visit(a, scope)
                _, dom, rng = self.expect_fun(fun_t, e.span)
                self.flow(arg_t, dom, self.origin("function argument", a.span or e.span))
                return self.record(e, rng)

            case If(cond=c, then=t, other=o):
                cond_t = self.visit(c, scope)
                for name in self.language.guard_requirements:
                    self.emit(
                        cond_t.qual,
                        self.lattice.assertion_bound(name),
                        self.origin(f"if-guard must be {name}", c.span or e.span),
                    )
                then_t = self.visit(t, scope)
                other_t = self.visit(o, scope)
                result = self.spread_node(e)
                self.flow(then_t, result, self.origin("if-branch", t.span or e.span))
                self.flow(other_t, result, self.origin("else-branch", o.span or e.span))
                if self.language.guard_flows_to_result:
                    self.emit(
                        cond_t.qual,
                        result.qual,
                        self.origin("guard qualifier flows to if-result", e.span),
                    )
                return self.record(e, result)

            case Let(name=n, bound=b, body=body):
                mark = len(self.constraints)
                bound_t = self.visit(b, scope)
                if self.polymorphic and _is_generalizable(b):
                    # (Letv): quantify variables not free in the
                    # environment, carrying the constraints they touch.
                    env_vars: set[QualVar] = set()
                    for s in scope.values():
                        env_vars |= s.free_qual_vars()
                    local = self.constraints[mark:]
                    [scheme] = generalize([bound_t], local, env_vars)
                    self.let_schemes[id(e)] = scheme
                else:
                    scheme = monomorphic(bound_t)
                result = self.visit(body, {**scope, n: scheme})
                return self.record(e, result)

            case Ref(init=i):
                init_t = self.visit(i, scope)
                # (Ref): the cell's contents type is chosen fresh and the
                # initializer flows into it.  Reusing init_t directly
                # would pin the contents to the initializer's exact type
                # and lose the declarative system's subsumption point —
                # ``ref ({} 8)`` could never meet ``ref ({const} 7)``
                # across an if-join, breaking subject reduction for
                # configurations the evaluator canonicalises with bottom
                # annotations.
                qtype = self.spread_node(e)
                _, contents = self.expect_ref(qtype, e.span)
                self.flow(
                    init_t, contents, self.origin("ref initializer", i.span or e.span)
                )
                return self.record(e, qtype)

            case Deref(ref=r):
                ref_t = self.visit(r, scope)
                ref_qual, contents = self.expect_ref(ref_t, e.span)
                for name in self.language.deref_requirements:
                    self.emit(
                        ref_qual,
                        self.lattice.assertion_bound(name),
                        self.origin(f"dereference requires {name}", e.span),
                    )
                return self.record(e, contents)

            case Assign(target=t, value=v):
                target_t = self.visit(t, scope)
                value_t = self.visit(v, scope)
                ref_qual, contents = self.expect_ref(target_t, e.span)
                # (Assign'): the reference written through must lack each
                # restricted qualifier (const).
                for name in self.language.assign_restrictions:
                    self.emit(
                        ref_qual,
                        self.lattice.negate(name),
                        self.origin(f"assignment target must not be {name}", e.span),
                    )
                self.flow(value_t, contents, self.origin("assigned value", v.span or e.span))
                return self.record(e, self.spread_node(e))

            case Annot(expr=inner):
                inner_t = self.visit(inner, scope)
                level = self.resolve_literal(e)
                # (Annot): Q <= l, and the result's qualifier becomes l.
                self.emit(inner_t.qual, level, self.origin(f"annotation {e.qual}", e.span))
                return self.record(e, inner_t.with_qual(level))

            case Assert(expr=inner):
                inner_t = self.visit(inner, scope)
                level = self.resolve_literal(e)
                # (Assert): Q <= l; type unchanged.
                self.emit(inner_t.qual, level, self.origin(f"assertion {e.qual}", e.span))
                return self.record(e, inner_t)

            case _:  # pragma: no cover - exhaustive over AST
                raise TypeError(f"unknown expression {e!r}")


def _is_generalizable(e: Expr) -> bool:
    """The value restriction: only syntactic values generalise, looking
    through annotations and assertions."""
    match e:
        case Var() | IntLit() | UnitLit() | Lam():
            return True
        case Annot(expr=inner) | Assert(expr=inner):
            return _is_generalizable(inner)
        case _:
            return False


def infer(
    expr: Expr,
    language: QualifiedLanguage,
    env: Mapping[str, QType | QualScheme] | None = None,
    polymorphic: bool = False,
    store_qtypes: dict[int, QType] | None = None,
    ref_rule: str = "sound",
) -> Inference:
    """Run qualified type inference.

    Args:
        expr: the program.
        language: the qualifier configuration (lattice + rule hooks).
        env: qualified types (or schemes) for free variables.
        polymorphic: enable the Section 3.2 (Letv)/(Var') rules.
        store_qtypes: contents types for store locations, for typing
            run-time configurations in subject-reduction tests.
        ref_rule: "sound" (the (SubRef) equality rule) or "unsound" (the
            covariant rule the paper rejects) — ablation only.

    Returns an :class:`Inference`; raises :class:`QualTypeError` if the
    program has no standard type or the qualifier constraints are
    unsatisfiable.
    """
    from ..qual.qtypes import strip as strip_qtype

    scope: dict[str, QualScheme] = {}
    std_env = {}
    for name, entry in (env or {}).items():
        scheme = entry if isinstance(entry, QualScheme) else monomorphic(entry)
        scope[name] = scheme
        std_env[name] = strip_qtype(scheme.body)

    std_store = None
    if store_qtypes:
        std_store = {a: strip_qtype(t) for a, t in store_qtypes.items()}

    try:
        std = infer_std(expr, std_env, std_store)
    except StdTypeError as exc:
        raise QualTypeError(f"standard type error: {exc}") from exc

    p = _InferencePass(language, std.node_types, polymorphic, store_qtypes, ref_rule)
    qtype = p.visit(expr, scope)

    mentioned = qual_vars(qtype)
    try:
        solution = solve(p.constraints, language.lattice, extra_vars=mentioned)
    except UnsatisfiableError as exc:
        raise QualTypeError(str(exc)) from exc

    return Inference(
        qtype=qtype,
        constraints=p.constraints,
        solution=solution,
        lattice=language.lattice,
        node_qtypes=p.node_qtypes,
        let_schemes=p.let_schemes,
    )
