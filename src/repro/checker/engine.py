"""The qlint checking engine.

One inference run per translation unit serves every enabled check: the
combined product lattice has one coordinate per check qualifier, and in
a product of two-point lattices the coordinates never interact, so
seeding ``tainted`` cannot disturb the ``nonnull`` solution and vice
versa.

The run mirrors the monomorphic engine
(:func:`repro.constinfer.engine.run_mono`) with three additions:

* **seeds** — after constraint generation, each check's source rules
  emit constant lower bounds on the relevant library-signature
  qualifiers (``tainted <= kappa`` on ``getenv``'s result levels,
  ``bottom - nonnull <= kappa`` on ``malloc``'s);
* **sink obligations** — the sink rules are *not* emitted as
  constraints.  They are checked against the least solution after the
  solve, so an insecure program still solves and every violation is
  reported (emitting them would make the first violation abort the run
  as unsatisfiable);
* **flow paths** — each violated obligation is explained by
  :func:`repro.qual.solver.shortest_flow_path`, a provably minimal
  seed-to-sink witness whose steps carry the provenance spans threaded
  through constraint generation.

The ``const`` coordinate is different: write-through-const conflicts
are *equality-style* (lower meets upper) and surface as
:class:`~repro.qual.solver.UnsatisfiableError` during the solve.  The
engine converts that error into a ``const-violation`` diagnostic and
skips the remaining bound checks for the unit (degraded mode — the
least solution does not exist).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..cfront import cast as ast
from ..cfront.cast import CastClass, classify_cast
from ..cfront.ctypes import (
    CArray,
    CBase,
    CFunc,
    CPointer,
    CStruct,
    CType,
    format_ctype,
)
from ..cfront.sema import Program
from ..constinfer.analysis import ConstInference
from ..constinfer.engine import generate_mono
from ..qual.constraints import Origin, QualConstraint
from ..qual.lattice import LatticeElement
from ..qual.qtypes import QType, Qual, QualVar, quals_of
from ..qual.solver import UnsatisfiableError, shortest_flow_path, solve
from .checks import DEFAULT_CHECKS, QualifierCheck, lattice_for
from .diagnostics import Diagnostic, FlowStep, Span


class CheckerInference(ConstInference):
    """Constraint generation plus checker bookkeeping: every dereference
    site is recorded so nonnull-style checks can turn each one into a
    sink obligation."""

    def __init__(self, program: Program, lattice, **options):
        super().__init__(program, lattice, **options)
        self.deref_sites: list[tuple[Qual, Span]] = []

    def note_deref(self, value: QType, e: ast.CExpr) -> None:
        span = Span(self._current_file, e.line, e.col)
        self.deref_sites.append((value.qual, span))

    def scalar_result(self, operands: tuple[QType, ...], e: ast.CExpr) -> QType:
        """Value qualifiers (tainted, dynamic) survive arithmetic: each
        operand's top-level qualifier flows into the result."""
        result = self.fresh_scalar()
        origin = self.origin("result of arithmetic", e.line, e.col)
        for operand in operands:
            self.emit(operand.qual, result.qual, origin)
        return result


@dataclass(frozen=True)
class _Obligation:
    """One post-solve bound check: ``least(qual) <= bound`` must hold."""

    check: QualifierCheck
    qual: Qual
    bound: LatticeElement
    #: Fallback primary span (sink declaration or deref site); a valid
    #: flow-path step span takes precedence.
    span: Span
    message: str
    #: Dedup key — one diagnostic per sink rule / deref site even when a
    #: sink cell exposes several qualifier positions.
    site: tuple
    #: Extra final flow step pinning the sink itself (deref obligations:
    #: the dereference site, which also becomes the primary span).
    sink_step: FlowStep | None = None


def _decl_span(program: Program, name: str) -> tuple[int, int, str]:
    decl = program.functions.get(name) or program.prototypes.get(name)
    if decl is None:
        return 0, 0, ""
    return decl.line, decl.col, decl.file


def _seed_checks(
    inference: CheckerInference, checks: tuple[QualifierCheck, ...]
) -> dict[Origin, str]:
    """Emit every source rule's constant lower bounds.  Returns the map
    from seed origin to source-function name, used to name the origin of
    a violation in its message."""
    program = inference.program
    seed_functions: dict[Origin, str] = {}
    for check in checks:
        if check.syntactic_casts:
            continue
        seed = check.seed_element(inference.lattice)
        for rule in check.sources:
            sig = inference.signatures.get(rule.function)
            if sig is None:
                continue
            line, col, file = _decl_span(program, rule.function)
            origin = inference.origin(
                f"{check.qualifier} source {rule.function}", line, col, file
            )
            seed_functions[origin] = rule.function
            if rule.where == "return":
                cells = [sig.ret_cell]
            elif rule.index is None:
                cells = list(sig.params)
            else:
                cells = sig.params[rule.index : rule.index + 1]
            for cell in cells:
                for qual in quals_of(cell.rvalue):
                    if isinstance(qual, QualVar):
                        inference.emit(seed, qual, origin)
    return seed_functions


def _collect_obligations(
    inference: CheckerInference, checks: tuple[QualifierCheck, ...]
) -> list[_Obligation]:
    obligations: list[_Obligation] = []
    for check in checks:
        if check.syntactic_casts:
            continue
        bound = check.sink_bound(inference.lattice)
        for rule in check.sinks:
            sig = inference.signatures.get(rule.function)
            if sig is None or rule.index >= len(sig.params):
                continue
            line, col, file = _decl_span(inference.program, rule.function)
            message = check.message.format(
                function=rule.function,
                index=rule.index,
                qualifier=check.qualifier,
            )
            if rule.describe:
                message += f" [{rule.describe}]"
            for qual in quals_of(sig.params[rule.index].rvalue):
                obligations.append(
                    _Obligation(
                        check,
                        qual,
                        bound,
                        Span(file, line, col),
                        message,
                        site=(check.name, rule.function, rule.index),
                    )
                )
        if check.deref_requires:
            for qual, span in inference.deref_sites:
                obligations.append(
                    _Obligation(
                        check,
                        qual,
                        bound,
                        span,
                        check.message,  # {function} filled from the flow path
                        site=(check.name, "deref", span),
                        sink_step=FlowStep("dereferenced here", span),
                    )
                )
    return obligations


def _flow_steps(path: list[QualConstraint]) -> tuple[FlowStep, ...]:
    return tuple(
        FlowStep(note=c.origin.reason, span=Span.from_origin(c.origin)) for c in path
    )


def _primary_span(flow: tuple[FlowStep, ...], fallback: Span) -> Span:
    for step in reversed(flow):
        if step.span.is_valid:
            return step.span
    return fallback


def _check_obligations(
    inference: CheckerInference,
    solution,
    obligations: list[_Obligation],
    seed_functions: dict[Origin, str],
) -> list[Diagnostic]:
    diagnostics: list[Diagnostic] = []
    reported: set[tuple] = set()
    for ob in obligations:
        if ob.site in reported:
            continue
        if isinstance(ob.qual, QualVar):
            least = solution.least_of(ob.qual)
        else:
            least = ob.qual
        if inference.lattice.leq(least, ob.bound):
            continue
        flow: tuple[FlowStep, ...] = ()
        message = ob.message
        if isinstance(ob.qual, QualVar):
            path = shortest_flow_path(
                inference.constraints, inference.lattice, ob.qual, ob.bound
            )
            if path:
                flow = _flow_steps(path)
                source = seed_functions.get(path[0].origin)
                if source is not None and "{function}" in message:
                    message = message.format(function=source)
        if ob.sink_step is not None:
            flow = flow + (ob.sink_step,)
        if "{function}" in message:
            message = message.format(function="an unchecked source")
        reported.add(ob.site)
        diagnostics.append(
            Diagnostic(
                check=ob.check.name,
                qualifier=ob.check.qualifier,
                severity=ob.check.severity,
                message=message,
                span=_primary_span(flow, ob.span),
                flow=flow,
            )
        )
    return diagnostics


def _const_violation(exc: UnsatisfiableError) -> Diagnostic:
    flow = _flow_steps(exc.path) if exc.path else ()
    fallback = Span.from_origin(exc.constraint.origin)
    return Diagnostic(
        check="const-violation",
        qualifier="const",
        severity="error",
        message=str(exc).splitlines()[0],
        span=_primary_span(flow, fallback),
        flow=flow,
    )


# ---------------------------------------------------------------------------
# The syntactic casts-away-const walk
# ---------------------------------------------------------------------------


def _pointee(t: CType | None) -> CType | None:
    if isinstance(t, CArray):
        return t.element
    if isinstance(t, CPointer):
        return t.target
    return None


def _expr_ctype(
    e: ast.CExpr, env: dict[str, CType], program: Program
) -> CType | None:
    """Best-effort declared C type of an expression — enough to classify
    the operand of a cast.  Returns None when the type is not statically
    apparent (the cast is then skipped, never misreported)."""
    match e:
        case ast.Ident(name=n):
            if n in env:
                return env[n]
            decl = program.globals.get(n)
            if decl is not None:
                return decl.type
            fn = program.functions.get(n) or program.prototypes.get(n)
            if fn is not None:
                return CFunc(fn.ret, tuple(p.type for p in fn.params), fn.varargs)
            return None
        case ast.Cast(target_type=t):
            return t
        case ast.StringConst():
            return CPointer(CBase("char"))
        case ast.Unary(op="&", operand=inner, postfix=False):
            inner_t = _expr_ctype(inner, env, program)
            return CPointer(inner_t) if inner_t is not None else None
        case ast.Unary(op="*", operand=inner, postfix=False):
            return _pointee(_expr_ctype(inner, env, program))
        case ast.Unary(operand=inner):
            return _expr_ctype(inner, env, program)
        case ast.Index(base=b):
            return _pointee(_expr_ctype(b, env, program))
        case ast.Member(base=b, field_name=f, arrow=arrow):
            base_t = _expr_ctype(b, env, program)
            if arrow:
                base_t = _pointee(base_t)
            if isinstance(base_t, CStruct):
                struct = program.structs.get(base_t.tag)
                if struct is not None:
                    for fd in struct.fields:
                        if fd.name == f:
                            return fd.type
            return None
        case ast.Call(func=f):
            fn_t = _expr_ctype(f, env, program)
            fn_t = _pointee(fn_t) or fn_t
            return fn_t.ret if isinstance(fn_t, CFunc) else None
        case ast.Assignment(target=t):
            return _expr_ctype(t, env, program)
        case ast.Comma(right=r):
            return _expr_ctype(r, env, program)
        case ast.Conditional(then=t):
            return _expr_ctype(t, env, program)
        case _:
            return None


def _cast_walk_expr(
    e: ast.CExpr,
    env: dict[str, CType],
    program: Program,
    check: QualifierCheck,
    file: str,
    out: list[Diagnostic],
) -> None:
    if isinstance(e, ast.Cast):
        src = _expr_ctype(e.operand, env, program)
        if src is not None and classify_cast(src, e.target_type) is CastClass.AWAY_CONST:
            span = Span(file, e.line, e.col)
            message = check.message.format(
                source_type=format_ctype(src),
                target_type=format_ctype(e.target_type),
            )
            out.append(
                Diagnostic(
                    check=check.name,
                    qualifier=check.qualifier,
                    severity=check.severity,
                    message=message,
                    span=span,
                    flow=(FlowStep(note=message, span=span),),
                )
            )
    for name in type(e).__dataclass_fields__:
        value = getattr(e, name)
        if isinstance(value, ast.CExpr):
            _cast_walk_expr(value, env, program, check, file, out)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, ast.CExpr):
                    _cast_walk_expr(item, env, program, check, file, out)


def _cast_walk_stmt(
    s: ast.CStmt,
    env: dict[str, CType],
    program: Program,
    check: QualifierCheck,
    file: str,
    out: list[Diagnostic],
) -> None:
    if isinstance(s, ast.Compound):
        inner = dict(env)
        for child in s.body:
            _cast_walk_stmt(child, inner, program, check, file, out)
        return
    if isinstance(s, ast.DeclStmt):
        for decl in s.decls:
            if decl.init is not None:
                _cast_walk_expr(decl.init, env, program, check, file, out)
            env[decl.name] = decl.type
        return
    for name in type(s).__dataclass_fields__:
        value = getattr(s, name)
        if isinstance(value, ast.CExpr):
            _cast_walk_expr(value, env, program, check, file, out)
        elif isinstance(value, ast.CStmt):
            _cast_walk_stmt(value, env, program, check, file, out)
        elif isinstance(value, ast.DeclStmt):
            _cast_walk_stmt(value, env, program, check, file, out)
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, ast.CStmt):
                    _cast_walk_stmt(item, env, program, check, file, out)
                elif isinstance(item, ast.CExpr):
                    _cast_walk_expr(item, env, program, check, file, out)


def _cast_diagnostics(program: Program, check: QualifierCheck) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for fdef in program.functions.values():
        env = {p.name: p.type for p in fdef.params if p.name}
        _cast_walk_stmt(fdef.body, env, program, check, fdef.file, out)
    for decl in program.globals.values():
        if decl.init is not None:
            _cast_walk_expr(decl.init, {}, program, check, decl.file, out)
    return out


# ---------------------------------------------------------------------------
# Flow-sensitive linearity pack (double-free / use-after-free / leak)
# ---------------------------------------------------------------------------


def _flow_pack_diagnostics(
    program: Program,
    checks: tuple[QualifierCheck, ...],
    ownership=None,
) -> list[Diagnostic]:
    """Run the resource pack over every function body.

    Each function is lowered into the flowsens language and analysed
    independently (:mod:`repro.flowsens.lower` /
    :mod:`repro.flowsens.linear`); engine-side findings are adapted to
    diagnostics here so the flowsens package stays checker-free.
    ``ownership`` carries inferred callee summaries
    (:mod:`repro.whole.ownership`, whole-program mode only): summarised
    call sites lower to the callee's declared effect instead of the
    unknown-callee havoc, which is what lets a finding's flow path
    cross translation units.  Functions the lowering marks unstructured
    (goto/switch) and shapes the engine cannot analyse are skipped —
    best-effort, like the rest of the resilient pipeline."""
    from ..flowsens.linear import analyze_function_resources
    from ..flowsens.lower import DEFAULT_POLICY, lower_function
    from ..qual.qualifiers import resource_lattice

    policy = DEFAULT_POLICY
    if ownership:
        from ..flowsens.ownership import with_summaries

        policy = with_summaries(DEFAULT_POLICY, ownership)
    by_name = {c.name: c for c in checks}
    out: list[Diagnostic] = []
    lattice = resource_lattice()
    for fdef in program.functions.values():
        try:
            lowered = lower_function(fdef, lattice, policy)
            findings = analyze_function_resources(lowered, lattice)
        except Exception:
            # Salvaged/partial ASTs can hold shapes the lowering has
            # never seen; resource findings are best-effort extras and
            # must never take down the unit.
            continue
        for finding in findings:
            check = by_name.get(finding.kind)
            if check is None:
                continue
            out.append(
                Diagnostic(
                    check=check.name,
                    qualifier=check.qualifier,
                    severity=check.severity,
                    message=check.message.format(
                        variable=finding.variable,
                        function=finding.function,
                    ),
                    span=Span(finding.file, finding.line, finding.col),
                    flow=tuple(
                        FlowStep(
                            note=step.note,
                            span=Span(step.file, step.line, step.col),
                        )
                        for step in finding.flow
                    ),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _sort_key(d: Diagnostic):
    return (d.span.file, d.span.line, d.span.column, d.check, d.message)


def check_program(
    program: Program,
    checks: tuple[QualifierCheck, ...] = DEFAULT_CHECKS,
    *,
    ownership=None,
) -> list[Diagnostic]:
    """Run every enabled check over one semantic program.  Diagnostics
    come back in deterministic (file, line, column, check) order, without
    fingerprints or suppressions — the runner adds those (it holds the
    source text).  ``ownership`` (whole-program mode) feeds inferred
    callee summaries to the resource pack."""
    checks = tuple(checks)
    diagnostics: list[Diagnostic] = []

    for check in checks:
        if check.syntactic_casts:
            diagnostics.extend(_cast_diagnostics(program, check))

    pack_checks = tuple(c for c in checks if c.flow_pack)
    if pack_checks:
        diagnostics.extend(
            _flow_pack_diagnostics(program, pack_checks, ownership)
        )

    flow_checks = tuple(
        c for c in checks if not c.syntactic_casts and not c.flow_pack
    )
    if flow_checks:
        inference = CheckerInference(program, lattice_for(flow_checks))
        generate_mono(inference)

        seed_functions = _seed_checks(inference, flow_checks)
        obligations = _collect_obligations(inference, flow_checks)
        extra = [ob.qual for ob in obligations if isinstance(ob.qual, QualVar)]
        try:
            solution = solve(
                inference.constraints, inference.lattice, extra_vars=extra
            )
        except UnsatisfiableError as exc:
            # The const coordinate is inconsistent (write through a cell
            # that must be const): no least solution exists, so bound
            # checks cannot run for this unit.  Report the conflict
            # itself — with its witness path — and degrade gracefully.
            diagnostics.append(_const_violation(exc))
        else:
            diagnostics.extend(
                _check_obligations(inference, solution, obligations, seed_functions)
            )

    return sorted(diagnostics, key=_sort_key)


def check_source(
    source: str,
    filename: str = "<input>",
    checks: tuple[QualifierCheck, ...] = DEFAULT_CHECKS,
    parse_unit: Callable[[str, str], object] | None = None,
) -> list[Diagnostic]:
    """Parse one C translation unit and run the checks over it.
    ``parse_unit(filename, source)``, when given, replaces the parser."""
    if parse_unit is None:
        program = Program.from_source(source, filename=filename)
    else:
        program = Program.from_units([parse_unit(filename, source)])
    return check_program(program, checks)


#: Check name for front-end (lexer/parser) error findings.
PARSE_CHECK = "parse-error"

#: Check name for preprocessor findings (``stage="cpp"`` diagnostics).
CPP_CHECK = "preprocessor"


def parse_findings(parse_diagnostics) -> list[Diagnostic]:
    """Convert front-end :class:`~repro.cfront.clexer.ParseDiagnostic`
    records into checker diagnostics, so they fingerprint, suppress,
    and render (human/JSON/SARIF) exactly like qualifier findings."""
    out: list[Diagnostic] = []
    for d in parse_diagnostics:
        out.append(
            Diagnostic(
                check=CPP_CHECK if d.stage == "cpp" else PARSE_CHECK,
                qualifier="syntax",
                severity="error" if d.severity == "error" else "warning",
                message=d.describe(),
                span=Span(d.file, d.line, d.column),
            )
        )
    return out


def _unit_status(result) -> str:
    """Classify one resilient parse: ``ok`` (no errors), ``partial``
    (errors but declarations salvaged), ``skipped`` (nothing usable)."""
    if result.ok:
        return "ok"
    return "partial" if result.unit.items else "skipped"


def check_source_resilient(
    source: str,
    filename: str = "<input>",
    checks: tuple[QualifierCheck, ...] = DEFAULT_CHECKS,
    include_paths: tuple[str, ...] = (),
) -> tuple[list[Diagnostic], str, int]:
    """Best-effort single-unit check: preprocess, parse with panic-mode
    recovery, and analyse whatever was salvaged.

    Never raises on bad input.  Returns ``(diagnostics, status,
    functions)`` where diagnostics merge front-end findings with
    qualifier findings in span order, status is ``ok``/``partial``/
    ``skipped``, and functions counts the definitions that were
    actually analysed.
    """
    from ..cfront.cparser import parse_c_resilient

    result = parse_c_resilient(source, filename, include_paths=include_paths)
    status = _unit_status(result)
    diagnostics = parse_findings(result.diagnostics)
    functions = 0
    try:
        program = Program.from_units([result.unit])
        functions = len(program.functions)
        diagnostics.extend(check_program(program, checks))
    except Exception as exc:  # salvaged subset the analysis can't hold
        status = "skipped"
        functions = 0
        diagnostics.append(
            Diagnostic(
                check=PARSE_CHECK,
                qualifier="syntax",
                severity="error",
                message=f"analysis failed on recovered unit: "
                f"{type(exc).__name__}: {exc}",
                span=Span(filename, 0, 0),
            )
        )
    return sorted(diagnostics, key=_sort_key), status, functions


def check_linked_program(
    linked,
    checks: tuple[QualifierCheck, ...] = DEFAULT_CHECKS,
    *,
    cache=None,
) -> list[Diagnostic]:
    """Run the checks over a whole linked program
    (:class:`repro.whole.linker.LinkedProgram`).

    Linker-level findings (conflicting qualified types across units,
    multiple definitions) come first as ``link-*`` diagnostics; then the
    ordinary checks run over the merged program, so qualifier flows that
    cross translation units — a tainted value returned by one file's
    function and printed by another's — surface with flow paths spanning
    both files (every constraint origin carries its own filename).

    When the resource pack is enabled, per-function ownership summaries
    are inferred bottom-up over the cross-TU call graph first
    (:func:`repro.whole.ownership.ownership_for_linked`, per-unit
    cached through ``cache``), so pack findings cross units too: an
    allocation in one file lost or double-freed in another."""
    diagnostics = [
        Diagnostic(
            check=f"link-{link_diag.kind}",
            qualifier="linkage",
            severity="error",
            message=link_diag.message,
            span=Span(link_diag.file, link_diag.line, link_diag.column),
        )
        for link_diag in linked.diagnostics
    ]
    ownership = None
    if any(c.flow_pack for c in checks):
        try:
            from ..whole.ownership import ownership_for_linked

            ownership = ownership_for_linked(linked, cache=cache)
        except Exception:
            # Summaries are an accuracy upgrade, never a requirement:
            # without them every call site keeps the havoc firewall.
            ownership = None
    diagnostics.extend(
        check_program(linked.program, checks, ownership=ownership)
    )
    return sorted(diagnostics, key=_sort_key)


# ---------------------------------------------------------------------------
# Lambda-language adapter
# ---------------------------------------------------------------------------


def check_lambda_source(
    source: str,
    filename: str = "<lam>",
    language=None,
    env=None,
    polymorphic: bool = False,
) -> list[Diagnostic]:
    """Check a lambda program (the paper's example language) and report
    qualifier violations as qlint diagnostics.

    Unlike the C pipeline, the lambda system emits assertions *as
    constraints*, so a violation surfaces as an unsatisfiable system;
    the structured :class:`~repro.qual.solver.UnsatisfiableError` is
    recovered through ``QualTypeError.__cause__`` and its witness path
    becomes the diagnostic's flow.  A clean program yields ``[]``.
    """
    from ..apps.taint import taint_language
    from ..lam.infer import QualTypeError, infer
    from ..lam.parser import parse

    if language is None:
        language = taint_language()
    expr = parse(source)
    try:
        infer(expr, language, env=env, polymorphic=polymorphic)
    except QualTypeError as exc:
        cause = exc.__cause__
        if not isinstance(cause, UnsatisfiableError):
            return [
                Diagnostic(
                    check="lambda-qualifier",
                    qualifier="",
                    severity="error",
                    message=str(exc).splitlines()[0],
                    span=Span(filename, 0, 0),
                )
            ]
        qualifier = _violated_qualifier(cause)
        flow = tuple(
            FlowStep(
                note=c.origin.reason,
                span=Span(
                    filename, c.origin.line or 0, c.origin.column or 0
                ),
            )
            for c in (cause.path or [cause.constraint])
        )
        return [
            Diagnostic(
                check="lambda-qualifier",
                qualifier=qualifier,
                severity="error",
                message=str(cause).splitlines()[0],
                span=_primary_span(flow, Span(filename, 0, 0)),
                flow=flow,
            )
        ]
    return []


def _violated_qualifier(exc: UnsatisfiableError) -> str:
    """Name the coordinate where ``lower <= upper`` fails: a positive
    qualifier the lower bound has but the upper forbids, or a negative
    one the upper requires but the lower lacks."""
    lower = set(exc.lower.present)
    upper = set(exc.upper.present)
    extra = sorted(lower - upper)
    if extra:
        return extra[0]
    missing = sorted(upper - lower)
    return missing[0] if missing else ""
