"""Constraint generation for C const inference (paper Sections 4.1–4.2).

Every C variable denotes an updateable cell; the ``l`` translation
(:func:`repro.cfront.ctypes.lvalue_qtype`) gives each declaration a
qualified ref type with a fresh qualifier variable per level.  This
module walks function bodies generating atomic constraints over those
variables:

* a source-level ``const`` at some level becomes a *lower bound*
  (``const <= kappa``);
* an assignment, ``++``/``--``, or compound assignment through a cell
  emits the (Assign') *upper bound* ``kappa <= not-const`` on that cell's
  ref qualifier;
* value flow (initialisation, assignment, argument passing, return)
  emits ``Q_src <= Q_dst`` at the top level and *equates* the qualifiers
  of pointed-to cells — the (SubRef) invariance that keeps aliases
  consistent;
* struct fields share one cell type per struct *definition* (Section 4.2),
  so ``a.x`` and ``b.x`` agree on everything except the outermost
  qualifier of ``a`` and ``b`` themselves;
* typedefs were macro-expanded by the parser, so typedef'd declarations
  share nothing;
* explicit casts sever the association between operand and result; the
  cast type's own ``const``s still apply;
* calls to *undefined* (library) functions pin every non-``const``
  pointer-level parameter to non-const — "lack of const does mean
  can't-be-const" for libraries;
* varargs and surplus call arguments are ignored, as the paper does.

The builder is shared by the monomorphic and polymorphic engines; the
only difference is how function signatures are looked up (shared
variables vs. scheme instantiation) and when generalisation happens —
see :mod:`repro.constinfer.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..cfront.cast import (
    Assignment,
    Binary,
    Call,
    CaseStmt,
    Cast,
    CExpr,
    CharConst,
    Comma,
    Compound,
    Conditional,
    CStmt,
    DeclStmt,
    DoWhileStmt,
    EmptyStmt,
    ExprStmt,
    FloatConst,
    ForStmt,
    FuncDecl,
    FuncDef,
    Ident,
    IfStmt,
    Index,
    InitList,
    IntConst,
    LabeledStmt,
    Member,
    ParamDecl,
    ReturnStmt,
    SizeofType,
    StringConst,
    SwitchStmt,
    Unary,
    VarDecl,
    WhileStmt,
    BreakStmt,
    ContinueStmt,
    GotoStmt,
)
from ..cfront.ctypes import (
    CBase,
    CPointer,
    CType,
    TranslatedType,
    lvalue_qtype,
)
from ..cfront.sema import Program
from ..qual.constraints import Origin, QualConstraint
from ..qual.lattice import LatticeElement, QualifierLattice
from ..qual.poly import QualScheme
from ..qual.qtypes import (
    QCon,
    QType,
    Qual,
    QualVar,
    REF,
    fresh_qual_var,
    use_uid_band,
)
from ..qual.qualifiers import const_lattice


@dataclass(frozen=True)
class ConstPosition:
    """One 'interesting' const position (Section 4.4): a pointer-level
    qualifier on a defined function's parameter or result."""

    function: str
    where: str  # e.g. "param 0 (s)" or "return"
    depth: int  # pointer depth: 1 = the directly pointed-to cell
    var: QualVar
    declared: bool
    line: int = 0

    def describe(self) -> str:
        marker = " [declared const]" if self.declared else ""
        return f"{self.function}: {self.where} depth {self.depth}{marker}"


@dataclass
class FunctionSig:
    """Qualified signature of one function.

    ``params`` holds the l-value (cell) type of each parameter;
    ``ret_cell`` a pseudo-cell whose contents type is the return r-value.
    ``fun_qtype`` packages the r-value view (``cfunN`` shape) used when
    the function's name occurs as a value.
    """

    name: str
    params: list[TranslatedType]
    ret_cell: TranslatedType
    fun_qtype: QType
    varargs: bool
    defined: bool

    @property
    def param_rvalues(self) -> list[QType]:
        return [p.rvalue for p in self.params]

    @property
    def ret_rvalue(self) -> QType:
        return self.ret_cell.rvalue


def _is_fun_shape(t: QType) -> bool:
    con = t.constructor
    return con is not None and con.name.startswith("cfun")


class ConstInference:
    """Shared constraint-generation state for one whole-program run."""

    def __init__(
        self,
        program: Program,
        lattice: QualifierLattice | None = None,
        conservative_libraries: bool = True,
        share_struct_fields: bool = True,
    ):
        """``conservative_libraries`` and ``share_struct_fields`` default
        to the paper's rules (Section 4.2); turning either off selects the
        corresponding ablation: optimistic library parameters, or fresh
        field qualifiers per access (which over-counts const positions by
        ignoring aliasing through shared declarations)."""
        self.program = program
        self.lattice = lattice if lattice is not None else const_lattice()
        self.conservative_libraries = conservative_libraries
        self.share_struct_fields = share_struct_fields
        if "const" not in self.lattice:
            raise ValueError("const inference requires a lattice containing 'const'")
        self.constraints: list[QualConstraint] = []
        self.field_cells: dict[tuple[str, str], TranslatedType] = {}
        self.global_cells: dict[str, TranslatedType] = {}
        self.signatures: dict[str, FunctionSig] = {}
        self.schemes: dict[str, QualScheme] = {}
        self.positions: list[ConstPosition] = []
        self.not_const: LatticeElement = self.lattice.negate("const")
        self.const_low: LatticeElement = self.lattice.atom("const")
        from ..cfront.ctypes import base_con

        self._scalar_shape = QCon(base_con("int"))
        self._origin_cache: dict[tuple[str, int, int, str], Origin] = {}
        # File of the declaration being analysed; origins emitted while a
        # function body (or global initializer) is processed carry it, so
        # every constraint gets a full file:line:col provenance span.
        self._current_file: str = ""
        # Uid band for shared cells (globals, struct fields) created
        # lazily mid-traversal; the whole-program engine sets it so such
        # stragglers stay in its shared band.  ``None`` uses the global
        # counter.
        self._shared_band = None

    # ------------------------------------------------------------------
    # Constraint plumbing
    # ------------------------------------------------------------------
    def emit(self, lhs: Qual, rhs: Qual, origin: Origin) -> None:
        self.constraints.append(QualConstraint(lhs, rhs, origin))

    def origin(
        self, reason: str, line: int = 0, col: int = 0, file: str | None = None
    ) -> Origin:
        # Origins repeat heavily (one per constraint, few distinct
        # reason/span pairs per statement); interning them keeps emit()
        # allocation-light on the hot path.
        resolved_file = self._current_file if file is None else file
        key = (reason, line, col, resolved_file)
        cached = self._origin_cache.get(key)
        if cached is None:
            cached = self._origin_cache[key] = Origin(
                reason,
                filename=resolved_file or None,
                line=line or None,
                column=col or None,
            )
        return cached

    def flow(self, src: QType, dst: QType, origin: Origin) -> None:
        """Value flow ``src <= dst``: top-level subtyping, (SubRef)
        equality below pointers, contravariant function parameters."""
        self.emit(src.qual, dst.qual, origin)
        if src.constructor is REF and dst.constructor is REF:
            self.equate(src.args[0], dst.args[0], origin)
        elif (
            _is_fun_shape(src)
            and _is_fun_shape(dst)
            and src.constructor == dst.constructor
        ):
            *src_params, src_ret = src.args
            *dst_params, dst_ret = dst.args
            for source_param, dest_param in zip(src_params, dst_params):
                self.flow(dest_param, source_param, origin)
            self.flow(src_ret, dst_ret, origin)
        # Mismatched shapes (null-pointer constants, int/pointer mixing
        # through implicit conversion) keep only the top-level constraint:
        # "for implicit casts we retain as much information as possible".

    def equate(self, a: QType, b: QType, origin: Origin) -> None:
        """Structural qualifier equality (both directions, all levels)."""
        self.emit(a.qual, b.qual, origin)
        self.emit(b.qual, a.qual, origin)
        if a.constructor is not None and a.constructor == b.constructor:
            for left, right in zip(a.args, b.args):
                self.equate(left, right, origin)

    def fresh_scalar(self) -> QType:
        return QType(fresh_qual_var(), self._scalar_shape)

    def scalar_result(self, operands: tuple[QType, ...], e: CExpr) -> QType:
        """Hook: the scalar result of an operator over ``operands``.

        Const inference discards operand qualifiers (constness lives on
        cells, not computed values), so the base returns an unconstrained
        scalar.  The qlint checker overrides this to flow each operand's
        top-level qualifier into the result, so value qualifiers such as
        ``tainted`` and ``dynamic`` survive arithmetic."""
        return self.fresh_scalar()

    def fresh_cell(self) -> QType:
        """An unconstrained cell for untypable l-values (casts, unknown
        fields): everything about it stays unconstrained."""
        return QType(fresh_qual_var(), QCon(REF, (self.fresh_scalar(),)))

    # ------------------------------------------------------------------
    # Declarations and shared cells
    # ------------------------------------------------------------------
    def cell_for_type(
        self, ct: CType, line: int = 0, col: int = 0, file: str | None = None
    ) -> TranslatedType:
        """Translate a declaration's C type, emitting the declared-const
        lower bounds."""
        translated = lvalue_qtype(ct)
        origin = self.origin("declared const", line, col, file)
        for level in translated.levels:
            if level.declared_const:
                self.emit(self.const_low, level.var, origin)
        return translated

    def global_cell(self, name: str) -> Optional[TranslatedType]:
        cell = self.global_cells.get(name)
        if cell is not None:
            return cell
        decl = self.program.globals.get(name)
        if decl is None:
            return None
        # A shared cell created lazily escapes the caller's uid band: it
        # is monomorphic whole-program state, not an SCC-local variable.
        with use_uid_band(self._shared_band):
            cell = self.cell_for_type(decl.type, decl.line, decl.col, decl.file)
        self.global_cells[name] = cell
        return cell

    def field_cell(self, tag: str, field_name: str) -> TranslatedType:
        key = (tag, field_name)
        if self.share_struct_fields:
            cell = self.field_cells.get(key)
            if cell is not None:
                return cell
        struct = self.program.structs.get(tag)
        ctype: CType = CBase("int")
        line = col = 0
        file = ""
        if struct is not None:
            for f in struct.fields:
                if f.name == field_name:
                    ctype = f.type
                    line, col, file = f.line, f.col, f.file
                    break
        if not self.share_struct_fields:
            # Ablation: a fresh cell per access, nothing shared.
            cell = self.cell_for_type(ctype, line, col, file)
            self.field_cells[key] = cell
            return cell
        with use_uid_band(self._shared_band):
            cell = self.cell_for_type(ctype, line, col, file)
        self.field_cells[key] = cell
        return cell

    # ------------------------------------------------------------------
    # Function signatures
    # ------------------------------------------------------------------
    def make_signature(
        self,
        name: str,
        ret: CType,
        params: tuple[ParamDecl, ...],
        varargs: bool,
        defined: bool,
        line: int,
        col: int = 0,
        file: str = "",
    ) -> FunctionSig:
        from ..cfront.ctypes import fun_con

        param_cells = [
            self.cell_for_type(
                p.type, p.line or line, p.col or col, p.file or file
            )
            for p in params
        ]
        ret_cell = self.cell_for_type(ret, line, col, file)
        shape_args = tuple(c.rvalue for c in param_cells) + (ret_cell.rvalue,)
        fun_qtype = QType(fresh_qual_var(), QCon(fun_con(len(param_cells)), shape_args))
        sig = FunctionSig(name, param_cells, ret_cell, fun_qtype, varargs, defined)
        self.signatures[name] = sig

        if defined:
            for index, (decl, cell) in enumerate(zip(params, param_cells)):
                label = f"param {index} ({decl.name})" if decl.name else f"param {index}"
                for level in cell.levels:
                    if level.depth >= 1:
                        self.positions.append(
                            ConstPosition(
                                name, label, level.depth, level.var,
                                level.declared_const, decl.line or line,
                            )
                        )
            for level in ret_cell.levels:
                if level.depth >= 1:
                    self.positions.append(
                        ConstPosition(
                            name, "return", level.depth, level.var,
                            level.declared_const, line,
                        )
                    )
        else:
            self.apply_library_bounds(sig, line, col, file)
        return sig

    def apply_library_bounds(
        self, sig: FunctionSig, line: int, col: int = 0, file: str = ""
    ) -> None:
        """Section 4.2's conservative treatment of undefined functions:
        any pointer-level parameter position not declared const is pinned
        non-const (the library might write through it)."""
        if not self.conservative_libraries:
            return
        origin = self.origin(f"library function {sig.name}", line, col, file)
        for cell in sig.params:
            for level in cell.levels:
                if level.depth >= 1 and not level.declared_const:
                    self.emit(level.var, self.not_const, origin)

    def signature_for(self, fdef: FuncDef) -> FunctionSig:
        sig = self.signatures.get(fdef.name)
        if sig is None:
            sig = self.make_signature(
                fdef.name,
                fdef.ret,
                fdef.params,
                fdef.varargs,
                True,
                fdef.line,
                fdef.col,
                fdef.file,
            )
        return sig

    def prototype_signature(self, decl: FuncDecl) -> FunctionSig:
        sig = self.signatures.get(decl.name)
        if sig is None:
            sig = self.make_signature(
                decl.name,
                decl.ret,
                decl.params,
                decl.varargs,
                False,
                decl.line,
                decl.col,
                decl.file,
            )
        return sig

    def function_value(self, name: str, line: int) -> Optional[QType]:
        """The qualified r-value when a function's name occurs in an
        expression: a scheme instantiation if the function was already
        generalised (Var'), otherwise the shared monomorphic signature."""
        scheme = self.schemes.get(name)
        if scheme is not None:
            body, carried = scheme.instantiate()
            self.constraints.extend(carried)
            return body
        sig = self.signatures.get(name)
        if sig is not None:
            return sig.fun_qtype
        fdef = self.program.functions.get(name)
        if fdef is not None:
            # A defined function referenced before its signature exists
            # (possible only outside the FDG traversal order, e.g. from a
            # global initializer); create the real signature, never a
            # conservative library one.
            return self.signature_for(fdef).fun_qtype
        proto = self.program.prototypes.get(name)
        if proto is not None:
            return self.prototype_signature(proto).fun_qtype
        return None

    # ------------------------------------------------------------------
    # Expression analysis
    # ------------------------------------------------------------------
    def lvalue(self, e: CExpr, scope: dict[str, TranslatedType]) -> QType:
        """Qualified cell (REF-shaped) of an l-value expression."""
        match e:
            case Ident(name=n):
                if n in scope:
                    return scope[n].qtype
                cell = self.global_cell(n)
                if cell is not None:
                    return cell.qtype
                return self.fresh_cell()
            case Unary(op="*", operand=inner, postfix=False):
                rv = self.rvalue(inner, scope)
                if rv.constructor is REF:
                    self.note_deref(rv, e)
                    return rv
                return self.fresh_cell()
            case Index(base=b, index=i):
                rv = self.rvalue(b, scope)
                self.rvalue(i, scope)
                if rv.constructor is REF:
                    self.note_deref(rv, e)
                    return rv
                return self.fresh_cell()
            case Member(base=b, field_name=f, arrow=arrow):
                tag = self._member_tag(b, arrow, scope)
                if tag is None:
                    return self.fresh_cell()
                return self.field_cell(tag, f).qtype
            case Cast(operand=inner, target_type=t):
                self.rvalue(inner, scope)
                cell = self.cell_for_type(CPointer(t), e.line, e.col)
                # Cell of the cast result: sever the association.
                return cell.rvalue if cell.rvalue.constructor is REF else self.fresh_cell()
            case Comma(left=left, right=right):
                self.rvalue(left, scope)
                return self.lvalue(right, scope)
            case Conditional():
                rv = self.rvalue(e, scope)
                return rv if rv.constructor is REF else self.fresh_cell()
            case _:
                # Not an l-value form; evaluate for effects, fresh cell.
                self.rvalue(e, scope)
                return self.fresh_cell()

    def _member_tag(
        self, base: CExpr, arrow: bool, scope: dict[str, TranslatedType]
    ) -> Optional[str]:
        """Struct tag of a member access's base, read off the qualified
        shape (struct r-values are ``struct <tag>`` nullary shapes)."""
        if arrow:
            rv = self.rvalue(base, scope)
            if rv.constructor is REF:
                self.note_deref(rv, base)
                rv = rv.args[0]
        else:
            cell = self.lvalue(base, scope)
            rv = cell.args[0] if cell.constructor is REF else cell
        con = rv.constructor
        if con is not None and (
            con.name.startswith("struct ") or con.name.startswith("union ")
        ):
            return con.name.split(" ", 1)[1]
        return None

    def note_deref(self, value: QType, e: CExpr) -> None:
        """Hook: a REF-shaped value is being dereferenced at ``e``.

        The base analysis does nothing; the qlint checker overrides this
        to record deref sites for the nonnull-deref check."""

    def write_through(self, cell: QType, e: CExpr, reason: str) -> None:
        """(Assign'): the cell written through must not be const."""
        self.emit(cell.qual, self.not_const, self.origin(reason, e.line, e.col))

    def rvalue(self, e: CExpr, scope: dict[str, TranslatedType]) -> QType:
        match e:
            case IntConst() | FloatConst() | CharConst() | SizeofType():
                return self.fresh_scalar()

            case StringConst():
                # Pointer to char cells whose constness stays free: ANSI
                # leaves writes to string literals undefined, and pinning
                # them const would reject common (if dubious) C.
                cell = self.cell_for_type(CPointer(CBase("char")), e.line, e.col)
                return cell.rvalue

            case Ident(name=n):
                if n in scope:
                    return scope[n].qtype.args[0]
                cell = self.global_cell(n)
                if cell is not None:
                    return cell.qtype.args[0]
                fn = self.function_value(n, e.line)
                if fn is not None:
                    return fn
                if n in self.program.enum_constants:
                    return self.fresh_scalar()
                return self.fresh_scalar()

            case Unary(op="&", operand=inner):
                # The address of a cell *is* the cell's ref type: writes
                # through the pointer see the same qualifier.
                return self.lvalue(inner, scope)

            case Unary(op="*", operand=_):
                cell = self.lvalue(e, scope)
                return cell.args[0] if cell.constructor is REF else self.fresh_scalar()

            case Unary(op="++" | "--", operand=inner):
                cell = self.lvalue(inner, scope)
                if cell.constructor is REF:
                    self.write_through(cell, e, f"{e.op} writes its operand")
                    return cell.args[0]
                return self.fresh_scalar()

            case Unary(operand=inner):  # - + ~ ! sizeof-expr
                operand = self.rvalue(inner, scope)
                return self.scalar_result((operand,), e)

            case Binary(op=op, left=left, right=right):
                lv = self.rvalue(left, scope)
                rv = self.rvalue(right, scope)
                if op in ("+", "-"):
                    left_ptr = lv.constructor is REF
                    right_ptr = rv.constructor is REF
                    if left_ptr and not right_ptr:
                        return lv
                    if right_ptr and not left_ptr:
                        return rv
                return self.scalar_result((lv, rv), e)

            case Assignment(op=op, target=target, value=value):
                cell = self.lvalue(target, scope)
                rv = self.rvalue(value, scope)
                if cell.constructor is REF:
                    self.write_through(cell, e, "assignment target")
                    if op == "=":
                        self.flow(rv, cell.args[0], self.origin("assignment", e.line, e.col))
                    return cell.args[0]
                return self.fresh_scalar()

            case Conditional(cond=c, then=t, other=o):
                self.rvalue(c, scope)
                a = self.rvalue(t, scope)
                b = self.rvalue(o, scope)
                if a.constructor is REF and b.constructor is REF:
                    # Both arms may be the result: alias both ways.
                    self.flow(b, a, self.origin("conditional merge", e.line, e.col))
                    return a
                if a.constructor is REF:
                    return a
                if b.constructor is REF:
                    return b
                return self.scalar_result((a, b), e)

            case Call(func=f, args=args):
                return self._call(f, args, scope, e.line, e.col)

            case Member() | Index():
                cell = self.lvalue(e, scope)
                return cell.args[0] if cell.constructor is REF else self.fresh_scalar()

            case Cast(target_type=t, operand=inner):
                self.rvalue(inner, scope)
                # "For explicit casts we choose to lose any association
                # between the value being cast and the resulting type."
                return self.cell_for_type(t, e.line, e.col).rvalue

            case Comma(left=left, right=right):
                self.rvalue(left, scope)
                return self.rvalue(right, scope)

            case InitList(items=items):
                for item in items:
                    self.rvalue(item, scope)
                return self.fresh_scalar()

            case _:  # pragma: no cover - exhaustive over AST
                return self.fresh_scalar()

    def _call(
        self,
        func: CExpr,
        args: tuple[CExpr, ...],
        scope: dict[str, TranslatedType],
        line: int,
        col: int = 0,
    ) -> QType:
        callee: Optional[QType] = None
        unknown_name: Optional[str] = None
        if isinstance(func, Ident) and func.name not in scope and func.name not in self.program.globals:
            callee = self.function_value(func.name, line)
            if callee is None:
                unknown_name = func.name
        else:
            callee = self.rvalue(func, scope)

        arg_types = [self.rvalue(a, scope) for a in args]

        if callee is not None:
            # Calling through a function pointer: unwrap cells.
            while callee.constructor is REF:
                callee = callee.args[0]
            if _is_fun_shape(callee):
                *param_types, ret_type = callee.args
                for arg_type, param_type in zip(arg_types, param_types):
                    # Surplus arguments (varargs or miscalls) are ignored.
                    self.flow(arg_type, param_type, self.origin("call argument", line, col))
                return ret_type

        # Unknown callee (implicitly declared function): maximally
        # conservative — every pointer level of every argument may be
        # written through by the callee.
        origin = self.origin(
            f"call to unknown function {unknown_name or '<expr>'}", line, col
        )
        for arg_type in arg_types:
            self._pin_pointer_levels(arg_type, origin)
        return self.fresh_scalar()

    def _pin_pointer_levels(self, value: QType, origin: Origin) -> None:
        """Pin every reachable cell qualifier of a pointer value non-const."""
        stack = [value]
        while stack:
            current = stack.pop()
            if current.constructor is REF:
                self.emit(current.qual, self.not_const, origin)
                stack.extend(current.args)

    # ------------------------------------------------------------------
    # Statement analysis
    # ------------------------------------------------------------------
    def analyze_function(self, fdef: FuncDef) -> None:
        self._current_file = fdef.file
        sig = self.signature_for(fdef)
        scope: dict[str, TranslatedType] = {}
        for decl, cell in zip(fdef.params, sig.params):
            if decl.name:
                scope[decl.name] = cell
        self._stmt(fdef.body, scope, sig)

    def analyze_global_initializers(self) -> None:
        """Analysed after the FDG traversal, per Section 4.3."""
        for name, decl in self.program.globals.items():
            if decl.init is None:
                continue
            self._current_file = decl.file
            cell = self.global_cell(name)
            assert cell is not None
            if isinstance(decl.init, InitList):
                for item in decl.init.items:
                    self.rvalue(item, {})
                continue
            rv = self.rvalue(decl.init, {})
            self.flow(
                rv, cell.qtype.args[0], self.origin(f"initializer of {name}", decl.line, decl.col, decl.file)
            )

    def _stmt(self, s: CStmt, scope: dict[str, TranslatedType], sig: FunctionSig) -> None:
        match s:
            case Compound(body=body):
                inner = dict(scope)
                for child in body:
                    self._stmt(child, inner, sig)
            case DeclStmt(decls=decls):
                for decl in decls:
                    cell = self.cell_for_type(
                        decl.type, decl.line, decl.col, decl.file
                    )
                    scope[decl.name] = cell
                    if decl.init is None:
                        continue
                    if isinstance(decl.init, InitList):
                        for item in decl.init.items:
                            self.rvalue(item, scope)
                        continue
                    rv = self.rvalue(decl.init, scope)
                    self.flow(
                        rv,
                        cell.qtype.args[0],
                        self.origin(f"initializer of {decl.name}", decl.line, decl.col, decl.file),
                    )
            case ExprStmt(expr=e):
                self.rvalue(e, scope)
            case IfStmt(cond=c, then=t, other=o):
                self.rvalue(c, scope)
                self._stmt(t, dict(scope), sig)
                if o is not None:
                    self._stmt(o, dict(scope), sig)
            case WhileStmt(cond=c, body=b):
                self.rvalue(c, scope)
                self._stmt(b, dict(scope), sig)
            case DoWhileStmt(body=b, cond=c):
                self._stmt(b, dict(scope), sig)
                self.rvalue(c, scope)
            case ForStmt(init=init, cond=cond, step=step, body=b):
                inner = dict(scope)
                if isinstance(init, DeclStmt):
                    self._stmt(init, inner, sig)
                elif init is not None:
                    self.rvalue(init, inner)
                if cond is not None:
                    self.rvalue(cond, inner)
                if step is not None:
                    self.rvalue(step, inner)
                self._stmt(b, inner, sig)
            case ReturnStmt(value=v):
                if v is not None:
                    rv = self.rvalue(v, scope)
                    self.flow(rv, sig.ret_rvalue, self.origin("return value", s.line, s.col))
            case SwitchStmt(value=v, body=b):
                self.rvalue(v, scope)
                self._stmt(b, dict(scope), sig)
            case CaseStmt(value=v, stmt=inner_stmt):
                if v is not None:
                    self.rvalue(v, scope)
                self._stmt(inner_stmt, scope, sig)
            case LabeledStmt(stmt=inner_stmt):
                self._stmt(inner_stmt, scope, sig)
            case EmptyStmt() | BreakStmt() | ContinueStmt() | GotoStmt():
                return
            case _:  # pragma: no cover - exhaustive over AST
                return
