"""From-scratch C front end (Section 4's substrate).

* :mod:`repro.cfront.clexer` — C lexer (comments, constants, operators,
  preprocessor-line skipping), strict and recovering.
* :mod:`repro.cfront.cparser` — recursive-descent parser: declarators,
  typedefs, structs/unions/enums, statements, the full expression
  grammar; ``parse_c`` raises on the first error, ``parse_c_resilient``
  recovers panic-mode style and returns a partial unit + diagnostics.
* :mod:`repro.cfront.cpp` — minimal preprocessor (includes, object-like
  macros, conditionals) with original-file line maps.
* :mod:`repro.cfront.cast` — the C AST.
* :mod:`repro.cfront.ctypes` — C types and the Section 4.1 ``l``
  translation of C types into qualified ref types.
* :mod:`repro.cfront.sema` — whole-program symbol tables and traversals.
* :mod:`repro.cfront.cpretty` — AST back to C text (round-trip tested).
"""

from .clexer import CLexError, CToken, CTokenKind, ParseDiagnostic, tokenize_c
from .cparser import CParseError, ParseResult, parse_c, parse_c_resilient
from .cpp import PreprocessResult, preprocess
from .cast import TranslationUnit
from .ctypes import (
    CArray,
    CBase,
    CEnum,
    CFunc,
    CPointer,
    CStruct,
    CType,
    LevelInfo,
    TranslatedType,
    decay,
    format_ctype,
    is_const,
    is_pointerish,
    lvalue_qtype,
    pointee,
    pointer_depth,
)
from .cpretty import (
    format_expr,
    format_stmt,
    format_toplevel,
    format_unit,
    normalize_stmt,
    normalize_toplevel,
)
from .sema import Program, SemaError, expressions_of

__all__ = [name for name in dir() if not name.startswith("_")]
