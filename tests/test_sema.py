"""Unit tests for whole-program semantic tables and traversals."""

from repro.cfront.sema import (
    Program,
    expressions_of,
    local_declarations,
    statements,
)


class TestProgramTables:
    def test_basic_tables(self):
        program = Program.from_source(
            """
            struct st { int x; };
            enum color { RED, GREEN = 7, BLUE };
            typedef int myint;
            int global_v = 1;
            extern int lib(const char *s);
            int defined(int a) { return a; }
            """
        )
        assert "st" in program.structs
        assert program.enum_constants == {"RED": 0, "GREEN": 7, "BLUE": 8}
        assert "myint" in program.typedefs
        assert "global_v" in program.globals
        assert "lib" in program.prototypes
        assert "defined" in program.functions

    def test_undefined_function_names(self):
        program = Program.from_source(
            "extern int lib(int); int f(void) { return lib(1); }"
        )
        assert program.undefined_function_names() == {"lib"}
        assert program.defined_function_names() == {"f"}

    def test_prototype_of_defined_function_not_library(self):
        program = Program.from_source(
            "int f(int); int f(int a) { return a; }"
        )
        assert program.undefined_function_names() == set()

    def test_duplicate_definitions_renamed(self):
        program = Program.from_sources(
            {
                "a.c": "int work(void) { return 1; }",
                "b.c": "int work(void) { return 2; }",
            }
        )
        assert "work" in program.functions
        assert "work__dup2" in program.functions

    def test_extern_global_does_not_shadow_definition(self):
        program = Program.from_sources(
            {
                "a.c": "int counter = 5;",
                "b.c": "extern int counter;",
            }
        )
        assert program.globals["counter"].init is not None

    def test_struct_redeclaration_keeps_fields(self):
        program = Program.from_sources(
            {
                "a.c": "struct st { int x; };",
                "b.c": "struct st; struct st *p;",
            }
        )
        assert len(program.structs["st"].fields) == 1

    def test_total_lines(self):
        program = Program.from_source("int a;\nint b;\nint c;\n")
        assert program.total_lines() == 3


class TestTraversals:
    def test_subexpressions_complete(self):
        program = Program.from_source(
            "int f(int a) { return a ? g(a + 1) : h[a]; }"
        )
        fdef = program.functions["f"]
        names = {
            e.name
            for e in expressions_of(fdef.body)
            if type(e).__name__ == "Ident"
        }
        assert names == {"a", "g", "h"}

    def test_statements_nested(self):
        program = Program.from_source(
            "void f(void) { if (1) { while (2) { x = 3; } } }"
        )
        stmts = list(statements(program.functions["f"].body))
        kinds = {type(s).__name__ for s in stmts}
        assert {"Compound", "IfStmt", "WhileStmt", "ExprStmt"} <= kinds

    def test_expressions_in_declarations(self):
        program = Program.from_source("void f(void) { int x = seed(); }")
        names = {
            e.name
            for e in expressions_of(program.functions["f"].body)
            if type(e).__name__ == "Ident"
        }
        assert "seed" in names

    def test_expressions_in_for_clauses(self):
        program = Program.from_source(
            "void f(void) { for (i = a; i < b; i += c) ; }"
        )
        names = {
            e.name
            for e in expressions_of(program.functions["f"].body)
            if type(e).__name__ == "Ident"
        }
        assert {"a", "b", "c", "i"} <= names


class TestOccurringNames:
    def test_calls_count(self):
        program = Program.from_source(
            "int g(void){return 0;} int f(void) { return g(); }"
        )
        assert "g" in program.occurrences()["f"].names

    def test_address_of_counts(self):
        # Definition 4: ANY occurrence of the name, not just calls.
        program = Program.from_source(
            """
            int g(void) { return 0; }
            void f(void) { int (*p)(void) = g; }
            """
        )
        assert "g" in program.occurrences()["f"].names

    def test_no_occurrence(self):
        program = Program.from_source(
            "int g(void){return 0;} int f(void) { return 1; }"
        )
        assert "g" not in program.occurrences()["f"].names


class TestLocalDeclarations:
    def test_each_local_listed_once_in_source_order(self):
        program = Program.from_source(
            "int f(int n) {\n"
            "    int a = n;\n"
            "    for (char *p = 0; p; p++) { char *q = p; }\n"
            "    { int a = 2; }\n"
            "    return a;\n"
            "}\n"
        )
        decls = local_declarations(program.functions["f"])
        assert [(d.name, d.line) for d in decls] == [
            ("a", 2),
            ("p", 3),
            ("q", 3),
            ("a", 4),
        ]
        assert len({id(d) for d in decls}) == len(decls)

    def test_parameters_are_not_locals(self):
        program = Program.from_source("int f(int n) { return n; }")
        assert local_declarations(program.functions["f"]) == []
