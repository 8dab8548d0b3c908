"""Tests for the linker model: C linkage rules, static renaming with
block scoping, extern/tentative merging, and conflict diagnostics."""

import pytest

from repro.cfront.cparser import CFileError, parse_c
from repro.whole.linker import (
    STATIC_SEPARATOR,
    link_paths,
    link_sources,
    link_units,
)


def test_extern_declaration_merges_with_defining_tu():
    linked = link_sources(
        {
            "a.c": "int width(void) { return 3; }\n",
            "b.c": "extern int width(void);\nint twice(void) { return width() + width(); }\n",
        }
    )
    assert linked.diagnostics == []
    sym = linked.symbols["width"]
    assert sym.linkage == "external"
    assert sym.defining_unit == "a.c"
    assert set(sym.declaring_units) == {"a.c", "b.c"}
    # one program-level function, homed in a.c
    assert linked.tu_of_function["width"] == "a.c"
    assert linked.tu_of_function["twice"] == "b.c"


def test_static_symbols_stay_tu_private():
    linked = link_sources(
        {
            "a.c": "static int counter;\nint bump_a(void) { counter = counter + 1; return counter; }\n",
            "b.c": "static int counter;\nint bump_b(void) { counter = counter + 2; return counter; }\n",
        }
    )
    assert linked.diagnostics == []
    internal = {s.name for s in linked.internal_symbols()}
    assert internal == {"counter@a", "counter@b"}
    # the merged program holds two distinct globals, not one
    assert "counter@a" in linked.program.globals
    assert "counter@b" in linked.program.globals
    assert "counter" not in linked.program.globals


def test_static_functions_renamed_and_references_rewritten():
    linked = link_sources(
        {
            "a.c": "static int helper(int x) { return x; }\nint call_a(void) { return helper(1); }\n",
            "b.c": "static int helper(int y) { return y + 1; }\nint call_b(void) { return helper(2); }\n",
        }
    )
    assert f"helper{STATIC_SEPARATOR}a" in linked.program.functions
    assert f"helper{STATIC_SEPARATOR}b" in linked.program.functions
    # each caller references its own unit's helper
    occurrences = linked.program.occurrences()
    assert f"helper{STATIC_SEPARATOR}a" in occurrences["call_a"].names
    assert f"helper{STATIC_SEPARATOR}b" in occurrences["call_b"].names


def test_local_declaration_shadows_static_rename():
    # the local `counter` must NOT be rewritten to counter@a
    linked = link_sources(
        {
            "a.c": (
                "static int counter;\n"
                "int shadowed(void) {\n"
                "    int counter = 7;\n"
                "    return counter;\n"
                "}\n"
                "int unshadowed(void) { return counter; }\n"
            ),
        }
    )
    occurrences = linked.program.occurrences()
    shadowed = occurrences["shadowed"].names
    assert "counter@a" not in shadowed
    unshadowed = occurrences["unshadowed"].names
    assert "counter@a" in unshadowed


def test_parameter_shadows_static_rename():
    linked = link_sources(
        {
            "a.c": (
                "static int depth;\n"
                "int use_param(int depth) { return depth + 1; }\n"
            ),
        }
    )
    assert "depth@a" not in linked.program.occurrences()["use_param"].names


def test_conflicting_types_across_units_diagnosed():
    linked = link_sources(
        {
            "a.c": "int size(void) { return 1; }\n",
            "b.c": "extern char *size(void);\nchar *grab(void) { return size(); }\n",
        }
    )
    kinds = [d.kind for d in linked.diagnostics]
    assert "conflicting-types" in kinds
    diag = next(d for d in linked.diagnostics if d.kind == "conflicting-types")
    assert diag.symbol == "size"
    assert diag.file == "b.c"


def test_conflicting_qualified_types_diagnosed():
    # const lives in the type terms, so dropping it across TUs is a
    # conflicting-types finding
    linked = link_sources(
        {
            "a.c": "extern const char *label;\n",
            "b.c": "char *label;\n",
        }
    )
    assert any(d.kind == "conflicting-types" for d in linked.diagnostics)


def test_multiple_definition_diagnosed():
    linked = link_sources(
        {
            "a.c": "int origin(void) { return 1; }\n",
            "b.c": "int origin(void) { return 2; }\n",
        }
    )
    dups = [d for d in linked.diagnostics if d.kind == "multiple-definition"]
    assert len(dups) == 1
    assert dups[0].symbol == "origin"
    assert dups[0].file == "b.c"
    assert "a.c" in dups[0].message


def test_array_sizes_do_not_conflict():
    linked = link_sources(
        {
            "a.c": "int table[10];\n",
            "b.c": "extern int table[];\nint first(void) { return table[0]; }\n",
        }
    )
    assert linked.diagnostics == []


def test_parameter_names_do_not_conflict():
    linked = link_sources(
        {
            "a.c": "int mix(int left, int right) { return left + right; }\n",
            "b.c": "extern int mix(int a, int b);\nint go(void) { return mix(1, 2); }\n",
        }
    )
    assert linked.diagnostics == []


def test_tentative_definition_is_not_a_duplicate():
    linked = link_sources(
        {
            "a.c": "int shared;\n",
            "b.c": "int shared;\nint read_it(void) { return shared; }\n",
        }
    )
    assert not any(d.kind == "multiple-definition" for d in linked.diagnostics)


def test_duplicate_filename_stems_get_distinct_labels():
    linked = link_sources(
        {
            "x/util.c": "static int mark;\nint from_x(void) { return mark; }\n",
            "y/util.c": "static int mark;\nint from_y(void) { return mark; }\n",
        }
    )
    internal = sorted(s.name for s in linked.internal_symbols())
    assert internal == ["mark@util", "mark@util~2"]


def test_link_units_accepts_parsed_units():
    units = [
        parse_c("int one(void) { return 1; }\n", "one.c"),
        parse_c("extern int one(void);\nint two(void) { return one() + 1; }\n", "two.c"),
    ]
    linked = link_units(units)
    assert linked.exported_functions() == ["one", "two"]


def test_link_paths_discovers_and_sorts(tmp_path):
    (tmp_path / "b.c").write_text("extern int f(void);\nint g(void) { return f(); }\n")
    (tmp_path / "a.c").write_text("int f(void) { return 1; }\n")
    linked = link_paths([tmp_path])
    assert [n.endswith("a.c") for n in linked.unit_names] == [True, False]
    assert linked.diagnostics == []


def test_link_paths_names_the_file_it_cannot_read_or_parse(tmp_path):
    (tmp_path / "a.c").write_text("int f(void) { return 1; }\n")
    missing = tmp_path / "missing.c"
    with pytest.raises(CFileError, match=f"^{missing}: No such file or directory$"):
        link_paths([tmp_path, missing])
    (tmp_path / "b.c").write_text("int x = 1 @ 2;\n")
    with pytest.raises(CFileError, match=f"^{tmp_path / 'b.c'}: unexpected character"):
        link_paths([tmp_path])


def test_static_rename_cannot_collide_with_source_names():
    # `@` is not a C identifier character
    assert STATIC_SEPARATOR not in "abcdefghijklmnopqrstuvwxyz0123456789_"
    linked = link_sources(
        {"a.c": "static int v;\nint r(void) { return v; }\n"}
    )
    assert all(
        STATIC_SEPARATOR not in name or name.endswith("@a")
        for name in linked.program.globals
    )
