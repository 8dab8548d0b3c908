"""Design invariants, checked on the source tree by AST rules.

Each rule is a function from one module's source text to the lines
that break it, and each has a mutant fixture — a snippet the rule must
flag — so a rule that silently stops matching fails here too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def _modules(root: Path = SRC):
    for path in sorted(root.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), path.read_text()


# ---------------------------------------------------------------------------
# One walk per C function body
# ---------------------------------------------------------------------------

#: the one module that walks whole function bodies (``Program.occurrences``)
_BODY_WALKER = "cfront/sema.py"


def body_walk_violations(module: str, source: str) -> list[int]:
    """Lines that walk C syntax a second way.  Outside ``cfront/sema.py``
    no module calls ``expressions_of(<x>.body)``: readers take what they
    need from the cached ``Program.occurrences()``.  In ``checker/`` no
    module walks the AST reflectively over ``__dataclass_fields__``."""
    lines: list[int] = []
    for node in ast.walk(ast.parse(source)):
        if (
            module != _BODY_WALKER
            and isinstance(node, ast.Call)
            and _called_name(node.func) == "expressions_of"
            and node.args
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "body"
        ):
            lines.append(node.lineno)
        if module.startswith("checker/") and (
            (isinstance(node, ast.Attribute) and node.attr == "__dataclass_fields__")
            or (isinstance(node, ast.Constant) and node.value == "__dataclass_fields__")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def _called_name(func: ast.expr) -> str | None:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


_BODY_WALK_MUTANT = """\
from ..cfront import sema
from ..cfront.sema import expressions_of

def casts(fdef):
    return [e for e in expressions_of(fdef.body)]

def names(program, name):
    return sema.expressions_of(program.functions[name].body)

def walk(e):
    for name in type(e).__dataclass_fields__:
        getattr(e, "__dataclass_fields__")
"""


def test_body_walk_rule_flags_its_mutant():
    assert body_walk_violations("checker/mutant.py", _BODY_WALK_MUTANT) == [5, 8, 11, 12]
    # the walker itself may walk bodies; reflection is only banned in checker/
    assert body_walk_violations(_BODY_WALKER, _BODY_WALK_MUTANT) == []
    assert body_walk_violations("whole/mutant.py", _BODY_WALK_MUTANT) == [5, 8]


def test_one_walk_per_function_body():
    broken = {
        module: lines
        for module, source in _modules()
        if (lines := body_walk_violations(module, source))
    }
    assert broken == {}
