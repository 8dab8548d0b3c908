"""Design invariants, checked on the source tree.

Each rule is a function from one module's path (relative to ``src/``)
and source text to the lines that break it.  Each has a mutant fixture
— a snippet the rule must flag — so a rule that silently stops
matching fails here too, and each test first asserts that every
directory, file and definition its rule names still exists, so a rename
cannot void a rule either.

Run them alone with ``PYTHONPATH=src python -m pytest -q
tests/test_design_invariants.py``.  To add one: write the rule, a
mutant it must flag (``test_<rule>_rule_flags_its_mutant``), and a
test that asserts its anchors and runs the rule over the modules it
watches.
"""

import ast
import functools
import re
from pathlib import Path, PurePosixPath

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@functools.cache
def _source(module: str) -> str:
    return (SRC / module).read_text()


@functools.cache
def _parse(source: str) -> ast.Module:
    return ast.parse(source)


@pytest.fixture(autouse=True, scope="module")
def _drop_parsed_modules():
    # each module is parsed once for all rules; the trees go with the module
    yield
    _source.cache_clear()
    _parse.cache_clear()


def _modules(*roots: str):
    """``(module, source)`` for each ``.py`` file under each root, a
    directory or a file relative to ``src/``; a missing root fails."""
    for root in roots:
        path = SRC / root
        assert path.exists(), f"src/{root} is gone"
        for file in sorted(path.rglob("*.py")) if path.is_dir() else [path]:
            module = file.relative_to(SRC).as_posix()
            yield module, _source(module)


def _violations(rule, *roots: str) -> dict[str, list[int]]:
    return {
        module: lines for module, source in _modules(*roots) if (lines := rule(module, source))
    }


def _definitions(tree: ast.Module):
    """``(qualname, node)`` for each class and function at module level
    or in a class body."""
    stack = [(node, "") for node in tree.body]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, (ast.ClassDef, *_FUNCTIONS)):
            yield f"{prefix}{node.name}", node
        if isinstance(node, ast.ClassDef):
            stack += [(child, f"{prefix}{node.name}.") for child in node.body]


def _defined(module: str, source: str, *qualnames: str) -> None:
    missing = set(qualnames) - {name for name, _ in _definitions(_parse(source))}
    assert not missing, f"src/{module} no longer defines {sorted(missing)}"


def _assert_anchors(*anchors: str) -> None:
    """Each ``path`` or ``path::Qual.name`` (relative to ``src/``) exists."""
    for anchor in anchors:
        module, _, qualname = anchor.partition("::")
        assert (SRC / module).exists(), f"src/{module} is gone"
        if qualname:
            _defined(module, _source(module), qualname)


def _spans(source: str, name: str) -> list[tuple[int, int]]:
    """The line span of each ``def name``, in ``ast.walk`` order."""
    return [
        (node.lineno, node.end_lineno)
        for node in ast.walk(_parse(source))
        if isinstance(node, ast.FunctionDef) and node.name == name
    ]


def _matching_lines(pattern: re.Pattern, source: str, allowed=()) -> list[int]:
    """Lines ``pattern`` matches outside every allowed ``(first, last)``
    span."""
    return [
        number
        for number, line in enumerate(source.splitlines(), 1)
        if pattern.search(line) and not any(first <= number <= last for first, last in allowed)
    ]


def _name(node: ast.expr) -> str | None:
    return getattr(node, "id", getattr(node, "attr", None))


#: No thread pools in the inference engines.  The SCC traversal is serial
#: by design; process pools in the checker and the suite runner are the
#: only parallelism.  The engines' collector pause is safe only because
#: nothing else runs in the process while an engine does.
_ENGINES = ("repro/constinfer", "repro/whole", "repro/qual")
_THREADS = re.compile(r"ThreadPoolExecutor|import threading")


def thread_pool_violations(module: str, source: str) -> list[int]:
    return _matching_lines(_THREADS, source)


def test_thread_pool_rule_flags_its_mutant():
    mutant = "from concurrent.futures import ThreadPoolExecutor\nimport threading\n"
    assert thread_pool_violations("repro/whole/engine.py", mutant) == [1, 2]


def test_no_thread_pools_in_the_engines():
    assert _violations(thread_pool_violations, *_ENGINES) == {}


#: Collector state changes only in the engines' pause helper,
#: ``_collector_paused`` (DESIGN.md, Collector policy).
_PAUSE = "repro/constinfer/engine.py"
_COLLECTOR = re.compile(r"gc\.(disable|enable|set_threshold|freeze)\b")


def collector_violations(module: str, source: str) -> list[int]:
    allowed = _spans(source, "_collector_paused")[:1] if module == _PAUSE else []
    return _matching_lines(_COLLECTOR, source, allowed)


_COLLECTOR_MUTANT = """\
import gc
def _collector_paused():
    gc.disable()
    gc.enable()
def solve():
    gc.freeze()
    gc.set_threshold(0)
"""


def test_collector_rule_flags_its_mutant():
    assert collector_violations(_PAUSE, _COLLECTOR_MUTANT) == [6, 7]
    assert collector_violations("repro/whole/engine.py", _COLLECTOR_MUTANT) == [3, 4, 6, 7]


def test_collector_state_changes_only_in_the_pause_helper():
    _assert_anchors(f"{_PAUSE}::_collector_paused")
    assert _violations(collector_violations, ".") == {}


#: C source text is read only by the one source loader.  ``load_sources``
#: reads every unit for qlint, qlint suggest and the daemon (DESIGN.md,
#: serve section); ``Baseline.load`` reads the baseline JSON.
_LOADERS = {
    "repro/checker/runner.py": "load_sources",
    "repro/checker/diagnostics.py": "load",
}
_READS = re.compile(r"\b(read_text|read_bytes|open)\(")


def source_read_violations(module: str, source: str) -> list[int]:
    allowed = _spans(source, _LOADERS[module]) if module in _LOADERS else []
    return _matching_lines(_READS, source, allowed)


_SOURCE_READ_MUTANT = """\
def load_sources(paths):
    return {p: Path(p).read_text() for p in paths}
def render(path):
    with open(path) as f:
        return Path(path).read_bytes()
"""


def test_source_read_rule_flags_its_mutant():
    assert source_read_violations("repro/checker/runner.py", _SOURCE_READ_MUTANT) == [4, 5]
    assert source_read_violations("repro/serve/session.py", _SOURCE_READ_MUTANT) == [2, 4, 5]


def test_c_source_text_is_read_only_by_the_source_loader():
    _assert_anchors(
        "repro/checker/runner.py::load_sources", "repro/checker/diagnostics.py::Baseline.load"
    )
    assert _violations(source_read_violations, "repro/checker", "repro/serve") == {}


#: The flow language has one walker.  ``FlowAnalysis`` is its one
#: transfer function (DESIGN.md, Section 6); ownership.py's abstract walk
#: is the only other reader of its control flow.  Either a match case or
#: an isinstance test on If/While/Refine (a tuple of classes included)
#: reads that control flow.
_FLOW_WALKERS = {"analysis.py", "ownership.py"}
_FLOW_DISPATCH = re.compile(r"case (While|If|Refine)\(|isinstance\([^)]*\b(While|If|Refine)\b")


def flow_dispatch_violations(module: str, source: str) -> list[int]:
    if PurePosixPath(module).name in _FLOW_WALKERS:
        return []
    return [source.count("\n", 0, m.start()) + 1 for m in _FLOW_DISPATCH.finditer(source)]


_FLOW_DISPATCH_MUTANT = """\
def walk(stmt):
    match stmt:
        case While(cond=c):
            pass
    if isinstance(stmt, (If,
                         Refine)):
        pass
"""


def test_flow_dispatch_rule_flags_its_mutant():
    assert flow_dispatch_violations("repro/flowsens/lower.py", _FLOW_DISPATCH_MUTANT) == [3, 5]
    assert flow_dispatch_violations("repro/flowsens/ownership.py", _FLOW_DISPATCH_MUTANT) == []


def test_the_flow_language_has_one_walker():
    _assert_anchors(
        "repro/flowsens/analysis.py::FlowAnalysis",
        "repro/flowsens/ownership.py",
        *(f"repro/flowsens/language.py::{name}" for name in ("While", "If", "Refine")),
    )
    assert _violations(flow_dispatch_violations, "repro/flowsens") == {}


#: One SCC routine.  ``_tarjan`` is the one strongly-connected-components
#: search (DESIGN.md, "Condensation solver"); the function dependence
#: graph and scheme minimisation reach it through ``flatcore.sccs_of``.
_FLATCORE = "repro/qual/flatcore.py"
_SCC = re.compile(r"on_stack|lowlink")


def scc_violations(module: str, source: str) -> list[int]:
    return [] if module == _FLATCORE else _matching_lines(_SCC, source)


_SCC_MUTANT = """\
def strongly_connected(graph):
    index, lowlink, on_stack = {}, {}, set()
    return lowlink
"""


def test_scc_rule_flags_its_mutant():
    assert scc_violations("repro/constinfer/fdg.py", _SCC_MUTANT) == [2, 3]
    assert scc_violations(_FLATCORE, _SCC_MUTANT) == []


def test_one_scc_routine():
    _assert_anchors(f"{_FLATCORE}::_tarjan", f"{_FLATCORE}::sccs_of")
    assert _violations(scc_violations, "repro") == {}


#: One solve result.  ``Solution``, over masks, is the only one (DESIGN.md,
#: "Flat-array solver core"); flatcore takes arrays and returns masks, so
#: it imports nothing from the solver, and the solve path has no
#: function-level import.
_SOLVER = "repro/qual/solver.py"


def solve_result_violations(module: str, source: str) -> list[int]:
    tree = _parse(source)
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and any(_name(b) == "Solution" for b in node.bases)
    ]
    if module == _FLATCORE:
        lines += [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (
                (node.module or "").split(".")[-1] == "solver"
                or any(alias.name == "solver" for alias in node.names)
            )
        ]
    if module == _SOLVER:
        lines += [
            inner.lineno
            for node in ast.walk(tree)
            if isinstance(node, _FUNCTIONS)
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Import, ast.ImportFrom))
        ]
    return sorted(lines)


_SOLVE_RESULT_MUTANT = """\
from . import solver
from .solver import Solution
class FlatSolution(Solution): ...
class Masks(solver.Solution): ...
def solve(constraints):
    import array
    from .flatcore import sccs_of
"""


def test_solve_result_rule_flags_its_mutant():
    assert solve_result_violations(_FLATCORE, _SOLVE_RESULT_MUTANT) == [1, 2, 3, 4]
    assert solve_result_violations(_SOLVER, _SOLVE_RESULT_MUTANT) == [3, 4, 6, 7]
    assert solve_result_violations("repro/whole/engine.py", _SOLVE_RESULT_MUTANT) == [3, 4]


def test_one_solve_result():
    _assert_anchors(f"{_SOLVER}::Solution", _FLATCORE)
    assert _violations(solve_result_violations, ".") == {}


#: One generalisation pass per SCC.  ``generalize`` takes a whole binding
#: group and indexes its constraints once (DESIGN.md, "Performance
#: architecture"); the engines call it once per FDG component and once per
#: polyrec round, never once per member.
_LOOPS = (
    ast.For, ast.AsyncFor, ast.While,
    ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
)


def generalisation_violations(module: str, source: str) -> list[int]:
    lines = []

    def visit(node: ast.AST, in_loop: bool) -> None:
        if isinstance(node, _FUNCTIONS):
            if node.name == "_generalize_component_member":
                lines.append(node.lineno)
            in_loop = False
        if isinstance(node, ast.Call) and in_loop and _name(node.func) == "generalize":
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, in_loop or isinstance(node, _LOOPS))

    visit(_parse(source), False)
    return lines


_GENERALISATION_MUTANT = """\
def _generalize_component_member(member):
    return poly.generalize([member])
def run(components):
    for component in components:
        for member in component:
            generalize([member])
        def once(group):
            return generalize(group)
    return [poly.generalize(c) for c in components], once
"""


def test_generalisation_rule_flags_its_mutant():
    # a function body inside a loop starts outside it (line 8)
    assert generalisation_violations(_PAUSE, _GENERALISATION_MUTANT) == [1, 6, 9]


def test_one_generalisation_pass_per_scc():
    _assert_anchors("repro/qual/poly.py::generalize")
    assert _violations(generalisation_violations, "repro/constinfer", "repro/whole") == {}


#: Syntax trees are slotted, never frozen.  Every @dataclass of the C AST,
#: the C types and the flow language sets slots=True and not frozen=True:
#: a frozen class pays object.__setattr__ per field on every node it builds
#: (DESIGN.md, "Per-node value classes", has the measurement);
#: tests/test_tree_values.py checks the immutability instead.
_TREE_MODULES = (
    "repro/cfront/cast.py",
    "repro/cfront/ctypes.py",
    "repro/flowsens/language.py",
    "repro/qual/constraints.py",
)


def unslotted_violations(module: str, source: str) -> list[int]:
    lines = []
    for node in ast.walk(_parse(source)):
        if not isinstance(node, ast.ClassDef):
            continue
        for deco in node.decorator_list:
            call = deco if isinstance(deco, ast.Call) else None
            if _name(call.func if call else deco) != "dataclass":
                continue
            options = {
                k.arg: getattr(k.value, "value", k.value) for k in (call.keywords if call else [])
            }
            if options.get("slots") is not True or options.get("frozen", False) is not False:
                lines.append(node.lineno)
    return lines


_UNSLOTTED_MUTANT = """\
@dataclass(slots=True)
class Ident: ...
@dataclass
class Bare: ...
@dataclasses.dataclass(slots=True, frozen=True)
class Frozen: ...
@dataclass(frozen=False, slots=True)
class Fine: ...
@dataclass(slots=False)
class Unslotted: ...
"""


def test_unslotted_rule_flags_its_mutant():
    assert unslotted_violations("repro/cfront/cast.py", _UNSLOTTED_MUTANT) == [4, 6, 10]


def test_syntax_trees_are_slotted_never_frozen():
    assert _violations(unslotted_violations, *_TREE_MODULES) == {}


#: Token kinds are bound once.  On Python 3.11 an Enum member load goes
#: through EnumType.__getattr__, >10x a global load: the C parser binds
#: token kinds at module level and imports nothing per call, and the
#: per-position verdict code binds Classification and Polarity the same
#: way (DESIGN.md, "C front end").
_ENUMS = {"CTokenKind", "Classification", "Polarity"}
#: module -> (functions checked, or None for all; imports forbidden)
_BOUND_ONCE = {
    "repro/cfront/cparser.py": (None, True),
    _SOLVER: ({"Solution.classify"}, False),
    _PAUSE: (
        {
            "InferenceRun.inferred_const_count",
            "InferenceRun.must_not_count",
            "InferenceRun.either_count",
        },
        False,
    ),
}


def enum_load_violations(module: str, source: str) -> list[int]:
    wanted, no_imports = _BOUND_ONCE[module]
    lines = []
    for qualname, function in _definitions(_parse(source)):
        if not isinstance(function, _FUNCTIONS) or (wanted is not None and qualname not in wanted):
            continue
        for node in ast.walk(function):
            # Qualifier.positive/.negative load a Polarity member
            bad = (
                isinstance(node, ast.Attribute)
                and (
                    getattr(node.value, "id", None) in _ENUMS
                    or (wanted and node.attr in ("positive", "negative"))
                )
            ) or (no_imports and isinstance(node, (ast.Import, ast.ImportFrom)))
            if bad:
                lines.append(node.lineno)
    return sorted(lines)


_ENUM_LOAD_MUTANT = """\
class Solution:
    def classify(self, var):
        from .lattice import Polarity
        if var.positive:
            return Classification.MUST_NOT
        return Polarity.NEGATIVE
class InferenceRun:
    def inferred_const_count(self):
        return sum(c is Classification.CONST for c in self.verdicts)
    def must_not_count(self): ...
    def either_count(self): ...
    def table(self):
        return Classification.EITHER
"""


def test_enum_load_rule_flags_its_mutant():
    assert enum_load_violations(_SOLVER, _ENUM_LOAD_MUTANT) == [4, 5, 6]
    assert enum_load_violations(_PAUSE, _ENUM_LOAD_MUTANT) == [9]
    assert enum_load_violations("repro/cfront/cparser.py", _ENUM_LOAD_MUTANT) == [3, 5, 6, 9, 13]


def test_token_kinds_are_bound_once():
    _assert_anchors(
        *(
            f"{module}::{name}"
            for module, (names, _) in _BOUND_ONCE.items()
            for name in names or ()
        ),
        "repro/cfront/clexer.py::CTokenKind",
        f"{_SOLVER}::Classification",
        "repro/qual/lattice.py::Polarity",
        "repro/qual/lattice.py::Qualifier.positive",
        "repro/qual/lattice.py::Qualifier.negative",
    )
    assert _violations(enum_load_violations, *_BOUND_ONCE) == {}


#: qlint's JSON comes from one writer.  ``_dumps`` writes every JSON and
#: SARIF report, and SARIF URIs are resolved once per render, never cached
#: across renders: the daemon's files move between requests (DESIGN.md,
#: qlint section).
_RENDER = "repro/checker/render.py"
_JSON_WRITERS = re.compile(r"json\.dumps\(|lru_cache|functools\.cache")


def json_writer_violations(module: str, source: str) -> list[int]:
    return _matching_lines(_JSON_WRITERS, source)


_JSON_WRITER_MUTANT = """\
@functools.lru_cache(maxsize=None)
def uri(path):
    return json.dumps(path)
@functools.cache
def root(): ...
"""


def test_json_writer_rule_flags_its_mutant():
    assert json_writer_violations(_RENDER, _JSON_WRITER_MUTANT) == [1, 3, 4]


def test_qlint_json_comes_from_one_writer():
    _assert_anchors(f"{_RENDER}::_dumps")
    assert _violations(json_writer_violations, _RENDER) == {}


#: One walk per C function body: the one module that walks whole function
#: bodies (``Program.occurrences``).
_BODY_WALKER = "repro/cfront/sema.py"


def body_walk_violations(module: str, source: str) -> list[int]:
    """Lines that walk C syntax a second way.  Outside ``cfront/sema.py``
    no module calls ``expressions_of(<x>.body)``: readers take what they
    need from the cached ``Program.occurrences()``.  In ``checker/`` no
    module walks the AST reflectively over ``__dataclass_fields__``."""
    lines: list[int] = []
    for node in ast.walk(_parse(source)):
        if (
            module != _BODY_WALKER
            and isinstance(node, ast.Call)
            and _name(node.func) == "expressions_of"
            and node.args
            and isinstance(node.args[0], ast.Attribute)
            and node.args[0].attr == "body"
        ):
            lines.append(node.lineno)
        if module.startswith("repro/checker/") and (
            (isinstance(node, ast.Attribute) and node.attr == "__dataclass_fields__")
            or (isinstance(node, ast.Constant) and node.value == "__dataclass_fields__")
        ):
            lines.append(node.lineno)
    return sorted(lines)


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
    assert body_walk_violations("repro/checker/mutant.py", _BODY_WALK_MUTANT) == [5, 8, 11, 12]
    # the walker itself may walk bodies; reflection is only banned in checker/
    assert body_walk_violations(_BODY_WALKER, _BODY_WALK_MUTANT) == []
    assert body_walk_violations("repro/whole/mutant.py", _BODY_WALK_MUTANT) == [5, 8]


def test_one_walk_per_function_body():
    _assert_anchors(f"{_BODY_WALKER}::expressions_of")
    assert _violations(body_walk_violations, "repro") == {}


def test_a_missing_anchor_fails_loudly():
    with pytest.raises(AssertionError, match="src/repro/whole_renamed is gone"):
        _violations(thread_pool_violations, "repro/constinfer", "repro/whole_renamed")
    with pytest.raises(AssertionError, match="src/repro/qual/poly_renamed.py is gone"):
        _assert_anchors("repro/qual/poly_renamed.py::generalize")
    renamed = _source(_SOLVER).replace("def classify(", "def classify_renamed(")
    with pytest.raises(AssertionError, match=r"no longer defines \['Solution.classify'\]"):
        _defined(_SOLVER, renamed, "Solution.classify", "Classification")
