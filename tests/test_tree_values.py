"""Syntax trees are values.

The C AST (:mod:`repro.cfront.cast`), C types (:mod:`repro.cfront.ctypes`)
and the flow language (:mod:`repro.flowsens.language`) are slotted
dataclasses that assign their fields plainly, not frozen ones (DESIGN.md,
"Per-node value classes").  These tests hold what they promise as
values:

* nothing mutates a tree: parse, mono and poly inference, every qlint
  check, lowering with the resource pack, and a whole-program link with
  ownership summaries leave every ``TranslationUnit`` and every lowered
  flow program ``repr``-identical, spans included;
* every class pickles (process pools ship parsed units): a round trip
  gives back an equal object with the same ``repr``;
* ``==`` and ``hash`` ignore spans (line, column, file, flow labels),
  and the classes that were hashable still are.
"""

import dataclasses
import pickle
from pathlib import Path

import pytest

from repro.benchsuite.suite import PAPER_BENCHMARKS, generate_source
from repro.cfront import cast, ctypes
from repro.cfront.cparser import parse_c, parse_c_resilient
from repro.cfront.sema import Program
from repro.checker.checks import ALL_CHECKS
from repro.checker.engine import check_linked_program, check_program
from repro.checker.runner import parse_units
from repro.constinfer.engine import ConstInferenceError, run_mono, run_poly
from repro.flowsens import language
from repro.flowsens.linear import analyze_function_resources
from repro.flowsens.lower import DEFAULT_POLICY, lower_function
from repro.flowsens.ownership import with_summaries
from repro.qual.qualifiers import const_lattice, resource_lattice
from repro.whole.linker import link_units
from repro.whole.ownership import ownership_for_linked

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"
WOMAN = PAPER_BENCHMARKS[0]
#: One of every AST node and C type, in a unit the whole pipeline accepts.
EVERY_NODE = """\
typedef unsigned long size_t;
void *malloc(size_t n);
void free(void *p);
int printf(const char *fmt, ...);
enum color { RED, GREEN = 2 };
struct node { int value; struct node *next; };
union word { int i; char c[4]; };
static const char *names[2] = { "red", "green" };
int (*handler)(int);

int step(int x) { return x + 1; }

double mix(struct node *n, enum color c, float f) {
    int i = 0, total = 0;
    char *p = malloc(sizeof(struct node));
    char *q = p;
    ;
    do { i++; } while (i < 3);
    for (i = 0; i < 10; i = i + 1) {
        if (i == 2) continue;
        if (i > 8) break;
        total += n->value, total -= (int)f;
    }
    while (n != 0) { total = total ? total : -total; n = n->next; }
    switch (c) {
    case RED: total = ~total; break;
    default: total = !total;
    }
    if (total) goto done;
    *q = 'a';
    handler = step;
    total = handler(names[0][0]);
done:
    free(q);
    return 1.5 + total;
}
"""

CORPORA = (
    "every-node",
    "checker_corpus",
    "multi_tu",
    "realworld",
    "resource_bugs",
    "resource_bugs_xtu",
    WOMAN.name,
)

CLASSES = sorted(
    (
        obj
        for module in (cast, ctypes, language)
        for obj in vars(module).values()
        if isinstance(obj, type)
        and dataclasses.is_dataclass(obj)
        and obj.__module__ == module.__name__
    ),
    key=lambda cls: f"{cls.__module__}.{cls.__name__}",
)
#: Mutable containers rather than values: never hashable.
UNHASHABLE = {cast.TranslationUnit, ctypes.LevelInfo, ctypes.TranslatedType}


def parse_corpus(corpus: str) -> list[cast.TranslationUnit]:
    if corpus == "every-node":
        return [parse_c(EVERY_NODE, "every_node.c")]
    if corpus == WOMAN.name:
        return [parse_c(generate_source(WOMAN), WOMAN.name)]
    paths = sorted((EXAMPLES / corpus).glob("*.c"))
    if corpus == "realworld":
        include = [str(EXAMPLES / corpus / "include")]
        return [
            parse_c_resilient(p.read_text(), str(p), include_paths=include).unit
            for p in paths
        ]
    return [parse_c(p.read_text(), str(p)) for p in paths]


def run_pipeline(units: list[cast.TranslationUnit]) -> list:
    """Every stage that reads a tree; returns the lowered functions."""
    lattice = resource_lattice()
    lowered = []
    for unit in units:
        program = Program.from_units([unit])
        for engine in (run_mono, run_poly):
            try:
                engine(program)
            except ConstInferenceError:
                pass  # an unsatisfiable unit has still been walked
        check_program(program, ALL_CHECKS)
        for fdef in program.functions.values():
            lowered.append(lower_function(fdef, lattice, DEFAULT_POLICY))
    linked = link_units(units)
    check_linked_program(linked, ALL_CHECKS)
    policy = with_summaries(DEFAULT_POLICY, ownership_for_linked(linked))
    for fdef in linked.program.functions.values():
        lowered.append(lower_function(fdef, lattice, policy))
    return lowered


@pytest.mark.parametrize("corpus", CORPORA)
def test_pipeline_mutates_no_tree(corpus):
    units = parse_corpus(corpus)
    before = [repr(unit) for unit in units]
    lowered = run_pipeline(units)
    assert lowered
    lowered_before = [repr(fn) for fn in lowered]
    for fn in lowered:
        analyze_function_resources(fn, resource_lattice())
    assert [repr(unit) for unit in units] == before
    assert [repr(fn) for fn in lowered] == lowered_before


# ---------------------------------------------------------------------------
# One instance of every class, from real trees where the pipeline makes
# them and hand-built where it does not
# ---------------------------------------------------------------------------


def _collect(roots, found: dict) -> None:
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if isinstance(obj, (tuple, list, frozenset)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            if type(obj) in CLASSES:
                found.setdefault(type(obj), obj)
            stack.extend(getattr(obj, f.name) for f in dataclasses.fields(obj))


@pytest.fixture(scope="module")
def instances() -> dict:
    found: dict = {}
    for corpus in ("every-node", "resource_bugs_xtu"):
        units = parse_corpus(corpus)
        _collect(units, found)
        _collect(run_pipeline(units), found)
    level = const_lattice().top
    span = {"line": 3, "col": 5, "file": "hand.c"}
    _collect(
        [
            ctypes.lvalue_qtype(ctypes.CPointer(ctypes.CHAR)),
            cast.CExpr(line=3, col=5),
            cast.CStmt(line=3, col=5),
            language.FlowStmt(label="s0", **span),
            language.Join(language.VarRef("a"), language.Literal(level)),
            language.AnnotStmt("x", level, label="s1", **span),
            language.AssertStmt("x", level, label="s2", **span),
            language.Refine("x", "nonnull", (language.Havoc("x"),), **span),
            language.CallVia("helper", "helper.c", 7, 1),
        ],
        found,
    )
    return found


def test_every_class_has_an_instance(instances):
    missing = [cls.__name__ for cls in CLASSES if cls not in instances]
    assert not missing


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(instances, cls):
    obj = instances[cls]
    for protocol in (2, pickle.HIGHEST_PROTOCOL):
        copy = pickle.loads(pickle.dumps(obj, protocol=protocol))
        assert type(copy) is cls
        assert copy == obj
        assert repr(copy) == repr(obj)


def test_pool_parsed_units_match_serial_parse():
    paths = sorted((EXAMPLES / "multi_tu").glob("*.c"))
    sources = {str(p): p.read_text() for p in paths}
    pooled = parse_units(sources, jobs=2)
    assert [error for _, _, error in pooled] == [None] * len(paths)
    assert [repr(unit) for _, unit, _ in pooled] == [
        repr(parse_c(sources[name], name)) for name in sorted(sources)
    ]


def test_hashability_is_unchanged():
    assert {cls for cls in CLASSES if cls.__hash__ is None} == UNHASHABLE


@pytest.mark.parametrize(
    "cls", [c for c in CLASSES if c not in UNHASHABLE], ids=lambda cls: cls.__name__
)
def test_eq_and_hash_ignore_spans(instances, cls):
    obj = instances[cls]
    assert hash(pickle.loads(pickle.dumps(obj))) == hash(obj)
    spans = [f for f in dataclasses.fields(cls) if not f.compare]
    if not spans:
        return
    moved = dataclasses.replace(
        obj,
        **{
            f.name: getattr(obj, f.name) + (1 if f.type == "int" else "-moved")
            for f in spans
        },
    )
    assert repr(moved) != repr(obj)
    assert moved == obj
    assert hash(moved) == hash(obj)
