"""The three workloads: inputs, operations, and their correctness checks.

Every workload has a *cold* operation, which starts with nothing
reusable, and a *warm* one, which finds the previous work in a cache:

* ``table2`` -- the paper's Table 2 through ``benchmark_rows`` and the
  analysis cache, as ``quals-const suite`` runs it, one row per
  operation.  Cold computes a row into a fresh cache directory; warm
  reruns it against that directory.  Checked against the paper's
  Declared/Mono/Poly/Total counts.
* ``batch`` -- a CI job: qlint with every check, per-file and then
  ``--whole-program``, SARIF rendered.  Cold starts from an empty cache
  directory; warm reruns over the unchanged tree.  Checked against an
  uncached run and against the resource bugs the generator planted.
* ``edit`` -- an editor driving the daemon: JSON-RPC lines through the
  daemon's own dispatcher.  Cold is a fresh session's first
  ``analyze``; warm is one ``didChange`` plus ``analyze``, each edit
  touching one unit.  Checked against one-shot analysis of the same
  tree state.

Each workload builds its inputs from the seed in ``prepare`` and yields
its operations cycle by cycle from ``cycle``: each cold operation is
followed by ``WARM_PER_COLD`` warm ones, so both kinds see the same
machine state.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import re
import shutil
from pathlib import Path
from typing import Callable, Iterator

#: (kind, key, run, check): ``check(run())`` is True when the output is
#: right; operations with the same kind and key do the same work.
Op = tuple[str, str, Callable[[], object], Callable[[object], bool]]

PACK_CHECKS = frozenset({"double-free", "use-after-free", "resource-leak"})


def _write_tree(root: Path, sources: dict[str, str]) -> None:
    root.mkdir(parents=True)
    for name, text in sources.items():
        (root / name).write_text(text, encoding="utf-8")


def _all_check_names() -> tuple[str, ...]:
    from repro.checker.checks import ALL_CHECKS

    return tuple(c.name for c in ALL_CHECKS)


class Table2:
    """The six paper benchmarks, cold and warm through the suite cache."""

    WARM_PER_COLD = 3
    #: Modules a user of this path imports (``quals-const suite``).
    ENTRY = "repro.constinfer.cli"

    def prepare(self, seed: int, work: Path) -> None:
        from repro.benchsuite.generator import generate_benchmark
        from repro.benchsuite.suite import PAPER_BENCHMARKS

        # The paper's position mixes, fresh generator seeds per run seed,
        # and natural length: the padding up to the paper's line counts
        # is position-free filler that would more than double a cold row.
        self.specs = tuple(
            dataclasses.replace(spec, lines=0, seed=spec.seed * 1000 + seed)
            for spec in PAPER_BENCHMARKS
        )
        self.expected = [
            (s.declared, s.mono, s.poly, s.total) for s in PAPER_BENCHMARKS
        ]
        self.work = work
        self.sources = [
            generate_benchmark(s.name, s.seed, s.mix, s.lines, s.description)
            for s in self.specs
        ]

    def ready(self) -> None:
        from repro.benchsuite.suite import generate_source

        # The suite memoises generated sources; prime it with the texts
        # set-up already produced so no operation pays for generation.
        for spec, text in zip(self.specs, self.sources):
            if generate_source(spec) != text:
                raise RuntimeError(f"{spec.name}: generator is not deterministic")

    def cycle(self, index: int) -> Iterator[Op]:
        from repro.benchsuite.suite import benchmark_rows

        # One operation per Table 2 row: short operations give the
        # fastest-of-N estimate more chances to run uncontended.
        cache_dir = str(self.work / f"cache{index}")
        try:
            for spec, expected in zip(self.specs, self.expected):
                run = lambda spec=spec: benchmark_rows((spec,), cache_dir=cache_dir)  # noqa: E731
                check = lambda rows, e=expected: [  # noqa: E731
                    (r.declared, r.mono, r.poly, r.total_possible) for r in rows
                ] == [e]
                yield "cold", spec.name, run, check
                for _ in range(self.WARM_PER_COLD):
                    yield "warm", spec.name, run, check
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


# Analysis and rendering cost follow the number of findings, so a seed
# must change the details of the inputs but not their composition:
# every seed gets the same number of each generator family and each
# planted-bug template.  The generators pick templates at random, so
# resource programs are drawn until one uses every template exactly once.

_TEMPLATE_RE = re.compile(r"\bfn\d+_([a-z_]+)\(")


def _xtu_program(seed: int):
    from repro.testkit.cgen import generate_resource_xtu_program

    return generate_resource_xtu_program(seed, n_units=3)


def _resource_program(seed: int):
    from repro.testkit.cgen import generate_resource_program

    return generate_resource_program(seed)


@functools.lru_cache(maxsize=None)
def _one_of_each_seed(generate, seed: int, kinds: int) -> int:
    """The first of seeds ``seed, seed + 1, ...`` whose program's
    functions instantiate ``kinds`` distinct templates, once each.
    Memoised: the search is the benchmark's, not the program's, and
    repeated set-ups should time only generating the chosen program."""
    for candidate in range(seed, seed + 100_000):
        program = generate(candidate)
        units = getattr(program, "units", None)
        text = "\n".join(units.values()) if units else program.source
        found = _TEMPLATE_RE.findall(text)
        if len(found) == kinds and len(set(found)) == kinds:
            return candidate
    raise RuntimeError("no generated program uses every template once")


def _one_of_each(generate, seed: int, kinds: int):
    return generate(_one_of_each_seed(generate, seed, kinds))


def _qualifier_corpus(seed: int, n_units: int, per_family: int) -> dict[str, str]:
    """A multi-TU qualifier corpus with ``per_family`` modules of every
    generator family, dealt evenly over the units."""
    import random

    from repro.testkit.cgen import CCorpus, CCorpusGenerator

    gen = CCorpusGenerator(seed)
    for _ in range(per_family):
        gen.mod_const_reader()
        gen.mod_plain_reader()
        gen.mod_forwarder_family()
        gen.mod_writer()
        gen.mod_global_family()
        gen.mod_static_helper()
        gen.mod_strchr_like()
        gen.mod_dispatch_family()
    gen.mod_driver()
    assignment = [i % n_units for i in range(len(gen.modules))]
    random.Random(seed).shuffle(assignment)
    return CCorpus(seed, gen.modules, assignment, n_units).sources()


def generate_corpus(
    seed: int, n_units: int, per_family: int, n_resource: int
) -> tuple[dict[str, str], dict[str, frozenset], frozenset]:
    """One linkable multi-TU tree: a qualifier corpus, a cross-TU
    ownership program, and single-TU resource programs (their function
    names made unique so they link too).  Returns (sources, per-file
    planted pack kinds, cross-TU planted pack kinds)."""
    sources = _qualifier_corpus(seed, n_units, per_family)
    xtu = _one_of_each(_xtu_program, seed * 100_003, 6)
    sources.update(xtu.sources())
    planted = {}
    for j in range(n_resource):
        program = _one_of_each(_resource_program, (seed * 64 + j) * 100_003, 6)
        name = f"r{j}.c"
        sources[name] = re.sub(r"\bfn(\d+)_", rf"r{j}_fn\1_", program.source)
        planted[name] = program.expected
    return sources, planted, xtu.expected


def _pack_kinds(report, predicate) -> set[str]:
    return {
        d.check
        for d in report.diagnostics
        if d.check in PACK_CHECKS and predicate(Path(d.span.file).name)
    }


class Batch:
    """qlint over one tree, per-file then whole-program, like a CI job."""

    WARM_PER_COLD = 5
    ENTRY = "repro.checker.cli"

    def prepare(self, seed: int, work: Path) -> None:
        self.sources, self.planted, self.planted_xtu = generate_corpus(
            seed, n_units=16, per_family=5, n_resource=6
        )
        self.work = work
        self.tree = work / "tree"
        _write_tree(self.tree, self.sources)

    def _analyze(self, cache_dir: str | None) -> tuple[str, str]:
        from repro.checker.render import render_report
        from repro.checker.runner import analyze

        names = self.check_names
        per_file = analyze([str(self.tree)], checks=names, cache_dir=cache_dir)
        whole = analyze(
            [str(self.tree)], checks=names, whole_program=True, cache_dir=cache_dir
        )
        self._last = (per_file, whole)
        return (
            render_report(per_file, format="sarif", src_root=str(self.tree)),
            render_report(whole, format="sarif", src_root=str(self.tree)),
        )

    def ready(self) -> None:
        self.check_names = _all_check_names()
        self.reference = self._analyze(None)
        per_file, whole = self._last
        if per_file.errors or whole.errors:
            raise RuntimeError(f"reference run failed: {per_file.errors or whole.errors}")
        # Ground truth: each planted kind of bug is found, in its own
        # unit per-file and across units whole-program, and no other
        # kind of resource finding appears there.
        for name, kinds in self.planted.items():
            if _pack_kinds(per_file, lambda f: f == name) != set(kinds):
                raise RuntimeError(f"{name}: per-file pack findings differ from planted")
        if _pack_kinds(whole, lambda f: f.startswith("xtu")) != set(self.planted_xtu):
            raise RuntimeError("cross-TU pack findings differ from planted")

    def cycle(self, index: int) -> Iterator[Op]:
        cache_dir = self.work / f"cache{index}"
        run = lambda: self._analyze(str(cache_dir))  # noqa: E731
        check = lambda out: out == self.reference  # noqa: E731
        try:
            yield "cold", "", run, check
            for _ in range(self.WARM_PER_COLD):
                yield "warm", "", run, check
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


#: Appended to an edited unit: a leak the resource pack must report.
_EDIT_PROTOS = "void *malloc(unsigned long size);\nvoid free(void *ptr);\nint getchar(void);\n"
_EDIT_BODY = (
    "int qbench_edit_{k}(void) {{\n"
    "    char *edit_buf{k} = malloc(64);\n"
    "    if (!edit_buf{k})\n"
    "        return -1;\n"
    "    if (getchar() < 0)\n"
    "        return -2;\n"
    "    free(edit_buf{k});\n"
    "    return 0;\n"
    "}}\n"
)


class Edit:
    """An editor session against the daemon's request dispatcher."""

    #: Edits per session.  Targets take turns being edited and then
    #: restored, so the tree passes through 2 * len(targets) states and
    #: every session starts from the clean tree.
    WARM_PER_COLD = 24
    TARGETS = 2
    ENTRY = "repro.serve.cli"

    def prepare(self, seed: int, work: Path) -> None:
        import random

        self.sources, _, _ = generate_corpus(
            seed, n_units=24, per_family=6, n_resource=4
        )
        self.work = work
        self.tree = work / "tree"
        _write_tree(self.tree, self.sources)
        names = sorted(n for n in self.sources if n.startswith("u"))
        self.targets = random.Random(seed).sample(names, self.TARGETS)
        self.edited = {
            name: self.sources[name] + "\n" + _EDIT_PROTOS + _EDIT_BODY.format(k=k)
            for k, name in enumerate(self.targets)
        }

    def _state_after(self, op: int) -> tuple[str, bool]:
        """Which target the ``op``-th edit of a session touches, and
        whether it leaves that target edited or restored."""
        return self.targets[op % self.TARGETS], (op // self.TARGETS) % 2 == 0

    def ready(self) -> None:
        from repro.checker.render import render_report
        from repro.checker.runner import analyze

        self.check_names = _all_check_names()

        def one_shot(edited: frozenset) -> str:
            overlay = {str(self.tree / n): self.edited[n] for n in edited}
            report = analyze([str(self.tree)], checks=self.check_names, sources=overlay)
            if report.errors:
                raise RuntimeError(f"reference run failed: {report.errors}")
            if len(edited) != sum(
                1 for d in report.diagnostics
                if d.check == "resource-leak" and "edit_buf" in d.message
            ):
                raise RuntimeError("an edit's planted leak was not reported")
            return render_report(report, format="json")

        # Expected report after each edit of a session, by tree state.
        self.expected: dict[frozenset, str] = {frozenset(): one_shot(frozenset())}
        state: set[str] = set()
        for op in range(2 * self.TARGETS):
            target, edited = self._state_after(op)
            (state.add if edited else state.discard)(target)
            key = frozenset(state)
            if key not in self.expected:
                self.expected[key] = one_shot(key)

    def cycle(self, index: int) -> Iterator[Op]:
        from repro.serve.server import Server
        from repro.serve.session import Session

        cache_dir = self.work / f"cache{index}"
        paths = [str(self.tree)]
        holder: dict = {}
        ids = iter(range(1, 1 << 30))

        def rpc(method: str, params: dict) -> dict:
            line = json.dumps(
                {"jsonrpc": "2.0", "id": next(ids), "method": method, "params": params}
            )
            response = json.loads(holder["server"].handle_line(line))
            if "error" in response:
                raise RuntimeError(f"{method}: {response['error']}")
            return response["result"]

        def start() -> str:
            session = Session(checks=self.check_names, cache_dir=str(cache_dir))
            holder["server"] = Server(session)
            return rpc("analyze", {"paths": paths, "format": "json"})["report"]

        state: set[str] = set()

        def edit(op: int) -> Callable[[], str]:
            target, edited = self._state_after(op)
            base = self.edited[target] if edited else self.sources[target]
            # Trailing newlines keep every text distinct, so each edit
            # re-analyses its unit instead of hitting the cache.
            text = base + "\n" * (op + 1)

            def run() -> str:
                rpc("didChange", {"file": str(self.tree / target), "text": text})
                return rpc("analyze", {"paths": paths, "format": "json"})["report"]

            (state.add if edited else state.discard)(target)
            return run

        try:
            yield "cold", "", start, lambda out: out == self.expected[frozenset()]
            for op in range(self.WARM_PER_COLD):
                run = edit(op)
                expected = self.expected[frozenset(state)]
                yield "warm", "", run, lambda out, e=expected: out == e
        finally:
            server = holder.get("server")
            if server is not None:
                server.session.close()
            shutil.rmtree(cache_dir, ignore_errors=True)


WORKLOADS = {"table2": Table2, "batch": Batch, "edit": Edit}
