"""Function dependence graph (paper Section 4.3, Definition 4).

The FDG has one vertex per defined function and an edge ``f -> g`` iff
``f``'s body contains an occurrence of the name ``g``.  Its strongly
connected components are the sets of mutually recursive functions; the
polymorphic inference analyses SCCs in reverse topological order
(callees first) and generalises after each SCC, mimicking nested
``let``-blocks.

SCCs come from the solver's iterative Tarjan, through
:func:`repro.qual.flatcore.sccs_of` (no recursion limit issues on large
benchmarks), with the vertices in name order.  Its component order is
already a reverse topological order of the condensation — Tarjan emits
a component only after all components it reaches — which is exactly
the traversal order Section 4.3 prescribes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cfront.sema import Program, occurring_names
from ..qual.flatcore import sccs_of


@dataclass
class FunctionDependenceGraph:
    """Vertices are defined function names; ``edges[f]`` holds the defined
    functions whose names occur in ``f``'s body."""

    vertices: list[str] = field(default_factory=list)
    edges: dict[str, set[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, program: Program) -> "FunctionDependenceGraph":
        defined = program.defined_function_names()
        graph = cls()
        graph.vertices = sorted(defined)
        for name in graph.vertices:
            mentions = occurring_names(program.functions[name])
            graph.edges[name] = mentions & defined
        return graph

    @classmethod
    def from_edges(
        cls, vertices: set[str], edges: dict[str, set[str]]
    ) -> "FunctionDependenceGraph":
        """An FDG over an explicit vertex/edge set (e.g. the cross-TU
        call graph with function-pointer resolution edges added)."""
        graph = cls()
        graph.vertices = sorted(vertices)
        for name in graph.vertices:
            graph.edges[name] = {g for g in edges.get(name, ()) if g in vertices}
        return graph

    def restricted(self, names: set[str]) -> "FunctionDependenceGraph":
        """The induced subgraph over ``names`` — used to schedule one
        TU-group's functions with edges to other groups dropped (their
        schemes are already installed by the time the group runs)."""
        graph = FunctionDependenceGraph()
        graph.vertices = [v for v in self.vertices if v in names]
        for name in graph.vertices:
            graph.edges[name] = self.edges.get(name, set()) & names
        return graph

    def sccs(self) -> list[list[str]]:
        """Strongly connected components in reverse topological order of
        the condensation (every component's callees appear earlier),
        members sorted.  Vertices and successors are visited in name
        order, so the order is deterministic."""
        return sccs_of(self.vertices, lambda name: self.edges.get(name, ()))

    def wavefronts(self) -> list[list[list[str]]]:
        """SCCs grouped by condensation depth, shallowest level first.

        Level ``d`` holds the components whose longest callee chain has
        length ``d``: level 0 is the leaves (no calls to other defined
        functions), and every dependence edge crosses from a higher
        level to a strictly lower one.  Components within one level are
        therefore mutually independent.  Concatenating the levels yields
        a valid callees-first traversal, so
        ``[c for level in g.wavefronts() for c in level]`` covers exactly
        the components of :meth:`sccs`.

        Within a level, components are sorted by member names so the
        schedule (and any band-based variable numbering derived from it)
        is deterministic.
        """
        components = self.sccs()
        component_of: dict[str, int] = {}
        for index, component in enumerate(components):
            for name in component:
                component_of[name] = index
        # sccs() is reverse-topological (callees first), so every
        # successor component's depth is final by the time we need it.
        depth = [0] * len(components)
        for index, component in enumerate(components):
            best = 0
            for name in component:
                for succ in self.edges.get(name, ()):
                    target = component_of[succ]
                    if target != index and depth[target] + 1 > best:
                        best = depth[target] + 1
            depth[index] = best
        levels: dict[int, list[list[str]]] = {}
        for index, component in enumerate(components):
            levels.setdefault(depth[index], []).append(component)
        return [sorted(levels[d]) for d in sorted(levels)]

    def is_recursive(self, component: list[str]) -> bool:
        """Whether an SCC contains recursion (size > 1 or a self-loop)."""
        if len(component) > 1:
            return True
        name = component[0]
        return name in self.edges.get(name, ())
