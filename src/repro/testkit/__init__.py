"""repro.testkit — coverage-seeded differential & metamorphic fuzzing.

The repo carries independently-optimised engines that must agree
bit-for-bit: the reference worklist solver vs. the bitmask condensation
kernel, cold runs vs. the content-addressed cache, and per-TU analysis
vs. the whole-program link.  This package turns those pairings into a permanent
correctness-tooling subsystem:

* :mod:`repro.testkit.lamgen` — seeded generators of well-typed lambda
  programs (refs, annotations, assertions, let-polymorphism);
* :mod:`repro.testkit.cgen` — seeded multi-TU C corpora with linkage
  variety (extern/static/tentative, cross-TU calls and globals);
* :mod:`repro.testkit.transforms` — qualifier-preserving metamorphic
  transforms (renames, dead lets, TU re-partitioning);
* :mod:`repro.testkit.oracles` — the differential oracle matrix plus
  the subject-reduction oracle (paper §3.3, Theorem 1);
* :mod:`repro.testkit.reduce` — a delta-debugging reducer that shrinks
  any failing program to a minimal reproducer and emits it as a
  ready-to-commit regression test;
* :mod:`repro.testkit.driver` — the budget-driven fuzz session behind
  ``python -m repro.testkit fuzz``.
"""

from .driver import FuzzReport, FuzzSession
from .oracles import Disagreement, EngineConfig, check_c_corpus, check_lambda
from .reduce import reduce_c_corpus, reduce_lambda

__all__ = [
    "Disagreement",
    "EngineConfig",
    "FuzzReport",
    "FuzzSession",
    "check_c_corpus",
    "check_lambda",
    "reduce_c_corpus",
    "reduce_lambda",
]
