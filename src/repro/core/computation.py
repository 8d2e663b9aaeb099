"""The Arabesque user API (paper, Figure 3).

Applications subclass :class:`Computation` and override the two mandatory
functions — ``filter`` (the paper's φ) and ``process`` (π) — plus any of the
optional ones: ``aggregation_filter`` (α), ``aggregation_process`` (β),
``reduce``, ``reduce_output``, and ``termination_filter``.  The framework
functions ``output``, ``map``, ``read_aggregate``, and ``map_output`` are
provided and may be called from inside the user functions.

Required semantic properties (section 3.1), which the engine relies on and
the test suite checks for the bundled applications:

* **automorphism invariance** — every user function returns the same result
  for automorphic embeddings;
* **anti-monotonicity** of ``filter`` and ``aggregation_filter`` — once an
  embedding is rejected, all of its extensions would be rejected too.

Because the execution runtime (:mod:`repro.runtime`) may run worker step
tasks on threads or separate processes, user functions should not rely on
mutating instance state to communicate between embeddings — use ``map``/
``map_output`` for cross-embedding state.  Internal memo caches keyed by
deterministic values (as in :class:`repro.apps.matching.GraphMatching`)
are fine: they only trade recomputation for memory.  For the process
backend, the computation and its aggregation values must be picklable.
"""

from __future__ import annotations

from typing import Any, Hashable

from ..graph import LabeledGraph
from .embedding import Embedding, VERTEX_EXPLORATION
from .pattern import Pattern


class ComputationContext:
    """Engine-side callbacks the framework functions delegate to.

    Bound to the computation once per worker step task; user code never
    constructs one.  The execution runtime binds each task's context to a
    *shallow copy* of the computation (see
    :func:`repro.runtime.tasks.run_step_task`), so concurrent tasks — on
    threads or processes — never share a binding.
    """

    def output(self, value: Any) -> None:
        raise NotImplementedError

    def output_batch(self, count: int, values) -> None:
        raise NotImplementedError

    def map(self, key: Hashable, value: Any) -> None:
        raise NotImplementedError

    def map_output(self, key: Hashable, value: Any) -> None:
        raise NotImplementedError

    def read_aggregate(self, key: Hashable) -> Any:
        raise NotImplementedError

    def note_domain_hits(self, count: int) -> None:
        """Record ``count`` per-vertex domain images (observability only:
        contexts that do not meter them may keep this no-op default)."""


class Computation:
    """Base class for Arabesque applications.

    Class attribute ``exploration_mode`` selects vertex-based or edge-based
    exploration ("the application can decide between edge-based or
    vertex-based exploration during initialization", section 3.1).
    """

    #: ``VERTEX_EXPLORATION`` or ``EDGE_EXPLORATION``.
    exploration_mode: str = VERTEX_EXPLORATION

    #: Whether this computation understands plan-guided exploration
    #: (``config.plan`` set): words follow the plan's matching order and
    #: only plan-compatible candidates are generated.  The engine refuses
    #: to pair a plan with computations that have not opted in — guided
    #: generation silently changes what an unaware computation explores
    #: (e.g. a motif census would quietly lose every non-query shape).
    plan_compatible: bool = False

    #: Optional hook ``process_terminal(words, found)``: finish a whole
    #: last level from bitmasks.  The runtime calls it once per stored
    #: embedding ``words`` *instead of* ``filter``/``process``/
    #: ``termination_filter`` per child, when every child is known to
    #: terminate; it must be equivalent to calling ``process`` on every
    #: decoded child in ascending word order, and the children are never
    #: built or stored.  ``found`` has one of two shapes, by how the
    #: computation runs:
    #:
    #: * plan-compatible (guided): every plan member still alive for
    #:   ``words`` completes at the next word, and ``found`` lists
    #:   ``(member, mask)`` in ascending member order (member 0 for a
    #:   single plan), bit ``w`` set iff the member accepts
    #:   ``words + (w,)``;
    #: * exhaustive: ``len(words) + 1 == terminal_size`` (below), and
    #:   ``found`` is one bitmask — bit ``w`` set iff ``words + (w,)`` is
    #:   a canonical extension that ``filter`` accepts.
    #:
    #: Honoured only while ``filter`` is the base accept-all or is stood
    #: in for by a trusted ``filter_extensions``, and no subclass refines
    #: ``process``/``termination_filter`` below the class that wrote the
    #: hook; ``None`` keeps the per-child loop.  With
    #: ``two_level_aggregation`` off an exhaustive run stays per child
    #: (that ablation is one canonicalization per embedding).
    process_terminal = None

    #: The terminal-size contract of an exhaustive ``process_terminal``:
    #: the word count at which ``termination_filter`` is true for *every*
    #: embedding (so none of that size is ever stored), or ``None`` when
    #: there is no such size.  Read once per worker task; step 0 always
    #: goes per child.
    terminal_size: int | None = None

    #: Optional hook ``filter_extensions(words, mask) -> mask``: φ over a
    #: whole extension pool.  Bit ``w`` of ``mask`` proposes the child
    #: ``words + (w,)`` of the stored embedding ``words`` (vertex or edge
    #: ids, by exploration mode); the result keeps exactly the bits whose
    #: decoded child ``filter`` would accept, so the exhaustive runtime
    #: builds only those children and skips their per-child ``filter``
    #: call.  Like ``process_terminal`` it is honoured only while no
    #: subclass refines ``filter`` below the class that wrote the hook,
    #: and never for plan-compatible computations; ``None`` keeps the
    #: per-child φ.  Step 0 always filters per child.  ODAG extraction
    #: passes it path prefixes (two or more words that passed every check
    #: so far) with a successor sub-mask, under the same contract.
    filter_extensions = None

    def __init__(self) -> None:
        self.graph: LabeledGraph | None = None
        self._context: ComputationContext | None = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def init(self, graph: LabeledGraph, config: Any) -> None:
        """Called once before exploration starts; override for setup."""
        self.graph = graph

    # ------------------------------------------------------------------
    # Mandatory user functions (φ and π)
    # ------------------------------------------------------------------
    def filter(self, embedding: Embedding) -> bool:
        """φ: should this candidate embedding be processed?  Must be
        anti-monotone."""
        return True

    def process(self, embedding: Embedding) -> None:
        """π: examine an accepted embedding; may call ``output``/``map``."""

    # ------------------------------------------------------------------
    # Optional user functions (α, β, reducers, termination)
    # ------------------------------------------------------------------
    def aggregation_filter(self, embedding: Embedding) -> bool:
        """α: re-filter an embedding one step after its generation, when
        the aggregates of its generation step are readable.  Must be
        anti-monotone."""
        return True

    def aggregation_process(self, embedding: Embedding) -> None:
        """β: produce output for an embedding that survived α."""

    def reduce(self, key: Hashable, values: list) -> Any:
        """Fold the values mapped to ``key`` this step (must be associative
        on reduced values; see :mod:`repro.core.aggregation`)."""
        raise NotImplementedError(
            f"{type(self).__name__} calls map() but does not define reduce()"
        )

    def reduce_output(self, key: Hashable, values: list) -> Any:
        """Fold output-aggregation values (associative, run-scoped)."""
        raise NotImplementedError(
            f"{type(self).__name__} calls map_output() but does not define "
            "reduce_output()"
        )

    def termination_filter(self, embedding: Embedding) -> bool:
        """Return True to stop extending ``embedding`` after processing it —
        an optimization that skips the final all-filtered exploration step
        (section 4.1)."""
        return False

    # ------------------------------------------------------------------
    # Framework-provided functions (engine-bound)
    # ------------------------------------------------------------------
    def output(self, value: Any) -> None:
        """Emit a result to the run's output collection."""
        self._require_context().output(value)

    def output_batch(self, count: int, values) -> None:
        """Emit ``count`` results at once; ``values()`` yields them in
        emission order and is only called when outputs are collected."""
        self._require_context().output_batch(count, values)

    def map(self, key: Hashable, value: Any) -> None:
        """Send ``value`` to the reducer for ``key`` (pattern keys get
        two-level aggregation automatically)."""
        self._require_context().map(key, value)

    def map_output(self, key: Hashable, value: Any) -> None:
        """Send ``value`` to output aggregation (reduced at end of run)."""
        self._require_context().map_output(key, value)

    def read_aggregate(self, key: Hashable) -> Any:
        """Read the value aggregated for ``key`` in the previous step."""
        return self._require_context().read_aggregate(key)

    def note_domain_hits(self, count: int) -> None:
        """Report per-vertex domain images just recorded (one per
        (match, pattern position)); the runtime sums them into
        :attr:`~repro.core.results.StepStats.domain_hits`."""
        self._require_context().note_domain_hits(count)

    # ------------------------------------------------------------------
    # Convenience helpers
    # ------------------------------------------------------------------
    @staticmethod
    def pattern(embedding: Embedding) -> Pattern:
        """The quick pattern of an embedding (the paper's ``pattern(e)``)."""
        return embedding.pattern()

    def _require_context(self) -> ComputationContext:
        if self._context is None:
            raise RuntimeError(
                "framework functions are only available while the engine is "
                "running this computation"
            )
        return self._context

    def bind_context(self, context: ComputationContext | None) -> None:
        """Runtime hook: attach/detach one step task's context.

        Called on the task's shallow copy of the computation, never on the
        engine's template instance — each concurrent task owns its binding.
        """
        self._context = context
