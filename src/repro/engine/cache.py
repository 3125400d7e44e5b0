"""A relation memo keyed by canonical history key.

A batch check of one history against M models re-derives the same order
relations — program order, partial program order, the reads-from
attribution, writes-before — up to M times.  :class:`RelationCache`
extends the generic :class:`~repro.orders.memo.RelationMemo` so that a
caller who installs it computes that substrate once per history and
shares it across every model check.  No engine loop installs one: the
kernel compiles each history once into its shared plane, and on the
engine's sweep, panel and service loops the memo cost more than it saved
(EXPERIMENTS.md E23).  It keys entries by the *canonical history key* of
:func:`repro.lattice.enumeration.canonical_key` so that the cache survives
re-parsing (two parses of the same litmus text are distinct objects with
one canonical key).

Canonical keys identify histories up to processor/location renaming, but a
relation computed for one history names that history's concrete operations
and is meaningless for a renamed twin.  Each cache entry therefore records
the concrete history it was computed from; a lookup whose history differs
from the recorded one replaces the entry (counted as misses).  The engine
deduplicates renamed twins upstream, so replacement is rare in practice.
"""

from __future__ import annotations

from typing import Any

from repro.core.history import SystemHistory
from repro.lattice.enumeration import canonical_key
from repro.orders.memo import RelationMemo, relation_memo

__all__ = ["RelationCache", "HistorySubstrate"]

#: The named relations :meth:`RelationCache.substrate` precomputes.
HistorySubstrate = dict[str, Any]


class RelationCache(RelationMemo):
    """A :class:`RelationMemo` keyed by canonical history key.

    Drop-in compatible with :func:`repro.orders.memo.relation_memo`.
    """

    __slots__ = ("_ckeys",)

    def __init__(self, max_histories: int = 256) -> None:
        super().__init__(max_histories)
        # history -> canonical key, evicted alongside the tables.
        self._ckeys: dict[SystemHistory, tuple] = {}

    def _table(self, history: SystemHistory) -> dict[str, Any]:
        key = self._ckeys.get(history)
        if key is None:
            key = canonical_key(history)
            self._ckeys[history] = key
        entry = self._tables.get(key)
        if entry is None or entry["history"] != history:
            # First sight of this key, or a renamed twin: start fresh.
            entry = {"history": history, "values": {}}
            self._tables[key] = entry
            while len(self._tables) > self.max_histories:
                _, evicted = self._tables.popitem(last=False)
                self._ckeys.pop(evicted["history"], None)
        else:
            self._tables.move_to_end(key)
        return entry["values"]

    def clear(self) -> None:
        super().clear()
        self._ckeys.clear()

    # -- eager substrate -------------------------------------------------------

    def substrate(self, history: SystemHistory) -> HistorySubstrate:
        """Compute (or fetch) the full relation substrate of ``history``.

        Returns the program order, partial program order, reads-from
        attribution, and writes-before relation, each also left in the
        cache for the checkers to pick up.  ``reads_from`` and ``wb`` are
        ``None`` when the history's reads-from attribution is ambiguous
        (duplicate write values); the checkers then enumerate attributions
        themselves and the cache simply serves the order relations.
        """
        from repro.orders.program_order import po_relation, ppo_relation
        from repro.orders.writes_before import unambiguous_reads_from, wb_relation

        with relation_memo(self):
            reads_from = unambiguous_reads_from(history)
            wb = wb_relation(history) if reads_from is not None else None
            return {
                "po": po_relation(history),
                "ppo": ppo_relation(history),
                "reads_from": reads_from,
                "wb": wb,
            }
