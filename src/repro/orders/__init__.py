"""Order relations over histories: po, ppo, wb, co, coherence, sem.

These implement the "Ordering" parameter of the paper's framework
(Section 2) plus the coherence machinery of Section 3.3.
"""

from repro.orders.causal import causal_base_pairs, causal_relation
from repro.orders.memo import (
    RelationMemo,
    active_memo,
    memoized_relation,
    relation_memo,
)
from repro.orders.coherence import (
    CoherenceOrder,
    coherence_position,
    enumerate_coherence_orders,
    forced_coherence_pairs,
    program_write_chains,
)
from repro.orders.program_order import (
    in_program_order,
    po_positions,
    po_relation,
    ppo_base_pairs,
    ppo_relation,
)
from repro.orders.relation import Relation
from repro.orders.semi_causal import rrb_relation, rwb_relation, sem_relation
from repro.orders.writes_before import (
    ReadsFrom,
    reads_from_candidates,
    reads_from_choices,
    unique_reads_from,
    wb_relation,
)

__all__ = [
    "active_memo",
    "causal_base_pairs",
    "causal_relation",
    "memoized_relation",
    "relation_memo",
    "RelationMemo",
    "CoherenceOrder",
    "coherence_position",
    "enumerate_coherence_orders",
    "forced_coherence_pairs",
    "in_program_order",
    "po_positions",
    "po_relation",
    "ppo_base_pairs",
    "ppo_relation",
    "program_write_chains",
    "ReadsFrom",
    "reads_from_candidates",
    "reads_from_choices",
    "Relation",
    "rrb_relation",
    "rwb_relation",
    "sem_relation",
    "unique_reads_from",
    "wb_relation",
]
