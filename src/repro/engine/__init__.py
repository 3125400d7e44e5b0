"""repro.engine — parallel batch-checking.

The engine turns "check these histories against these models" into a
declarative, resumable, parallelizable workload:

- :mod:`repro.engine.jobs` — :class:`SweepSpec` describes the workload
  (history source × model set) and expands it into stable-keyed
  :class:`CheckJob` units.
- :mod:`repro.engine.pool` — :class:`CheckEngine` executes jobs serially
  or on a multiprocessing pool; results are byte-identical either way.
- :mod:`repro.engine.store` — :class:`ResultStore`, the append-only JSONL
  log with resume-by-key support.
- :mod:`repro.engine.sqlstore` — :class:`SqliteResultStore`, the
  content-addressed SQLite backend (same schema, dedup-on-insert,
  WAL), plus the :func:`open_store` URL factory and
  :func:`migrate_store`.
- :mod:`repro.engine.metrics` — :class:`EngineMetrics` counters/timers.
- :mod:`repro.engine.session` — :class:`EngineSession`, the incremental
  front end: one growing history checked under a model set after every
  appended operation (what ``repro serve`` sessions and
  ``check --stream`` drive).

Quickstart::

    from repro.engine import CheckEngine, SweepSpec, ResultStore

    spec = SweepSpec(source="catalog", models=("SC", "TSO", "PC"))
    with ResultStore("results.jsonl") as store:
        report = CheckEngine(jobs=4).run(spec, store=store)
    print(report.render())
"""

from repro.engine.jobs import SOURCES, CheckJob, SweepSpec
from repro.engine.metrics import EngineMetrics
from repro.engine.pool import CheckEngine, SweepReport
from repro.engine.session import EngineSession, parse_op_line
from repro.engine.sqlstore import SqliteResultStore, migrate_store, open_store
from repro.engine.store import (
    STORE_VERSION,
    BaseResultStore,
    JsonlLog,
    ResultStore,
)

__all__ = [
    "BaseResultStore",
    "CheckEngine",
    "CheckJob",
    "EngineMetrics",
    "EngineSession",
    "JsonlLog",
    "ResultStore",
    "SOURCES",
    "STORE_VERSION",
    "SqliteResultStore",
    "SweepReport",
    "SweepSpec",
    "migrate_store",
    "open_store",
    "parse_op_line",
]
