"""Pod services: the public API of the multi-session runtime.

The paper's transducers model *one* conversation between a customer and
a store.  A deployed store -- the "electronic commerce" setting of
Section 1, or the per-user data pods of the byoda architecture -- runs
many such conversations at once against one shared catalog.  This
package is that runtime's service layer:

* :mod:`repro.pods.api` -- the typed vocabulary
  (:class:`SessionHandle`, :class:`StepRequest`, :class:`StepResult`,
  :class:`SessionSnapshot`);
* :mod:`repro.pods.session` -- one run in progress
  (:class:`Session`), restorable from a snapshot;
* :mod:`repro.pods.store` -- the durability seam
  (:class:`SessionStore`), with in-memory, JSONL-directory, and
  single-file SQLite (:mod:`repro.pods.sqlite_store`) implementations,
  plus :func:`migrate_sessions` to move sessions between them;
* :mod:`repro.pods.cache` -- the hot-session LRU cache bounding how
  many live sessions stay resident (``max_resident_sessions=`` /
  ``REPRO_MAX_RESIDENT``); evicted sessions rehydrate from the store
  on their next request with identical observable behavior;
* :mod:`repro.pods.service` -- :class:`PodService` (one engine) and
  :class:`ShardedPodService` (N engines behind stable hash routing),
  both funneling all traffic through ``submit()`` / ``submit_batch()``;
* :mod:`repro.pods.metrics` -- :class:`RuntimeMetrics` throughput,
  latency, and audit counters, mergeable across shards.

Every step applied through ``submit()`` can additionally be checked by
an attached :class:`~repro.verify.api.OnlineAuditor` (``auditor=`` on
:class:`PodService`, ``auditor_factory=`` on
:class:`ShardedPodService`): property specs are compiled to per-session
incremental monitors, violations become replayable audit findings, and
the audit counters merge into :class:`RuntimeMetrics`.

Sessions are isolated by construction: the only shared objects are the
read-only indexed database and the per-shard metrics.  Stepping
different sessions in any interleaving gives the same per-session runs
as running them back to back (the run semantics of Section 2.2 is a
fold over the session's own inputs) -- and, with a durable store, the
same runs even across a service restart in the middle.  That isolation
is what makes ``submit_batch(requests, concurrency=N)`` safe: the batch
is grouped by session and fanned out to a worker pool, with results,
logs, and snapshots identical to serial execution
(:func:`~repro.pods.service.batch_concurrency` resolves the default
from ``REPRO_BATCH_CONCURRENCY``).
"""

from repro.pods.api import (
    SessionHandle,
    SessionSnapshot,
    StepRequest,
    StepResult,
)
from repro.pods.cache import (
    MAX_RESIDENT_ENV,
    LruSessionCache,
    max_resident_sessions,
)
from repro.pods.metrics import RuntimeMetrics, merge_snapshots
from repro.pods.service import (
    CONCURRENCY_ENV,
    PodService,
    ShardedPodService,
    batch_concurrency,
    shard_of,
)
from repro.pods.session import Session, SessionLog
from repro.pods.sqlite_store import SqliteStore
from repro.pods.store import (
    InMemoryStore,
    JsonlDirectoryStore,
    MigrationReport,
    SessionStore,
    StoreLifecycle,
    StoreStats,
    migrate_sessions,
    open_store,
)

__all__ = [
    "SessionHandle",
    "SessionSnapshot",
    "StepRequest",
    "StepResult",
    "RuntimeMetrics",
    "merge_snapshots",
    "CONCURRENCY_ENV",
    "MAX_RESIDENT_ENV",
    "LruSessionCache",
    "max_resident_sessions",
    "PodService",
    "ShardedPodService",
    "batch_concurrency",
    "shard_of",
    "Session",
    "SessionLog",
    "SessionStore",
    "StoreLifecycle",
    "StoreStats",
    "MigrationReport",
    "InMemoryStore",
    "JsonlDirectoryStore",
    "SqliteStore",
    "migrate_sessions",
    "open_store",
]
