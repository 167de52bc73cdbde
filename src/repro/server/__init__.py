"""The process-level pod server: worker processes behind HTTP.

The paper's pods are isolated relational transducers addressed by
session; :mod:`repro.pods` realizes them inside one process.  This
package lifts the same runtime across process boundaries:

* :mod:`repro.server.wire` -- the versioned JSON codec every boundary
  speaks, with a typed error envelope;
* :mod:`repro.server.worker` -- one ``multiprocessing`` worker per
  shard on one duplex pipe, each owning a
  :class:`~repro.pods.service.PodService` over its own store, with
  parent-side admission control (bounded slots -> typed
  :class:`~repro.errors.Backpressure`) and crash supervision (restart
  + rehydrate from the write-through store);
* :mod:`repro.server.frontend` -- the stdlib ``ThreadingHTTPServer``
  front-end routing sessions to workers by the shared CRC-32 hash;
* :mod:`repro.server.client` -- :class:`PodClient`, the in-process
  service surface over keep-alive HTTP sockets, so workload drivers
  and parity suites run unchanged against a live server.

``python -m repro.server`` starts a server from the command line.
"""

from repro.server.client import ClientSessionView, PodClient
from repro.server.frontend import (
    QUEUE_DEPTH_ENV,
    WORKERS_ENV,
    PodServer,
)
from repro.server.worker import WorkerConfig, WorkerHandle, worker_main
from repro.server.wire import WIRE_VERSION

__all__ = [
    "ClientSessionView",
    "PodClient",
    "PodServer",
    "QUEUE_DEPTH_ENV",
    "WIRE_VERSION",
    "WORKERS_ENV",
    "WorkerConfig",
    "WorkerHandle",
    "worker_main",
]
