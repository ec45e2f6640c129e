"""Online query serving over the HA-Index family.

The paper motivates the Dynamic HA-Index's H-Insert/H-Delete maintenance
(Algorithm 2) with online workloads; this package is the serving layer
that story implies: a long-lived, thread-safe query server with
micro-batching, an epoch-keyed LRU result cache, copy-on-swap index
refresh, and admission control with explicit backpressure.  See
``docs/service.md`` for the architecture.
"""

from repro.core.errors import (
    PoolTimeoutError,
    ReplicaUnavailableError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadError,
    ServiceTimeoutError,
)
from repro.service.admission import AdmissionQueue
from repro.service.executor import (
    POOL_KINDS,
    ProcessShardExecutor,
    SerialExecutor,
    ShardExecutor,
    ShardTask,
    ThreadShardExecutor,
    make_executor,
)
from repro.service.batching import (
    MicroBatchScheduler,
    QueryRequest,
    QueryTicket,
)
from repro.service.cache import MISS, ResultCache
from repro.service.planner import (
    ScatterGatherPlanner,
    ShardPlan,
    min_hamming_to_gray_range,
)
from repro.service.server import HammingQueryService
from repro.service.sharded import (
    QUERY_KINDS,
    ReplicaFaultPlan,
    ServedResult,
    ShardStats,
    ShardedQueryService,
)
from repro.service.stats import CacheStats, ServiceAccounting, ServiceStats

__all__ = [
    "AdmissionQueue",
    "CacheStats",
    "HammingQueryService",
    "MISS",
    "MicroBatchScheduler",
    "POOL_KINDS",
    "PoolTimeoutError",
    "ProcessShardExecutor",
    "QUERY_KINDS",
    "QueryRequest",
    "QueryTicket",
    "ReplicaFaultPlan",
    "ReplicaUnavailableError",
    "ResultCache",
    "ScatterGatherPlanner",
    "SerialExecutor",
    "ShardExecutor",
    "ShardPlan",
    "ShardStats",
    "ShardTask",
    "ShardedQueryService",
    "ServedResult",
    "ServiceAccounting",
    "ServiceClosedError",
    "ServiceError",
    "ServiceOverloadError",
    "ServiceStats",
    "ServiceTimeoutError",
    "ThreadShardExecutor",
    "make_executor",
    "min_hamming_to_gray_range",
]
