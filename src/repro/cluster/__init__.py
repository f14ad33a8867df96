"""Horizontal sharding: N serving engines coordinated through the stores.

The cluster layer scales the single-box serving stack sideways without a
control plane: a :class:`HashRing` partitions the fleet by ``stream_id``,
a :class:`ShardedServingEngine` runs one serving engine per shard (each
with its own autoscaler and run-store handle), and a
:class:`ShardRebalancer` shifts hash slots between waves using the
deadline pressure the shard autoscalers already measure.  Shards share
the content-addressed ``RunStore`` root; the coordinator alone runs the
wave's map lifecycle against the ``MapStore`` — the same lifecycle the
single engine runs.
"""

from repro.cluster.engine import (
    SHARDS_ENV,
    ShardedServingEngine,
    ShardedServingReport,
    resolve_shard_count,
)
from repro.cluster.rebalance import (
    DEFAULT_MAX_SLOT_MOVES,
    DEFAULT_PRESSURE_GAP,
    MAX_SLOT_MOVES_ENV,
    PRESSURE_GAP_ENV,
    RebalanceDecision,
    ShardRebalancer,
)
from repro.cluster.ring import (
    DEFAULT_SLOT_COUNT,
    HashRing,
    SLOT_COUNT_ENV,
    resolve_slot_count,
)

__all__ = [
    "DEFAULT_MAX_SLOT_MOVES",
    "DEFAULT_PRESSURE_GAP",
    "DEFAULT_SLOT_COUNT",
    "HashRing",
    "MAX_SLOT_MOVES_ENV",
    "PRESSURE_GAP_ENV",
    "RebalanceDecision",
    "SHARDS_ENV",
    "SLOT_COUNT_ENV",
    "ShardRebalancer",
    "ShardedServingEngine",
    "ShardedServingReport",
    "resolve_shard_count",
    "resolve_slot_count",
]
