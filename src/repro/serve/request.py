"""The serving request model.

A request is one inference sample for one convolutional layer shape —
the unit the batcher coalesces.  Shapes are identified by a
:data:`ShapeKey`, the :class:`~repro.config.ConvConfig` 6-tuple with
the batch dimension removed: two requests share a key exactly when
they can ride in the same batch, and a server's plan cache keys on
``(ShapeKey, batch)``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Tuple

from ..config import ConvConfig

#: (input_size, filters, kernel_size, stride, channels, padding) —
#: a ConvConfig minus its batch dimension.
ShapeKey = Tuple[int, int, int, int, int, int]


def shape_key(config: ConvConfig) -> ShapeKey:
    """The batch-independent identity of a configuration."""
    return (config.input_size, config.filters, config.kernel_size,
            config.stride, config.channels, config.padding)


@lru_cache(maxsize=4096)
def batched_config(key: ShapeKey, batch: int) -> ConvConfig:
    """Rebuild a :class:`ConvConfig` from a shape key at ``batch``.

    Memoized: the serving hot path rebuilds the same few hundred
    (shape, bucketed batch) configurations millions of times, and
    ``ConvConfig`` is frozen, so sharing one instance per point is
    safe and skips the dataclass construction cost.
    """
    i, f, k, s, c, p = key
    return ConvConfig(batch=batch, input_size=i, filters=f, kernel_size=k,
                      stride=s, channels=c, padding=p)


class Request(NamedTuple):
    """One single-sample inference request.

    A :class:`~typing.NamedTuple`: the serving loop builds one per
    admission, and a tuple is built by one ``tuple.__new__`` call and
    stored in 88 B, where a frozen dataclass pays one
    ``object.__setattr__`` per field and takes over 300 B with its
    attribute dict.  ``==`` and ``hash`` are those of the field tuple.

    Attributes
    ----------
    rid:
        Monotonic request id (trace order).
    model / layer:
        Provenance labels ("VGG", "conv1_1") — reporting only.
    key:
        The layer shape; the batching identity.
    arrival_s:
        Simulated arrival time.
    timeout_s:
        Maximum queueing delay before the request is shed.
    """

    rid: int
    model: str
    layer: str
    key: ShapeKey
    arrival_s: float
    timeout_s: float

    @property
    def deadline_s(self) -> float:
        """Latest simulated time at which service may still start."""
        return self.arrival_s + self.timeout_s

    def expired(self, now_s: float) -> bool:
        return now_s > self.deadline_s

    def config(self, batch: int = 1) -> ConvConfig:
        return batched_config(self.key, batch)


class Completion(NamedTuple):
    """Record of one served request (a :class:`~typing.NamedTuple`, like
    :class:`Request`)."""

    request: Request
    start_s: float
    finish_s: float
    batch: int            # padded batch the request rode in
    fill: int             # real requests in that batch
    implementation: str   # paper name of the dispatched implementation

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency (queueing + service)."""
        return self.finish_s - self.request.arrival_s

    @property
    def queue_wait_s(self) -> float:
        return self.start_s - self.request.arrival_s
