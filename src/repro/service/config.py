"""Configuration of the resident compile service (``docs/serving.md``).

One :class:`ServiceConfig` describes everything a
:class:`~repro.service.server.CompileService` needs: where to listen,
how many workers to run and on what kind of pool, how much concurrent
work to admit before replying with backpressure, the default
per-request deadline, and the compile defaults (hardened mode, message
splitting, pipeline overrides) that individual requests may override.
"""

from dataclasses import dataclass, field
from typing import Optional

from repro.batch.driver import BatchOptions

#: Valid ``pool`` values: ``"process"`` insists on a
#: ProcessPoolExecutor, ``"thread"`` on threads, ``"auto"`` tries
#: processes and degrades to threads where multiprocessing is
#: unavailable (the same graceful fallback as ``compile_many``).
POOL_KINDS = ("auto", "process", "thread")


@dataclass
class ServiceConfig:
    """Knobs of one service instance.

    * ``host`` / ``port`` — listen address; ``port=0`` picks an
      ephemeral port (the bound port is announced and available as
      ``service.port``).
    * ``workers`` — worker count; ``0`` means one per CPU (the same
      :func:`~repro.batch.driver.resolve_jobs` resolution as
      ``repro batch --jobs 0``).
    * ``pool`` — see :data:`POOL_KINDS`.
    * ``queue_limit`` — the admission bound: maximum compile requests
      queued or running at once.  Anything beyond it is rejected
      immediately with a ``busy`` error carrying ``retry_after_s``.
    * ``deadline_s`` — default per-request deadline (``None`` = no
      deadline); requests may set their own.
    * ``hardened`` — compile through the degrading
      :class:`~repro.commgen.hardened.HardenedPipeline` by default, so
      over-budget programs degrade down the ladder instead of failing.
    * ``split_messages`` / ``pipeline`` — compile defaults, same
      semantics as :class:`~repro.batch.driver.BatchOptions` (unknown
      pipeline keys are rejected eagerly).
    * ``cache_dir`` — persist the warm
      :class:`~repro.batch.cache.PipelineCache` here (kept across
      restarts, never evicted); ``None`` keeps it in the service's
      memory, an LRU of 1,024 entries (a miss stores one, its result).
      Either way the event loop owns it and pool workers never see it.
      ``use_cache=False`` disables caching.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 0
    pool: str = "auto"
    queue_limit: int = 32
    deadline_s: Optional[float] = None
    hardened: bool = False
    split_messages: bool = True
    pipeline: dict = field(default_factory=dict)
    cache_dir: Optional[str] = None
    use_cache: bool = True

    def __post_init__(self):
        if self.pool not in POOL_KINDS:
            raise ValueError(f"pool must be one of {POOL_KINDS}, "
                             f"not {self.pool!r}")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        # Reject bad compile defaults (pipeline-option typos, overrides a
        # hardened compile would ignore) at configuration time, not on
        # the first request.
        BatchOptions(hardened=self.hardened,
                     split_messages=self.split_messages,
                     pipeline=dict(self.pipeline))

    def as_dict(self):
        return {
            "host": self.host,
            "port": self.port,
            "workers": self.workers,
            "pool": self.pool,
            "queue_limit": self.queue_limit,
            "deadline_s": self.deadline_s,
            "hardened": self.hardened,
            "split_messages": self.split_messages,
            "pipeline": dict(self.pipeline),
            "cache_dir": self.cache_dir,
            "use_cache": self.use_cache,
        }
