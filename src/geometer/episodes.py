"""Episode construction with stage-specific biased sampling.

Pretraining mimics the class imbalance met later: per-class support sizes are
drawn uniformly from {1..k_max} while query counts stay fixed.  During
streaming sessions the novel supports are the fixed K-shot sets from the
split manifest, old-class supports are resampled from their labeled pools,
and the query budget is biased toward old classes to fight forgetting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Mapping

import numpy as np

from .graph_store import SessionStream

__all__ = ["SamplerConfig", "Episode", "PoolTooSmallError",
           "episode_rng", "sample_pretrain_episode", "sample_finetune_episode"]


class PoolTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class SamplerConfig:
    k_max: int = 10
    k_qry: int = 10
    old_query_bias: float = 0.7    # fraction of finetune query slots for old classes

    def __post_init__(self):
        for key in ("k_max", "k_qry"):
            if getattr(self, key) < 1:
                raise ValueError(f"{key} must be >= 1, got {getattr(self, key)}")
        if not 0.0 < self.old_query_bias < 1.0:
            raise ValueError(f"old_query_bias must lie in (0, 1), got {self.old_query_bias}")


@dataclass(frozen=True)
class Episode:
    supports: dict       # class id -> tuple of node ids
    queries: tuple       # of (node id, class id)

    def query_nodes(self) -> np.ndarray:
        return np.array([n for n, _ in self.queries], dtype=np.int64)

    def query_classes(self) -> np.ndarray:
        return np.array([c for _, c in self.queries], dtype=np.int64)

    def support_nodes(self) -> set:
        return {int(v) for sup in self.supports.values() for v in sup}


def episode_rng(seed: int, stage: int, index: int) -> np.random.Generator:
    """The episode stream contract: (seed, stage, index) fully determine an episode."""
    return np.random.default_rng([seed, stage, index])


def sample_pretrain_episode(pools: Mapping[int, np.ndarray], cfg: SamplerConfig,
                            rng: np.random.Generator) -> Episode:
    """Imbalanced supports (sizes uniform on {1..k_max}) plus k_qry queries per
    class, over every base class."""
    supports, queries = {}, []
    for cls in sorted(int(c) for c in pools):
        pool = np.asarray(pools[cls], dtype=np.int64)
        if len(pool) < cfg.k_max + cfg.k_qry:
            raise PoolTooSmallError(
                f"class {cls} pool has {len(pool)} nodes, needs >= {cfg.k_max + cfg.k_qry}")
        size = int(rng.integers(1, cfg.k_max + 1))
        picked = rng.choice(pool, size=size + cfg.k_qry, replace=False)
        supports[cls] = tuple(int(v) for v in np.sort(picked[:size]))
        queries.extend((int(v), cls) for v in picked[size:])
    return Episode(supports, tuple(queries))


def sample_finetune_episode(session: int, stream: SessionStream, cfg: SamplerConfig,
                            rng: np.random.Generator) -> Episode:
    """Fixed novel supports, resampled old supports, old-biased query split."""
    if session < 1:
        raise ValueError("finetune episodes exist only for sessions >= 1")
    pools = stream.eval_pools[session]
    novel_classes = stream.novel_at(session)
    old_classes = stream.classes_at(session - 1)

    supports = {int(c): tuple(int(v) for v in sup)
                for c, sup in stream.supports_at(session).items()}
    for cls in old_classes:
        pool = np.asarray(pools[cls], dtype=np.int64)
        take = min(cfg.k_max, len(pool))
        chosen = rng.choice(pool, size=take, replace=False)
        supports[cls] = tuple(int(v) for v in np.sort(chosen))

    n_old = ceil(cfg.old_query_bias * cfg.k_qry)
    n_novel = cfg.k_qry - n_old
    taken = np.array([v for sup in supports.values() for v in sup], dtype=np.int64)

    queries = []
    for class_list, want, kind in ((old_classes, n_old, "old"),
                                   (novel_classes, n_novel, "novel")):
        nodes, labels = _query_candidates(pools, class_list, taken)
        if len(nodes) < want:
            raise PoolTooSmallError(
                f"{kind} query pool has {len(nodes)} nodes, needs {want}")
        if want:
            idx = rng.choice(len(nodes), size=want, replace=False)
            queries.extend((int(nodes[i]), int(labels[i])) for i in idx)
    return Episode(supports, tuple(queries))


def _query_candidates(pools: Mapping[int, np.ndarray], class_list, taken: np.ndarray):
    """The pool nodes of ``class_list`` that are not in ``taken``, and their
    classes: class by class in list order, each pool in its own order."""
    if not class_list:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    nodes = np.concatenate([np.asarray(pools[c], dtype=np.int64) for c in class_list])
    labels = np.repeat(np.asarray(class_list, dtype=np.int64),
                       [len(pools[c]) for c in class_list])
    keep = ~np.isin(nodes, taken)
    return nodes[keep], labels[keep]
