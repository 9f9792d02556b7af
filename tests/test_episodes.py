import numpy as np
import pytest
from scipy import stats

import geometer.episodes as ep
import geometer.graph_store as gs
from geometer.synth import make_clustered_graph


def base_pools(classes=3, pool_size=40):
    return {c: np.arange(c * 1000, c * 1000 + pool_size) for c in range(classes)}


def small_stream(seed=0, classes=5, per_class=30):
    g = make_clustered_graph(classes=classes, per_class=per_class, feature_dim=8, seed=seed)
    novel = [[c] for c in range(2, classes)]
    return gs.build_session_stream(g, [0, 1], novel, k_shot=5, seed=seed)


def test_sampler_config_validation():
    with pytest.raises(ValueError):
        ep.SamplerConfig(k_max=0)
    with pytest.raises(ValueError):
        ep.SamplerConfig(old_query_bias=1.0)


def test_pretrain_episode_shapes_and_disjointness():
    cfg = ep.SamplerConfig(k_max=5, k_qry=4)
    episode = ep.sample_pretrain_episode(base_pools(), cfg, ep.episode_rng(0, 0, 0))
    assert sorted(episode.supports) == [0, 1, 2]
    for cls, sup in episode.supports.items():
        assert 1 <= len(sup) <= 5
    counts = {c: 0 for c in range(3)}
    for _, cls in episode.queries:
        counts[cls] += 1
    assert all(v == 4 for v in counts.values())
    assert not episode.support_nodes() & {n for n, _ in episode.queries}


def test_pretrain_k_max_one_gives_singletons():
    cfg = ep.SamplerConfig(k_max=1, k_qry=3)
    for i in range(20):
        episode = ep.sample_pretrain_episode(base_pools(), cfg, ep.episode_rng(1, 0, i))
        assert all(len(s) == 1 for s in episode.supports.values())


def test_pretrain_determinism():
    cfg = ep.SamplerConfig(k_max=6, k_qry=5)
    a = ep.sample_pretrain_episode(base_pools(), cfg, ep.episode_rng(3, 0, 7))
    b = ep.sample_pretrain_episode(base_pools(), cfg, ep.episode_rng(3, 0, 7))
    assert a == b
    c = ep.sample_pretrain_episode(base_pools(), cfg, ep.episode_rng(3, 0, 8))
    assert a != c


def test_pretrain_pool_too_small():
    cfg = ep.SamplerConfig(k_max=30, k_qry=20)
    with pytest.raises(ep.PoolTooSmallError):
        ep.sample_pretrain_episode(base_pools(pool_size=10), cfg, ep.episode_rng(0, 0, 0))


def test_pretrain_support_sizes_chi_square_uniform():
    cfg = ep.SamplerConfig(k_max=10, k_qry=2)
    pools = base_pools(classes=2, pool_size=40)
    sizes = []
    for i in range(10_000):
        episode = ep.sample_pretrain_episode(pools, cfg, ep.episode_rng(11, 0, i))
        sizes.extend(len(s) for s in episode.supports.values())
    observed = np.bincount(sizes, minlength=cfg.k_max + 1)[1:]
    assert observed.sum() == 20_000
    result = stats.chisquare(observed)
    assert result.pvalue > 0.01


def test_finetune_query_split_and_fixed_supports():
    stream = small_stream()
    cfg = ep.SamplerConfig(k_max=10, k_qry=10, old_query_bias=0.7)
    first = None
    for i in range(5):
        episode = ep.sample_finetune_episode(1, stream, cfg, ep.episode_rng(2, 1, i))
        novel = stream.novel_at(1)
        old = stream.classes_at(0)
        n_old = sum(1 for _, c in episode.queries if c in old)
        n_novel = sum(1 for _, c in episode.queries if c in novel)
        assert (n_old, n_novel) == (7, 3)
        # novel supports equal the manifest's fixed K-shot sets in every episode
        for c in novel:
            assert episode.supports[c] == stream.supports_at(1)[c]
        if first is None:
            first = {c: episode.supports[c] for c in novel}
        assert {c: episode.supports[c] for c in novel} == first
        # old supports capped at k_max
        for c in old:
            assert len(episode.supports[c]) <= cfg.k_max


def test_finetune_disjointness_over_1000_episodes():
    stream = small_stream(seed=4)
    cfg = ep.SamplerConfig(k_max=8, k_qry=10, old_query_bias=0.7)
    for session in (1, 2, 3):
        for i in range(334):
            episode = ep.sample_finetune_episode(session, stream, cfg,
                                                 ep.episode_rng(9, session, i))
            support_nodes = episode.support_nodes()
            query_nodes = {n for n, _ in episode.queries}
            assert not support_nodes & query_nodes
            # every query class has a support in the episode
            for _, cls in episode.queries:
                assert cls in episode.supports


def test_finetune_determinism_and_session_guard():
    stream = small_stream(seed=5)
    cfg = ep.SamplerConfig()
    a = ep.sample_finetune_episode(2, stream, cfg, ep.episode_rng(0, 2, 3))
    b = ep.sample_finetune_episode(2, stream, cfg, ep.episode_rng(0, 2, 3))
    assert a == b
    with pytest.raises(ValueError):
        ep.sample_finetune_episode(0, stream, cfg, ep.episode_rng(0, 0, 0))


def sized_stream(sizes, k_shot=5):
    """Classes 0 and 1 are the base, each later class the novel class of one
    session; class c has ``sizes[c]`` labeled nodes."""
    labels = np.repeat(np.arange(len(sizes)), sizes)
    g = gs.make_graph(np.ones((len(labels), 2), dtype=np.float32), [(0, 1)], labels)
    return gs.build_session_stream(g, [0, 1], [[c] for c in range(2, len(sizes))],
                                   k_shot=k_shot, seed=0)


# k_max + k_qry = 20 nodes per base pool, and 3 novel queries (10 less 7 old ones)
NEEDS = ep.SamplerConfig(k_max=10, k_qry=10, old_query_bias=0.7)


def test_pools_that_just_meet_the_needs_feed_both_samplers():
    stream = sized_stream([20, 20, 8, 9])                   # novel pools of 3 and 4
    ep.check_pools(stream, NEEDS)
    ep.sample_pretrain_episode(stream.train_pools(0), NEEDS, ep.episode_rng(0, 0, 0))
    for session in (1, 2):
        ep.sample_finetune_episode(session, stream, NEEDS, ep.episode_rng(0, session, 0))


@pytest.mark.parametrize("sizes, message", [
    ([19, 20, 8], "stage 0: class 0 pool has 19 nodes, needs >= 20"),
    ([20, 20, 8, 7], "stage 2: novel query pool has 2 nodes, needs 3"),
], ids=["base", "novel"])
def test_check_pools_names_the_first_short_stage(sizes, message, monkeypatch):
    # from the pool sizes alone: no sampler runs
    monkeypatch.setattr(ep, "sample_pretrain_episode", None)
    monkeypatch.setattr(ep, "sample_finetune_episode", None)
    with pytest.raises(ep.PoolTooSmallError, match=f"^{message}$"):
        ep.check_pools(sized_stream(sizes), NEEDS)


@pytest.mark.parametrize("sizes, message", [
    ([12, 12, 30], "old query pool has 4 nodes, needs 7"),     # 2 x (12 - k_max)
    ([20, 20, 7], "novel query pool has 2 nodes, needs 3"),
], ids=["old", "novel"])
def test_finetune_sampler_names_a_short_query_pool(sizes, message):
    # the sampler is public, so it checks its own query pools as well
    with pytest.raises(ep.PoolTooSmallError, match=f"^{message}$"):
        ep.sample_finetune_episode(1, sized_stream(sizes), NEEDS, ep.episode_rng(0, 1, 0))


def test_a_session_without_novel_classes_draws_old_queries_only():
    # a public caller may build a session with no novel class: its novel
    # candidates are empty, which suffices only when no query is novel
    labels = np.repeat([0, 1], 30)
    g = gs.make_graph(np.ones((60, 2), dtype=np.float32), [(0, 1)], labels)
    stream = gs.build_session_stream(g, [0, 1], [[]], k_shot=5, seed=0)
    all_old = ep.SamplerConfig(k_max=5, k_qry=10, old_query_bias=0.95)   # ceil(9.5): 10 old
    episode = ep.sample_finetune_episode(1, stream, all_old, ep.episode_rng(0, 1, 0))
    assert len(episode.queries) == 10 and set(episode.query_classes()) <= {0, 1}
    with pytest.raises(ep.PoolTooSmallError, match="^novel query pool has 0 nodes, needs 3$"):
        ep.sample_finetune_episode(1, stream, NEEDS, ep.episode_rng(0, 1, 0))


def test_finetune_episodes_match_the_node_loop_candidates(monkeypatch):
    # the array candidates keep the loop's order, so every draw picks the same queries
    from oracles import loop_query_candidates
    stream = small_stream(seed=4, classes=7, per_class=25)
    configs = [ep.SamplerConfig(k_max=5, k_qry=6), ep.SamplerConfig(k_max=19, k_qry=11),
               ep.SamplerConfig(k_max=1, k_qry=3, old_query_bias=0.2)]

    def episodes():
        out = []
        for i in range(200):
            session = 1 + i % stream.num_sessions
            rng = ep.episode_rng(9, session, i)
            out.append((ep.sample_finetune_episode(session, stream, configs[i % 3], rng),
                        rng.random()))
        return out

    fast = episodes()
    monkeypatch.setattr(ep, "_query_candidates", loop_query_candidates)
    assert fast == episodes()
