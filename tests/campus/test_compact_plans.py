"""Compact plans and pools against the tuple and list forms they replace.

A ``SpecPlan`` keeps its interval assignments as one byte per
connection and its sampled clients as pool indices; ``ClientPools``
keeps each pool's drawn octets and renders an address when indexed.
The reference here rebuilds the old forms from standard-library draws
on identically seeded streams (a list of address strings per pool, a
tuple of client strings and a tuple of intervals per plan) and checks
that the compact forms hold the same values.
"""

from __future__ import annotations

import random

import pytest

from repro.campus import SMALL_SCALE
from repro.campus.dataset import build_generation_context
from repro.campus.profiles import PAPER
from repro.campus.workload import AddressPool, WorkloadGenerator

CASES = [("small", 0), ("small", 7), ("small", "probe"),
         ("default", 7), ("default", "probe")]


def reference_pools(seed, scale):
    """Every pool as a list of strings, one ``randint`` per octet."""
    rng = random.Random(f"clients:{seed}")
    reference_total = PAPER.nonpub_client_ips + PAPER.hybrid_client_ips \
        + PAPER.interception_client_ips
    factor = scale.client_pool / reference_total
    references = [("nonpub", PAPER.nonpub_client_ips),
                  ("hybrid", PAPER.hybrid_client_ips),
                  ("general", round(reference_total * 0.8)),
                  ("dga", PAPER.dga_client_ips)]
    references += [(f"intercept:{category}", ips) for category, _, _, ips
                   in PAPER.interception_issuer_categories]
    pools = {}
    for name, reference in references:
        size = max(4, round(reference * factor))
        pools[name] = [f"10.{rng.randint(16, 31)}.{rng.randint(0, 255)}."
                       f"{rng.randint(1, 254)}" for _ in range(size)]
    return pools


def reference_plan(generator, spec, pools):
    """``(n_visible, n_tls13, clients, shard_of)`` as tuples of values."""
    rng = random.Random(
        f"workload:{generator.seed}:plan:{generator._plan_id(spec)}")
    if spec.labels.get("outlier"):
        n_visible = 1
    else:
        n_visible = max(generator.scale.min_connections,
                        round(spec.mean_connections * rng.uniform(0.6, 1.6)))
    n_tls13 = round(n_visible * spec.tls13_rate)
    rng.random()  # the port draw
    pool = pools.get(spec.client_pool) or pools["general"]
    subset = max(1, min(len(pool), round(n_visible * 0.7)))
    clients = tuple(rng.choice(pool) for _ in range(subset))
    shard_of = tuple(rng.randrange(generator.shards)
                     for _ in range(n_visible + n_tls13))
    return n_visible, n_tls13, clients, shard_of


@pytest.fixture(scope="module", params=CASES,
                ids=[f"{scale}-{seed}" for scale, seed in CASES])
def case(request):
    scale, seed = request.param
    context = build_generation_context(seed=seed, scale=scale)
    return context, reference_pools(seed, context.generator.scale)


class TestCompactForms:
    def test_pools_hold_the_same_addresses(self, case):
        context, pools = case
        compact = context.generator.pools
        assert compact.sizes() == {name: len(ips)
                                   for name, ips in pools.items()}
        for name, ips in pools.items():
            pool = compact.pool(name)
            assert isinstance(pool, AddressPool)
            assert len(pool.octets) == 3 * len(ips)
            assert list(pool) == ips, name
        assert compact.pool("no-such-pool") is compact.pool("general")

    def test_plans_hold_the_same_intervals_and_clients(self, case):
        context, pools = case
        generator = context.generator
        connections = 0
        for spec in context.specs:
            plan = generator.plan_for(spec)
            n_visible, n_tls13, clients, shard_of = reference_plan(
                generator, spec, pools)
            assert (plan.n_visible, plan.n_tls13) == (n_visible, n_tls13)
            assert isinstance(plan.shard_of, bytes)
            assert tuple(plan.shard_of) == shard_of, spec.key
            assert plan.clients.typecode == "I"
            pool = generator.pools.pool(spec.client_pool)
            assert tuple(pool[index] for index in plan.clients) == clients
            connections += plan.total
        assert connections > len(context.specs)


class TestAddressPool:
    def test_indexing_renders_each_address(self):
        pool = AddressPool(bytes([0, 0, 0, 15, 255, 253]))
        assert len(pool) == 2
        assert list(pool) == ["10.16.0.1", "10.31.255.254"]
        assert pool[-1] == pool[1]
        with pytest.raises(IndexError):
            pool[2]

    def test_at_most_256_intervals(self, registry):
        with pytest.raises(ValueError):
            WorkloadGenerator(registry, seed=0, scale=SMALL_SCALE,
                              shards=257)
