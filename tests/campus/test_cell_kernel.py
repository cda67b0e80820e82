"""The workload's cell kernel against ``HandshakeSimulator.connect``.

``WorkloadGenerator.generate_cell`` simulates a cell's connections
straight to ``ssl.log`` rows; the scanner's path simulates one handshake
at a time through ``connect``.  Both must make the same draws in the
same order and apply the same TLS 1.3 visibility rule, so the reference
here rebuilds every cell the per-connection way (a ``TLSClient`` and a
``TLSServer`` per connection, standard-library draws on identically
seeded streams) and compares the two, row for row and record for record.
"""

from __future__ import annotations

import random
from datetime import timedelta

import pytest

from repro.campus.dataset import build_generation_context
from repro.campus.workload import STUDY_START, shard_window
from repro.tls.handshake import HandshakeSimulator, TLSClient, TLSServer
from repro.tls.messages import TLSVersion
from repro.zeek.records import ssl_record_from_connection

POLICY_KINDS = ("browser", "browser_nss", "strict", "trusting",
                "permissive")


@pytest.fixture(scope="module")
def context():
    return build_generation_context(seed="kernel", scale="small")


def reference_cell(generator, spec, shard, plan):
    """One cell through ``connect``: ``(policy kind, outcome)`` per
    connection, in the kernel's order."""
    stream = f"{generator.seed}:{shard:02d}:{plan.plan_id}"
    rng = random.Random(f"workload:{stream}")
    sim = HandshakeSimulator(seed=f"workload-hs:{stream}")
    server = TLSServer(
        ip=generator._server_ip(spec), port=plan.port, chain=spec.chain,
        max_version=TLSVersion.TLS13 if plan.n_tls13 else TLSVersion.TLS12,
        hostnames=(spec.hostname,) if spec.hostname else ())
    kinds = {id(generator._policy_for(kind, spec)): kind
             for kind, _ in spec.mix.weights()}
    start, span = shard_window(shard, generator.shards)
    weighted = generator._weighted_policies(spec)
    for i, interval in enumerate(plan.shard_of):
        if interval != shard:
            continue
        roll, acc = rng.random(), 0.0
        policy = weighted[-1][0]
        for candidate, weight in weighted:
            acc += weight
            if roll < acc:
                policy = candidate
                break
        client = TLSClient(
            ip=rng.choice(plan.clients), policy=policy,
            version=(TLSVersion.TLS13 if i >= plan.n_visible
                     else TLSVersion.TLS12),
            sends_sni=rng.random() < spec.sni_rate)
        when = STUDY_START + timedelta(seconds=start + rng.uniform(0, span))
        yield kinds[id(policy)], sim.connect(client, server,
                                             sni=spec.hostname, when=when)


@pytest.fixture(scope="module")
def compared(context):
    """Every cell of the corpus, kernel and reference side by side."""
    generator = context.generator
    cells = []
    for spec in context.specs:
        plan = generator.plan_for(spec)
        for shard in range(generator.shards):
            kernel = list(generator.generate_cell(spec, shard, plan=plan))
            reference = list(reference_cell(generator, spec, shard, plan))
            cells.append((spec, kernel, reference))
    return cells


class TestKernelMatchesConnect:
    def test_rows_equal_connect_rows(self, compared):
        for spec, kernel, reference in compared:
            assert len(kernel) == len(reference), spec.key
            for (row, when, visible), (_, outcome) in zip(kernel, reference):
                record = outcome.record
                assert row == ssl_record_from_connection(record).to_row(), \
                    spec.key
                assert when == record.timestamp
                assert visible == record.chain

    def test_generate_for_spec_records_equal_connect_records(
            self, context, compared):
        by_spec = {}
        for spec, _, reference in compared:
            by_spec.setdefault(id(spec), []).extend(
                outcome.record for _, outcome in reference)
        for spec in context.specs:
            records = list(context.generator.generate_for_spec(spec))
            assert records == by_spec[id(spec)], spec.key

    def test_every_behaviour_is_covered(self, compared):
        """The corpus exercises what the two paths could disagree on."""
        kinds, versions, snis, verdicts = set(), set(), set(), set()
        for _, _, reference in compared:
            for kind, outcome in reference:
                record = outcome.record
                kinds.add(kind)
                versions.add((record.version, bool(record.chain)))
                snis.add(record.sni is not None)
                verdicts.add(record.established)
        assert kinds == set(POLICY_KINDS)
        assert versions == {(TLSVersion.TLS12, True),
                            (TLSVersion.TLS13, False)}
        assert snis == {True, False}
        assert verdicts == {True, False}
