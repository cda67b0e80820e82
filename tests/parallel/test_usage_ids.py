"""Chain usage as interned ids, against a set-of-strings reference.

``ChainUsage`` holds each chain's client IPs, server IPs and SNIs as
sorted arrays of process-wide ids, and its ports as first-seen arrays.
The reference here folds a generated corpus the way the set-based
accumulator did: string sets and a port ``Counter``, row by row over the
shards in order.  Every read the analysis makes is checked against it —
distinct counts, unions across chains, decoded strings and the port
``Counter``'s key order — after an ingest at ``jobs`` 1 and 2, after a
journal replay and after the in-memory ``aggregate_chains``.  The last
tests load checkpoints that another interpreter pickled, where the same
strings have other ids.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from collections import Counter

import pytest

from repro.core.chain import ChainUsage, aggregate_chains
from repro.parallel import discover_shards, generate_dataset, ingest_shards
from repro.parallel.supervisor import SupervisorConfig
from repro.resilience.journal import RunJournal
from repro.zeek.format import read_zeek_log
from repro.zeek.records import SSLRecord, X509Record
from repro.zeek.tap import certificate_map, iter_joined

SEED = "probe"
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))), "src")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("usage-ids")
    generate_dataset(str(out), seed=SEED, scale="small", jobs=1)
    return str(out)


@pytest.fixture(scope="module")
def reference(corpus):
    """Per chain key, in first-seen order: the client, server and SNI
    string sets and the port ``Counter``."""
    shards = discover_shards(corpus)
    _, x509_rows = read_zeek_log(shards[0].x509_path)
    known = {row["fingerprint"] for row in x509_rows}
    chains = {}
    for spec in shards:
        _, rows = read_zeek_log(spec.ssl_path)
        for row in rows:
            ssl = SSLRecord.from_row(row)
            key = tuple(fp for fp in ssl.cert_chain_fps or () if fp in known)
            if not key:
                continue
            clients, servers, snis, ports = chains.setdefault(
                key, (set(), set(), set(), Counter()))
            clients.add(ssl.id_orig_h)
            servers.add(ssl.id_resp_h)
            ports[ssl.id_resp_p] += 1
            if ssl.server_name:
                snis.add(ssl.server_name)
    return chains


def _groups(keys):
    """Chain groups to union over: all of them, and each chain length."""
    groups = {"all": list(keys)}
    for key in keys:
        groups.setdefault(len(key), []).append(key)
    return groups


def assert_matches(chains, reference):
    assert list(chains) == list(reference)
    for key, chain in chains.items():
        clients, servers, snis, ports = reference[key]
        usage = chain.usage
        for ids, names, expected in (
                (usage.client_ids, usage.client_names(), clients),
                (usage.server_ids, usage.server_names(), servers),
                (usage.sni_ids, usage.sni_names(), snis)):
            assert ids.typecode == "I"
            assert list(ids) == sorted(set(ids))
            assert len(ids) == len(expected)
            assert sorted(names) == sorted(expected)
        assert list(usage.port_counter().items()) == list(ports.items())
    for keys in _groups(chains).values():
        usages = [chains[key].usage for key in keys]
        assert ChainUsage.distinct_clients(usages) == len(
            set().union(*(reference[key][0] for key in keys)))
        expected = Counter()
        for key in keys:
            expected += reference[key][3]
        assert list(ChainUsage.port_totals(usages).items()) == \
            list(expected.items())


@pytest.mark.parametrize("jobs", [1, 2])
def test_ingest_matches_string_sets(corpus, reference, jobs, monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
    result = ingest_shards(discover_shards(corpus), jobs=jobs)
    assert result.jobs == jobs
    assert_matches(result.chains, reference)


def test_journal_replay_matches_string_sets(corpus, reference, tmp_path,
                                            monkeypatch):
    monkeypatch.setenv("REPRO_PARALLEL_NO_CPU_CLAMP", "1")
    shards = discover_shards(corpus)
    with RunJournal(str(tmp_path / "journal")) as journal:
        ingest_shards(shards, jobs=2,
                      supervise=SupervisorConfig(journal=journal))
    with RunJournal(str(tmp_path / "journal")) as journal:
        replayed = ingest_shards(
            shards, jobs=2,
            supervise=SupervisorConfig(journal=journal, resume=True))
    assert replayed.supervisor.journal_replayed == len(shards) + 1
    assert_matches(replayed.chains, reference)


def test_in_memory_aggregation_matches_string_sets(corpus, reference):
    shards = discover_shards(corpus)
    _, x509_rows = read_zeek_log(shards[0].x509_path)
    certificates = certificate_map(X509Record.from_row(row)
                                   for row in x509_rows)
    rows = (SSLRecord.from_row(row) for spec in shards
            for row in read_zeek_log(spec.ssl_path)[1])
    assert_matches(aggregate_chains(iter_joined(rows, certificates)),
                   reference)


#: Ingests the corpus, analyzes it into a checkpoint store and prints
#: the fingerprint with what the checkpointed stages read.
_WRITE = """
import json, sys
from repro.campus.dataset import cached_campus_dataset
from repro.parallel import discover_shards, ingest_shards
from repro.resilience.checkpoint import CheckpointStore
corpus, store, jobs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
analyzer = cached_campus_dataset(seed=sys.argv[4], scale="small").analyzer()
chains = ingest_shards(discover_shards(corpus), jobs=1).chains
result = analyzer.analyze_chains(chains, checkpoint=CheckpointStore(store),
                                 jobs=jobs)
print(json.dumps({
    "fingerprint": analyzer._fingerprint(chains),
    "dga": [[c.template, c.connections, c.client_ips]
            for c in result.dga_clusters],
    "table2": result.categorized.summary_rows(),
    "missing_issuer": result.hybrid.missing_issuer_stats()}))
"""

#: Interns unrelated strings first, so every id differs from the
#: writer's, then reads the stages straight from the checkpoint store.
_READ = """
import json, sys
from repro.core.chain import intern_value
from repro.resilience.checkpoint import CheckpointStore
for i in range(5000):
    intern_value(f"unrelated-{i}")
store, fingerprint, stages = sys.argv[1], sys.argv[2], sys.argv[3:]
out = {}
for stage in stages:
    hit, payload = CheckpointStore(store).load(stage, fingerprint)
    assert hit, stage
    if stage == "dga":
        out["dga"] = [[c.template, c.connections, c.client_ips]
                      for c in payload]
    elif stage == "categorize":
        out["table2"] = payload.summary_rows()
    elif stage == "hybrid":
        out["missing_issuer"] = payload.missing_issuer_stats()
print(json.dumps(out))
"""


def _run(script, *args):
    env = dict(os.environ, REPRO_PARALLEL_NO_CPU_CLAMP="1",
               PYTHONPATH=os.pathsep.join(
                   filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          check=True, capture_output=True, text=True)
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("jobs, stages", [
    (None, ("categorize", "hybrid", "dga")),
    (2, ("dga",)),
], ids=["serial-stages", "engine"])
def test_checkpoints_load_in_a_fresh_interpreter(corpus, tmp_path, jobs,
                                                 stages):
    store = str(tmp_path / "checkpoints")
    written = _run(_WRITE, corpus, store, json.dumps(jobs), SEED)
    assert written["dga"], "the corpus has no DGA cluster to pickle"
    read = _run(_READ, store, written["fingerprint"], *stages)
    assert read == {name: written[name] for name in read}
    assert len(read) == len(stages)
