"""12-month connection workload generation.

Turns chain specs into a stream of simulated handshakes observed at the
campus border: per-spec connection volumes, NAT'd client pools sized to the
paper's per-category client-IP counts, per-connection client validation
policies, SNI behaviour, Table 4 port models, and a TLS 1.3 slice whose
certificates the monitor cannot see.

The study window is partitioned into :data:`GENERATION_SHARDS` fixed
intervals, independent of how many worker processes generate them.  Each
(interval, spec) cell draws from its own deterministically-derived RNG
stream, so any process can generate any cell in isolation and the
shard-major concatenation of cells is byte-identical however the work is
distributed (see ``docs/PERFORMANCE.md``, "Generation stage").
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..draws import randbelow, randbelow_many, randbelow_rounds
from ..tls.connection import ConnectionRecord, Endpoint
from ..tls.handshake import HandshakeSimulator, negotiate
from ..tls.messages import TLSVersion
from ..tls.policy import (
    BrowserPolicy,
    PermissivePolicy,
    StrictPresentedChainPolicy,
    ValidationPolicy,
    ValidationResult,
)
from ..truststores.registry import PublicDBRegistry
from ..x509.certificate import Certificate
from .profiles import PAPER, PORT_MODELS, ScaleConfig
from .spec import ChainSpec, ClientMix

__all__ = ["ClientPools", "SpecPlan", "WorkloadGenerator", "CellRow",
           "GENERATION_SHARDS", "STUDY_START", "STUDY_DAYS", "shard_window",
           "memoize_verdicts", "connection_of"]

STUDY_START = datetime(2020, 9, 1, tzinfo=timezone.utc)
STUDY_DAYS = 365

#: Fixed number of study-window intervals the workload is generated in.
#: A month-like granularity: fine enough that a worker pool up to 12 wide
#: stays busy, coarse enough that per-cell RNG/simulator setup amortises.
#: Deliberately *not* derived from ``--jobs`` — the interval layout (and
#: therefore every derived RNG stream and the output bytes) must be
#: identical at any worker count.
GENERATION_SHARDS = 12

#: One simulated connection as the cell kernel yields it: the ``ssl.log``
#: row (``SSLRecord.FIELDS`` order), its moment, and the chain the
#: monitor saw (empty for the TLS 1.3 slice).
CellRow = Tuple[list, datetime, Tuple[Certificate, ...]]


def shard_window(shard: int, shards: int = GENERATION_SHARDS
                 ) -> Tuple[float, float]:
    """(start_offset_seconds, span_seconds) of one interval of the window."""
    span = STUDY_DAYS * 86400 / shards
    return shard * span, span


class ClientPools:
    """NAT'd campus client IPs partitioned by traffic population.

    Pool sizes follow the paper's client-IP counts (231,228 non-public /
    11,933 hybrid / 19,149 interception split per Table 1 / 761 DGA),
    scaled to ``scale.client_pool``.
    """

    def __init__(self, seed: int | str, scale: ScaleConfig):
        rng = random.Random(f"clients:{seed}")
        reference_total = PAPER.nonpub_client_ips + PAPER.hybrid_client_ips \
            + PAPER.interception_client_ips
        factor = scale.client_pool / reference_total
        self._pools: Dict[str, List[str]] = {}

        def make_pool(pool_name: str, reference: int, minimum: int = 4) -> None:
            size = max(minimum, round(reference * factor))
            self._pools[pool_name] = self._ips(rng, size)

        make_pool("nonpub", PAPER.nonpub_client_ips)
        make_pool("hybrid", PAPER.hybrid_client_ips)
        make_pool("general", round(reference_total * 0.8))
        make_pool("dga", PAPER.dga_client_ips)
        for category, _count, _pct, ips in PAPER.interception_issuer_categories:
            make_pool(f"intercept:{category}", ips)

    @staticmethod
    def _ips(rng: random.Random, count: int) -> List[str]:
        """``count`` addresses ``10.a.b.c``, drawn per address as
        ``randint(16, 31)``, ``randint(0, 255)``, ``randint(1, 254)``."""
        octets = iter(randbelow_rounds(rng, (16, 256, 254), count))
        return [f"10.{16 + second}.{third}.{1 + fourth}"
                for second, third, fourth in zip(octets, octets, octets)]

    def pool(self, pool_name: str) -> List[str]:
        return self._pools.get(pool_name) or self._pools["general"]

    def sizes(self) -> Dict[str, int]:
        return {pool_name: len(ips) for pool_name, ips in self._pools.items()}


@dataclass(frozen=True, slots=True)
class SpecPlan:
    """The shard-independent draws for one spec, made once up front.

    Everything that must be identical no matter which worker generates
    which interval lives here: the jittered connection volume, the port,
    the client subset, and each connection's interval assignment.  All of
    it comes from the spec's own ``plan`` RNG stream, derived from the
    workload seed plus a content digest of the spec — never from a shared
    generator-instance stream — so any process recomputes the identical
    plan from just (seed, spec).
    """

    plan_id: str
    n_visible: int
    n_tls13: int
    port: int
    clients: Tuple[str, ...]
    #: Interval index of connection ``i``; indices ``< n_visible`` are the
    #: monitor-visible TLS 1.2 connections, the rest the TLS 1.3 slice.
    shard_of: Tuple[int, ...]

    @property
    def total(self) -> int:
        return self.n_visible + self.n_tls13


class _VerdictMemo(ValidationPolicy):
    """A policy's verdicts, one per (presented chain, validity at ``at``).

    Exact for :class:`BrowserPolicy` and
    :class:`StrictPresentedChainPolicy`: they read ``at`` only through
    ``is_valid_at`` on presented certificates, and their trust-store
    lookups never change.  The presented fingerprints plus those
    validity tests therefore decide the verdict.  Pays because the same
    chain is validated by the same policy on many connections.
    """

    def __init__(self, policy: ValidationPolicy):
        self.policy = policy
        self.name = policy.name
        self._verdicts: Dict[tuple, ValidationResult] = {}

    def validate(self, presented: Sequence[Certificate], *,
                 at: datetime) -> ValidationResult:
        key = (tuple([certificate.fingerprint for certificate in presented]),
               tuple([certificate.is_valid_at(at)
                      for certificate in presented]))
        verdict = self._verdicts.get(key)
        if verdict is None:
            verdict = self.policy.validate(presented, at=at)
            self._verdicts[key] = verdict
        return verdict


def memoize_verdicts(policy: ValidationPolicy) -> ValidationPolicy:
    """Wrap ``policy`` in a verdict memo where that is exact and pays.

    :class:`PermissivePolicy` is returned as is: it costs no more than a
    memo lookup.
    """
    if isinstance(policy, (BrowserPolicy, StrictPresentedChainPolicy)):
        return _VerdictMemo(policy)
    return policy


class WorkloadGenerator:
    """Simulates every spec's connections as the border monitor sees them.

    Generation is cell-structured: :meth:`generate_cell` simulates the
    connections of one (interval, spec) pair, as ``ssl.log`` rows, from
    that cell's private RNG and handshake streams.  :meth:`generate`
    walks cells shard-major (interval 0 for every spec, then interval 1,
    ...), which is exactly the concatenation order of the parallel
    engine's per-shard log files — so serial output and merged parallel
    output are byte-identical by construction.
    """

    def __init__(self, registry: PublicDBRegistry, *, seed: int | str,
                 scale: ScaleConfig, shards: int = GENERATION_SHARDS):
        self.registry = registry
        self.scale = scale
        self.seed = seed
        self.shards = shards
        self.pools = ClientPools(seed, scale)
        self._policies: Dict[str, ValidationPolicy] = {
            "browser": memoize_verdicts(BrowserPolicy(registry)),
            "browser_nss": memoize_verdicts(
                BrowserPolicy(registry.restricted_to(["Mozilla"]))),
            "strict": memoize_verdicts(StrictPresentedChainPolicy(registry)),
            "permissive": PermissivePolicy(),
        }
        self._trusting_cache: Dict[tuple, ValidationPolicy] = {}
        # Per-spec invariants, computed on first use.
        self._server_ips: Dict[Optional[str], str] = {}
        self._mix_weights: Dict[ClientMix, Tuple[Tuple[str, float], ...]] = {}

    # -- policy selection -----------------------------------------------------

    def _policy_for(self, kind: str, spec: ChainSpec) -> ValidationPolicy:
        if kind != "trusting":
            return self._policies[kind]
        cache_key = tuple(a.fingerprint for a in spec.extra_anchors)
        policy = self._trusting_cache.get(cache_key)
        if policy is None:
            policy = memoize_verdicts(BrowserPolicy(
                self.registry, extra_anchors=list(spec.extra_anchors)))
            self._trusting_cache[cache_key] = policy
        return policy

    def _weighted_policies(self, spec: ChainSpec
                           ) -> Tuple[Tuple[ValidationPolicy, float], ...]:
        """The spec's client mix as (policy, normalized weight) pairs."""
        weights = self._mix_weights.get(spec.mix)
        if weights is None:
            weights = self._mix_weights[spec.mix] = spec.mix.weights()
        return tuple((self._policy_for(kind, spec), weight)
                     for kind, weight in weights)

    @staticmethod
    def _draw(rng: random.Random, weighted: Sequence[tuple[object, float]]):
        roll = rng.random()
        acc = 0.0
        for value, weight in weighted:
            acc += weight
            if roll < acc:
                return value
        return weighted[-1][0]

    # -- per-spec planning ------------------------------------------------------

    @staticmethod
    def _plan_id(spec: ChainSpec) -> str:
        """Content digest naming the spec's RNG streams.

        Derived from what the spec *is* rather than its position in the
        spec list, so a worker holding only (seed, spec) derives the same
        streams as the serial path.  BLAKE2b, never ``hash()`` — stable
        across interpreter runs.
        """
        digest = hashlib.blake2b(digest_size=16)
        for fingerprint in spec.key:
            digest.update(fingerprint.encode("ascii"))
            digest.update(b"\x00")
        for token in (spec.hostname or "", str(spec.server_id),
                      spec.category_truth, spec.port_model, spec.client_pool,
                      str(spec.mean_connections), str(spec.sni_rate),
                      str(spec.tls13_rate)):
            digest.update(token.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()

    def plan_for(self, spec: ChainSpec) -> SpecPlan:
        """Compute the spec's shard-independent plan (volume, port,
        client subset, per-connection interval assignment)."""
        plan_id = self._plan_id(spec)
        rng = random.Random(f"workload:{self.seed}:plan:{plan_id}")
        if spec.labels.get("outlier"):
            n_visible = 1
        else:
            jitter = rng.uniform(0.6, 1.6)
            n_visible = max(self.scale.min_connections,
                            round(spec.mean_connections * jitter))
        n_tls13 = round(n_visible * spec.tls13_rate)
        port = self._draw(rng, tuple(
            (p, w) for p, w in _normalized(PORT_MODELS[spec.port_model])))
        pool = self.pools.pool(spec.client_pool)
        subset_size = max(1, min(len(pool), round(n_visible * 0.7)))
        clients = tuple([pool[index] for index in
                         randbelow_many(rng, len(pool), subset_size)])
        shard_of = tuple(randbelow_many(rng, self.shards,
                                        n_visible + n_tls13))
        return SpecPlan(
            plan_id=plan_id,
            n_visible=n_visible,
            n_tls13=n_tls13,
            port=port,
            clients=clients,
            shard_of=shard_of,
        )

    def connection_count(self, spec: ChainSpec) -> int:
        return self.plan_for(spec).n_visible

    # -- generation -------------------------------------------------------------

    def generate_cell(self, spec: ChainSpec, shard: int, *,
                      plan: Optional[SpecPlan] = None) -> Iterator[CellRow]:
        """Simulate one (interval, spec) cell's connections.

        The one cell kernel: yields ``(ssl_row, when, visible_chain)``
        per connection, the row in ``SSLRecord.FIELDS`` order.  The cell
        has its own RNG stream and handshake stream, both derived from
        (seed, interval, spec digest), so it depends on nothing generated
        before it: any worker can produce it, in any order, with
        identical output.  What is constant for the cell is computed
        once; each connection makes the same draws, in the same order,
        as ``HandshakeSimulator.connect`` for a ``TLSClient`` would
        (policy roll, client, SNI roll, moment, then UID and port) plus
        one verdict lookup.
        """
        if plan is None:
            plan = self.plan_for(spec)
        indices = [i for i, s in enumerate(plan.shard_of) if s == shard]
        if not indices:
            return
        stream = f"{self.seed}:{shard:02d}:{plan.plan_id}"
        rng = random.Random(f"workload:{stream}")
        draw_uid_and_port = HandshakeSimulator(
            seed=f"workload-hs:{stream}").draw_uid_and_port
        chain = spec.chain
        server_version = (TLSVersion.TLS13 if plan.n_tls13
                          else TLSVersion.TLS12)
        # (version string, visible chain, its fingerprints) of the
        # monitor-visible connections, then of the TLS 1.3 slice.
        slices = []
        for client_version in (TLSVersion.TLS12, TLSVersion.TLS13):
            version = negotiate(client_version, server_version)
            visible = (chain if version.certificates_visible_to_monitor
                       else ())
            slices.append((version.value, visible,
                           tuple([c.fingerprint for c in visible])))
        server_ip, server_port = self._server_ip(spec), plan.port
        sni, sni_rate = spec.hostname, spec.sni_rate
        start, span = shard_window(shard, self.shards)
        policies = self._weighted_policies(spec)
        draw = self._draw
        clients = plan.clients
        n_clients, n_visible = len(clients), plan.n_visible
        for i in indices:
            policy = draw(rng, policies)
            client_ip = clients[randbelow(rng, n_clients)]
            sends_sni = rng.random() < sni_rate
            when = STUDY_START + timedelta(
                seconds=start + rng.uniform(0, span))
            verdict = policy.validate(chain, at=when)
            uid, client_port = draw_uid_and_port()
            version, visible, fingerprints = slices[i >= n_visible]
            yield ([when.timestamp(), uid, client_ip, client_port,
                    server_ip, server_port, version,
                    sni if sends_sni else None, False, verdict.ok,
                    fingerprints, verdict.detail], when, visible)

    def generate_for_spec(self, spec: ChainSpec) -> Iterator[ConnectionRecord]:
        return self.generate([spec])

    def generate_shard(self, specs: Sequence[ChainSpec], shard: int, *,
                       plans: Optional[Sequence[SpecPlan]] = None
                       ) -> Iterator[CellRow]:
        """One interval's connections across every spec — a worker's unit."""
        if plans is None:
            plans = [self.plan_for(spec) for spec in specs]
        for spec, plan in zip(specs, plans):
            yield from self.generate_cell(spec, shard, plan=plan)

    def generate(self, specs: Iterable[ChainSpec]) -> Iterator[ConnectionRecord]:
        """Every connection, shard-major, as in-memory records."""
        spec_list = list(specs)
        plans = [self.plan_for(spec) for spec in spec_list]
        for shard in range(self.shards):
            for cell_row in self.generate_shard(spec_list, shard,
                                                plans=plans):
                yield connection_of(*cell_row)

    def _server_ip(self, spec: ChainSpec) -> str:
        # Stable per-server external address (seeded, not hash()-based, so
        # it is reproducible across interpreter runs).
        ip = self._server_ips.get(spec.server_id)
        if ip is None:
            rng = random.Random(f"srvip:{spec.server_id}")
            ip = (f"{rng.choice((93, 104, 151, 172, 185, 198, 203))}."
                  f"{rng.randint(1, 254)}.{rng.randint(1, 254)}."
                  f"{rng.randint(1, 254)}")
            self._server_ips[spec.server_id] = ip
        return ip


def connection_of(row: list, when: datetime,
                  visible_chain: Tuple[Certificate, ...]) -> ConnectionRecord:
    """The in-memory record of one cell-kernel row: the one adapter for
    consumers of ``ConnectionRecord`` (the monitoring tap)."""
    return ConnectionRecord(
        uid=row[1], timestamp=when, client=Endpoint(row[2], row[3]),
        server=Endpoint(row[4], row[5]), version=TLSVersion(row[6]),
        sni=row[7], established=row[9], chain=visible_chain,
        validation_detail=row[11])


def _normalized(entries: Sequence[tuple[int, float]]) -> list[tuple[int, float]]:
    total = sum(w for _, w in entries)
    return [(p, w / total) for p, w in entries]
