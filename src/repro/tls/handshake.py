"""Simulated TLS handshakes between configured servers and policy-bearing
clients, producing :class:`~repro.tls.connection.ConnectionRecord` streams
for the monitoring tap.

The simulation is deliberately shallow on crypto (no real key exchange) and
deep on the observable surface: delivered chain order, SNI presence,
negotiated version, and whether the client's validation policy accepts the
chain — because those are the fields the paper's entire analysis runs on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime
from typing import Dict, Optional, Sequence, Tuple

from ..draws import Alphabet, randbelow
from ..x509.certificate import Certificate
from .connection import ConnectionRecord, Endpoint
from .messages import Alert, AlertDescription, CertificateMessage, ClientHello, TLSVersion
from .policy import PermissivePolicy, ValidationPolicy, ValidationStatus

__all__ = ["TLSServer", "TLSClient", "HandshakeOutcome", "HandshakeSimulator",
           "negotiate"]


@dataclass
class TLSServer:
    """A TLS endpoint serving one configured certificate chain per port."""

    ip: str
    port: int = 443
    chain: tuple[Certificate, ...] = field(default=())
    #: Highest protocol version the server negotiates.
    max_version: TLSVersion = TLSVersion.TLS12
    #: Hostname(s) this server is known by, for scanning.
    hostnames: tuple[str, ...] = ()

    def certificate_message(self) -> CertificateMessage:
        return CertificateMessage(self.chain)

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.ip, self.port)


@dataclass
class TLSClient:
    """A TLS client with a validation policy (browser, strict, permissive)."""

    ip: str
    policy: ValidationPolicy = field(default_factory=PermissivePolicy)
    version: TLSVersion = TLSVersion.TLS12
    sends_sni: bool = True


@dataclass(frozen=True, slots=True)
class HandshakeOutcome:
    record: ConnectionRecord
    alert: Optional[Alert]
    validation_status: ValidationStatus


_ALERT_FOR_STATUS = {
    ValidationStatus.EXPIRED: AlertDescription.CERTIFICATE_EXPIRED,
    ValidationStatus.UNKNOWN_CA: AlertDescription.UNKNOWN_CA,
    ValidationStatus.SELF_SIGNED: AlertDescription.UNKNOWN_CA,
    ValidationStatus.BROKEN_CHAIN: AlertDescription.BAD_CERTIFICATE,
    ValidationStatus.EMPTY_CHAIN: AlertDescription.HANDSHAKE_FAILURE,
}


#: Zeek-style connection UIDs: "C" plus 17 base62 characters.
_UID_ALPHABET = Alphabet(
    "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")

#: Client ephemeral ports are ``randint(32768, 60999)`` draws.
_EPHEMERAL_LOW = 32768
_EPHEMERAL_COUNT = 60999 - _EPHEMERAL_LOW + 1


class HandshakeSimulator:
    """Drives client↔server handshakes and emits monitor-view records."""

    def __init__(self, seed: int | str = 0):
        self._rng = random.Random(f"handshake:{seed}")

    def draw_uid_and_port(self, client_port: Optional[int] = None
                          ) -> Tuple[str, int]:
        """The next connection's Zeek-style UID ("C" plus 17 base62
        characters), then its client ephemeral port unless ``client_port``
        is given: the one handshake draw order, shared by :meth:`connect`
        and the workload's cell kernel."""
        rng = self._rng
        uid = f"C{_UID_ALPHABET.draw(rng, 17)}"
        return uid, client_port or (
            _EPHEMERAL_LOW + randbelow(rng, _EPHEMERAL_COUNT))

    def connect(self, client: TLSClient, server: TLSServer, *,
                sni: Optional[str] = None,
                when: datetime,
                client_port: Optional[int] = None) -> HandshakeOutcome:
        """Run one handshake; returns the monitor-view outcome."""
        hello = ClientHello(
            version=negotiate(client.version, server.max_version),
            sni=sni if client.sends_sni else None,
        )
        message = server.certificate_message()
        result = client.policy.validate(message.chain, at=when)
        established = result.ok
        alert: Optional[Alert] = None
        if not established:
            alert = Alert(True, _ALERT_FOR_STATUS.get(
                result.status, AlertDescription.HANDSHAKE_FAILURE))
        visible_chain: tuple[Certificate, ...] = message.chain
        if not hello.version.certificates_visible_to_monitor:
            visible_chain = ()
        uid, port = self.draw_uid_and_port(client_port)
        record = ConnectionRecord(
            uid=uid,
            timestamp=when,
            client=Endpoint(client.ip, port),
            server=server.endpoint,
            version=hello.version,
            sni=hello.sni,
            established=established,
            chain=visible_chain,
            validation_detail=result.detail,
        )
        return HandshakeOutcome(record, alert, result.status)


_VERSION_RANK = {version: rank for rank, version in enumerate(
    (TLSVersion.TLS10, TLSVersion.TLS11, TLSVersion.TLS12, TLSVersion.TLS13))}


def negotiate(client_version: TLSVersion, server_version: TLSVersion) -> TLSVersion:
    """The version a handshake settles on: the lower of the two maxima."""
    if _VERSION_RANK[server_version] < _VERSION_RANK[client_version]:
        return server_version
    return client_version
