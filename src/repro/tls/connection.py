"""Connection records: the monitor's view of one TLS connection.

This is the in-memory equivalent of a joined Zeek ``SSL.log`` row with its
``X509.log`` cross-references — the exact unit of analysis in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import datetime
from typing import Optional, Sequence

from ..x509.certificate import Certificate
from .messages import TLSVersion

__all__ = ["ConnectionRecord", "Endpoint"]


@dataclass(frozen=True, slots=True)
class Endpoint:
    ip: str
    port: int

    def __str__(self) -> str:
        return f"{self.ip}:{self.port}"


@dataclass(frozen=True, slots=True)
class ConnectionRecord:
    """One observed TLS connection.

    ``chain`` is the certificate list *as delivered* (wire order) when the
    monitor could see it; for TLS 1.3 it is empty even though the handshake
    carried certificates (§6.3 limitation, reproduced faithfully).
    """

    uid: str
    timestamp: datetime
    client: Endpoint
    server: Endpoint
    version: TLSVersion
    sni: Optional[str]
    established: bool
    chain: tuple[Certificate, ...] = field(default=())
    validation_detail: str = ""

    @property
    def chain_fingerprints(self) -> tuple[str, ...]:
        return tuple(cert.fingerprint for cert in self.chain)

    def chain_key(self) -> tuple[str, ...]:
        """Identity of the *delivered chain* (ordered fingerprints) — the
        unit the paper counts 731,175 of."""
        return self.chain_fingerprints
