"""Simulated TLS: handshakes, client validation policies, connection
records, and interception middleboxes."""

from .connection import ConnectionRecord, Endpoint
from .handshake import HandshakeOutcome, HandshakeSimulator, TLSClient, TLSServer
from .interception import InterceptionMiddlebox, build_middlebox
from .messages import (
    Alert,
    AlertDescription,
    CertificateMessage,
    ClientHello,
    ServerHello,
    TLSVersion,
)
from .policy import (
    BrowserPolicy,
    PermissivePolicy,
    StrictPresentedChainPolicy,
    ValidationPolicy,
    ValidationResult,
    ValidationStatus,
    signature_verifies,
)

__all__ = [
    "Alert",
    "AlertDescription",
    "BrowserPolicy",
    "CertificateMessage",
    "ClientHello",
    "ConnectionRecord",
    "Endpoint",
    "HandshakeOutcome",
    "HandshakeSimulator",
    "InterceptionMiddlebox",
    "PermissivePolicy",
    "ServerHello",
    "StrictPresentedChainPolicy",
    "TLSClient",
    "TLSServer",
    "TLSVersion",
    "ValidationPolicy",
    "ValidationResult",
    "ValidationStatus",
    "build_middlebox",
    "signature_verifies",
]
