"""Zeek substrate: SSL/X509 log records, the ASCII log format, and the
monitoring tap that produces/consumes logs."""

from .format import (
    ZeekFormatError,
    ZeekLogReader,
    ZeekLogWriter,
    iter_zeek_log,
    read_zeek_log,
    write_zeek_log,
)
from .records import (
    SSLRecord,
    X509Record,
    ssl_record_from_connection,
    x509_record_from_certificate,
)
from .tap import (
    JoinedConnection,
    JoinStats,
    MonitoringTap,
    certificate_map,
    iter_joined,
    join_logs,
    reconstruct_certificate,
)

__all__ = [
    "JoinedConnection",
    "JoinStats",
    "MonitoringTap",
    "SSLRecord",
    "X509Record",
    "ZeekFormatError",
    "ZeekLogReader",
    "ZeekLogWriter",
    "certificate_map",
    "iter_joined",
    "iter_zeek_log",
    "join_logs",
    "read_zeek_log",
    "reconstruct_certificate",
    "ssl_record_from_connection",
    "write_zeek_log",
    "x509_record_from_certificate",
]
