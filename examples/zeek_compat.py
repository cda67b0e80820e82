#!/usr/bin/env python
"""Interoperating with real Zeek deployments.

Two compatibility features in one walkthrough:

1. **Zeek ASCII logs** — the simulated campus is written as the
   fingerprint-keyed ``ssl.log``/``x509.log`` pair that Zeek writes, then
   read back through the same ingest engine the CLI's logs mode uses; the
   chains it finds are exactly the in-memory join's.
2. **PEM export** — any simulated chain renders as real, parseable X.509
   DER for external tooling (`openssl x509 -text` would accept it).

Run:  python examples/zeek_compat.py
"""

import tempfile

from cryptography import x509 as cx509

from repro.campus import build_campus_dataset
from repro.core.chain import aggregate_chains
from repro.parallel import ShardSpec, ingest_shards
from repro.x509.der import certificate_to_pem
from repro.x509.pem import decode_pem_bundle
from repro.zeek import join_logs


def main() -> None:
    dataset = build_campus_dataset(seed=21, scale="small")

    # --- 1. Zeek ASCII round trip ------------------------------------------------
    modern = aggregate_chains(join_logs(dataset.ssl_records,
                                        dataset.x509_records))
    with tempfile.TemporaryDirectory() as directory:
        ssl_path, x509_path = dataset.write_zeek_logs(directory)
        ingest = ingest_shards([ShardSpec(index=0, ssl_path=ssl_path,
                                          x509_path=x509_path)], jobs=1)
    print(f"Zeek logs: {ingest.ssl_rows:,} ssl rows, "
          f"{len(ingest.cert_fingerprints):,} distinct certificates")
    assert set(ingest.chains) == set(modern)
    print(f"the on-disk ingest and the in-memory join agree on all "
          f"{len(modern):,} distinct chains")

    # --- 2. PEM export of a simulated chain -------------------------------------
    chain = next(iter(modern.values())).certificates
    pem = certificate_to_pem(chain[0])
    parsed = cx509.load_der_x509_certificate(decode_pem_bundle(pem)[0])
    print(f"\nexported leaf parses with the cryptography package:")
    print(f"  subject: {parsed.subject.rfc4514_string()}")
    print(f"  issuer:  {parsed.issuer.rfc4514_string()}")
    print(f"  serial:  {parsed.serial_number:x}")
    print(f"  valid:   {parsed.not_valid_before_utc.date()} → "
          f"{parsed.not_valid_after_utc.date()}")


if __name__ == "__main__":
    main()
