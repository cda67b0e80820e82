#!/usr/bin/env python
"""chain_lint: check a PEM chain file the way the paper checks chains.

Give it a PEM bundle (as produced by ``openssl s_client -showcerts``) and
it reports, per adjacent pair, both the issuer–subject verdict (Appendix
D.1) and the key–signature verdict (Appendix D.2), plus the certificates
outside the complete matched path.  With no argument it lints a generated
demo chain containing a deliberate fault.

Run:  python examples/chain_lint.py [chain.pem]
"""

import sys

from cryptography import x509 as cx509

from repro.core import analyze_structure
from repro.validation import (
    validate_issuer_subject,
    validate_key_signature,
)
from repro.x509 import name
from repro.x509.pem import (
    CryptoChainBuilder,
    decode_pem_bundle,
    encode_pem_bundle,
    crypto_cert_to_record,
    FaultType,
)


def demo_bundle() -> str:
    """A 3-cert chain whose leaf was signed with the wrong key."""
    builder = CryptoChainBuilder()
    chain = builder.build_chain(
        [name("demo.example", o="Demo"), name("Demo CA", o="Demo"),
         name("Demo Root", o="Demo")],
        fault=FaultType.WRONG_KEY, fault_position=0)
    return encode_pem_bundle(chain)


def main() -> int:
    if len(sys.argv) > 1:
        with open(sys.argv[1], "r", encoding="utf-8") as handle:
            bundle = handle.read()
        source = sys.argv[1]
    else:
        bundle = demo_bundle()
        source = "generated demo chain (leaf signed with wrong key)"

    ders = decode_pem_bundle(bundle)
    if not ders:
        print("no certificates found in input", file=sys.stderr)
        return 1
    print(f"linting {len(ders)} certificate(s) from {source}\n")

    records = []
    for i, der in enumerate(ders):
        try:
            cert = cx509.load_der_x509_certificate(der)
        except ValueError as exc:
            print(f"  [{i}] UNPARSEABLE: {exc}")
            records.append(None)
            continue
        record = crypto_cert_to_record(cert)
        records.append(record)
        print(f"  [{i}] s: {record.subject.rfc4514()}")
        print(f"      i: {record.issuer.rfc4514()}")

    parsed = [r for r in records if r is not None]
    names = [(r.subject, r.issuer) for r in parsed]
    is_result = validate_issuer_subject(names) if names else None
    ks_result = validate_key_signature(ders)

    print(f"\nissuer–subject verdict : "
          f"{is_result.verdict.value if is_result else 'n/a'}"
          + (f" (mismatched pairs at {list(is_result.mismatch_positions)})"
             if is_result and is_result.mismatch_positions else ""))
    print(f"key–signature verdict  : {ks_result.verdict.value}"
          + (f" (failing pairs at {list(ks_result.failure_positions)})"
             if ks_result.failure_positions else "")
          + (f" — {ks_result.detail}" if ks_result.detail else ""))
    if is_result and is_result.ok and not ks_result.ok:
        print("\n⚠ names chain but signatures do not — the issuer–subject "
              "blind spot (Appendix D limitation)")

    if len(parsed) == len(records):
        structure = analyze_structure(parsed)
        if structure.has_unnecessary:
            print("\nunnecessary certificates:")
            for index in structure.unnecessary_indices:
                print(f"  position {index}: {parsed[index].short_name()!r}")
    # Exit 2 signals a broken user-supplied chain; the built-in demo chain
    # is broken on purpose, so it exits 0.
    if len(sys.argv) <= 1:
        return 0
    return 0 if ks_result.ok else 2


if __name__ == "__main__":
    sys.exit(main())
