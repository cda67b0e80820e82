#!/usr/bin/env python
"""The §5 / §6.1 validation divergence, reproduced on one chain.

A server delivers a perfectly valid Let's Encrypt path **plus** the staging
placeholder certificate its renewal tooling left behind (`Fake LE
Intermediate X1` — Appendix F.2).  Chrome-style validation succeeds because
it builds a path from its own trust store and ignores the junk; strict
presented-chain validation (OpenSSL-style) rejects the same chain.

Run:  python examples/validation_divergence.py
"""

from datetime import datetime, timezone

from repro.core import analyze_structure
from repro.tls import BrowserPolicy, StrictPresentedChainPolicy
from repro.truststores import build_public_pki
from repro.x509 import CertificateFactory, name


def main() -> None:
    pki = build_public_pki(seed=5)
    factory = CertificateFactory(seed=5)
    le = pki.ca("lets_encrypt")
    when = datetime(2021, 3, 1, tzinfo=timezone.utc)

    leaf = factory.leaf(le.intermediates["R3"], name("blog.example.org"),
                        dns_names=["blog.example.org"])
    staging_junk = factory.mismatched_pair_cert(
        name("Fake LE Root X1"), name("Fake LE Intermediate X1"))
    chain = (leaf, le.intermediates["R3"].certificate,
             le.root.certificate, staging_junk)

    print("Delivered chain:")
    for cert in chain:
        print(f"  {cert.short_name():30s} issued by "
              f"{cert.issuer.common_name}")

    # Structural view (§4.2): a complete matched path + one junk cert.
    structure = analyze_structure(chain)
    print(f"\ncomplete matched path found: "
          f"{structure.contains_complete_matched_path}")
    for index in structure.unnecessary_indices:
        print(f"unnecessary: position {index}: "
              f"{chain[index].short_name()!r}")

    # Client views (§5): the same chain, two verdicts.
    browser = BrowserPolicy(pki.registry).validate(chain, at=when)
    strict = StrictPresentedChainPolicy(pki.registry).validate(chain, at=when)
    print(f"\nChrome-style (local trust store):  "
          f"{'ACCEPTED' if browser.ok else 'REJECTED'} "
          f"({browser.status.value})")
    print(f"OpenSSL-style (presented chain):   "
          f"{'ACCEPTED' if strict.ok else 'REJECTED'} "
          f"({strict.status.value}: {strict.detail})")
    assert browser.ok and not strict.ok
    print("\n→ the §6.1 hazard: availability depends on which client "
          "connects.")


if __name__ == "__main__":
    main()
