"""Table 5: issuer–subject vs key–signature validation comparison.

Runs both validators over the same corpus and tabulates their verdicts,
plus the agreement analysis the paper performs: mismatch positions reported
by the issuer–subject method must line up with the pair positions at which
signature verification fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..core.crosssign import CrossSignDisclosures
from ..x509.pem import FaultType
from .corpus import CorpusChain, ValidationCorpus
from .issuer_subject import ISVerdict, validate_issuer_subject
from .key_signature import KSVerdict, validate_key_signature

__all__ = ["Table5Result", "compare_validators"]


@dataclass
class Table5Result:
    """Both methods' verdict counts plus agreement diagnostics."""

    total: int = 0
    is_single: int = 0
    is_valid: int = 0
    is_broken: int = 0
    ks_single: int = 0
    ks_valid: int = 0
    ks_broken: int = 0
    ks_unrecognized: int = 0
    #: Chains where the two methods disagree (IS valid, KS broken/etc.).
    disagreements: int = 0
    #: Broken chains where both methods exist and report identical
    #: failure-pair positions.
    position_agreements: int = 0
    position_comparisons: int = 0

    def rows(self) -> list[dict]:
        """Table 5 layout: one row per outcome, both method columns."""
        return [
            {"outcome": "#. Single-certificate chains",
             "issuer_subject": self.is_single, "key_signature": self.ks_single},
            {"outcome": "#. Valid chains",
             "issuer_subject": self.is_valid, "key_signature": self.ks_valid},
            {"outcome": "#. Broken chains",
             "issuer_subject": self.is_broken, "key_signature": self.ks_broken},
            {"outcome": "#. Chains with unrecognized keys",
             "issuer_subject": None, "key_signature": self.ks_unrecognized},
        ]


def compare_validators(corpus: ValidationCorpus, *,
                       disclosures: Optional[CrossSignDisclosures] = None
                       ) -> Table5Result:
    result = Table5Result(total=len(corpus))
    for chain in corpus.chains:
        is_result = validate_issuer_subject(chain.names,
                                            disclosures=disclosures)
        ks_result = validate_key_signature(chain.ders)

        if is_result.verdict is ISVerdict.SINGLE:
            result.is_single += 1
        elif is_result.verdict is ISVerdict.VALID:
            result.is_valid += 1
        else:
            result.is_broken += 1

        if ks_result.verdict is KSVerdict.SINGLE:
            result.ks_single += 1
        elif ks_result.verdict is KSVerdict.VALID:
            result.ks_valid += 1
        elif ks_result.verdict is KSVerdict.UNRECOGNIZED_KEY:
            result.ks_unrecognized += 1
        else:
            result.ks_broken += 1

        is_ok = is_result.verdict is not ISVerdict.BROKEN
        ks_ok = ks_result.verdict in (KSVerdict.SINGLE, KSVerdict.VALID)
        if is_ok != ks_ok or (
                ks_result.verdict is KSVerdict.UNRECOGNIZED_KEY):
            result.disagreements += 1

        # Positional agreement on chains both methods call broken.
        if (is_result.verdict is ISVerdict.BROKEN
                and ks_result.verdict is KSVerdict.BROKEN):
            result.position_comparisons += 1
            if is_result.mismatch_positions == ks_result.failure_positions:
                result.position_agreements += 1
    return result
