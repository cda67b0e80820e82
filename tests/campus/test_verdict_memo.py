"""The workload generator's verdict memo.

A memoized generator policy must answer exactly what the policy it
wraps answers, for every chain the generator presents and at every
moment — in particular on both sides of each certificate's validity
bounds, where the memo key (the validity tests) changes.
"""

from __future__ import annotations

from datetime import timedelta

import pytest

from repro.campus.dataset import build_generation_context
from repro.campus.workload import _VerdictMemo, memoize_verdicts
from repro.tls.policy import (
    BrowserPolicy,
    PermissivePolicy,
    StrictPresentedChainPolicy,
)

MEMOIZED_KINDS = ("browser", "browser_nss", "strict", "trusting")
SECOND = timedelta(seconds=1)


@pytest.fixture(scope="module")
def context():
    return build_generation_context(seed="memo", scale="small")


def moments(chain):
    """Each validity bound of the chain, and one second either side."""
    bounds = {moment for certificate in chain
              for moment in (certificate.validity.not_before,
                             certificate.validity.not_after)}
    return sorted({moment + offset for moment in bounds
                   for offset in (-SECOND, timedelta(0), SECOND)})


class TestMemoizedVerdicts:
    def test_memoized_verdict_equals_direct_validation(self, context):
        generator = context.generator
        calls = 0
        memos = set()
        for spec in context.specs:
            for kind in MEMOIZED_KINDS:
                memo = generator._policy_for(kind, spec)
                assert isinstance(memo, _VerdictMemo), kind
                memos.add(memo)
                for when in moments(spec.chain):
                    calls += 1
                    assert memo.validate(spec.chain, at=when) == \
                        memo.policy.validate(spec.chain, at=when), \
                        (kind, spec.key, when)
        cached = sum(len(memo._verdicts) for memo in memos)
        # The comparisons above were answered from the memo, not only
        # computed into it.
        assert 0 < cached < calls

    def test_trusting_memo_shared_per_anchor_set(self, context):
        trusting = [spec for spec in context.specs if spec.extra_anchors]
        assert trusting
        generator = context.generator
        for spec in trusting:
            assert generator._policy_for("trusting", spec) is \
                generator._policy_for("trusting", spec)


class TestWrapping:
    @pytest.mark.parametrize("policy_type",
                             [BrowserPolicy, StrictPresentedChainPolicy])
    def test_revocation_free_policy_is_wrapped(self, registry, policy_type):
        policy = policy_type(registry)
        memo = memoize_verdicts(policy)
        assert isinstance(memo, _VerdictMemo)
        assert memo.policy is policy
        assert memo.name == policy.name

    def test_permissive_policy_is_returned_as_is(self):
        policy = PermissivePolicy()
        assert memoize_verdicts(policy) is policy
