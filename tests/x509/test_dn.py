"""Distinguished name parsing, formatting, and matching."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.x509 import dn as dn_module
from repro.x509.dn import (
    AttributeTypeAndValue,
    DistinguishedName,
    DNParseError,
)


class TestParse:
    def test_simple(self):
        dn = DistinguishedName.parse("CN=R3,O=Let's Encrypt,C=US")
        assert dn.common_name == "R3"
        assert dn.organization == "Let's Encrypt"
        assert dn.country == "US"
        assert len(dn) == 3

    def test_empty_string_gives_empty_dn(self):
        dn = DistinguishedName.parse("")
        assert dn.is_empty()
        assert len(dn) == 0

    def test_whitespace_around_components(self):
        dn = DistinguishedName.parse(" CN = example.com , O = Example ")
        assert dn.common_name == "example.com"
        assert dn.organization == "Example"

    def test_escaped_comma_in_value(self):
        dn = DistinguishedName.parse(r"O=GoDaddy.com\, Inc.,C=US")
        assert dn.organization == "GoDaddy.com, Inc."

    def test_escaped_plus_and_multivalued_rdn(self):
        dn = DistinguishedName.parse("CN=a+OU=b,C=US")
        assert dn.get("CN") == "a"
        assert dn.get("OU") == "b"

    def test_hex_escape(self):
        dn = DistinguishedName.parse(r"CN=a\2cb")
        assert dn.common_name == "a,b"

    def test_oid_attribute_type_mapped_to_short_name(self):
        dn = DistinguishedName.parse("2.5.4.3=example")
        assert dn.common_name == "example"

    def test_unknown_oid_preserved(self):
        dn = DistinguishedName.parse("1.2.3.4=x")
        assert dn.get("1.2.3.4") == "x"

    def test_missing_equals_raises(self):
        with pytest.raises(DNParseError):
            DistinguishedName.parse("CNexample")

    def test_empty_type_raises(self):
        with pytest.raises(DNParseError):
            DistinguishedName.parse("=value")

    def test_dangling_escape_raises(self):
        with pytest.raises(DNParseError):
            DistinguishedName.parse("CN=a\\")


class TestRender:
    def test_round_trip_simple(self):
        text = "CN=R3,O=Let's Encrypt,C=US"
        assert DistinguishedName.parse(text).rfc4514() == text

    def test_round_trip_with_specials(self):
        dn = DistinguishedName.from_pairs([("O", "GoDaddy.com, Inc."), ("C", "US")])
        again = DistinguishedName.parse(dn.rfc4514())
        assert again == dn

    def test_leading_space_escaped(self):
        dn = DistinguishedName.from_pairs([("CN", " padded ")])
        assert DistinguishedName.parse(dn.rfc4514()).common_name == " padded "

    def test_leading_hash_escaped(self):
        dn = DistinguishedName.from_pairs([("CN", "#tag")])
        assert DistinguishedName.parse(dn.rfc4514()).common_name == "#tag"


class TestMatching:
    def test_matches_is_case_insensitive(self):
        a = DistinguishedName.parse("CN=Example,O=Acme")
        b = DistinguishedName.parse("cn=example,o=ACME")
        assert a.matches(b)

    def test_matches_ignores_order(self):
        a = DistinguishedName.parse("CN=x,O=y")
        b = DistinguishedName.parse("O=y,CN=x")
        assert a.matches(b)
        assert a != b  # structural equality is order-sensitive

    def test_mismatch(self):
        a = DistinguishedName.parse("CN=x")
        b = DistinguishedName.parse("CN=y")
        assert not a.matches(b)

    def test_hashable_and_eq(self):
        a = DistinguishedName.parse("CN=x,O=y")
        b = DistinguishedName.parse("CN=x,O=y")
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_get_all(self):
        dn = DistinguishedName.parse("OU=a,OU=b,CN=x")
        assert dn.get_all("OU") == ["a", "b"]

    def test_get_missing_returns_none(self):
        assert DistinguishedName.parse("CN=x").organization is None


_VALUE_ALPHABET = st.text(
    alphabet=st.characters(codec="utf-8", exclude_characters="\x00"),
    min_size=1, max_size=30,
)


@given(values=st.lists(_VALUE_ALPHABET, min_size=1, max_size=5))
def test_property_round_trip_any_values(values):
    """parse(render(dn)) == dn for arbitrary attribute values."""
    pairs = [("CN" if i == 0 else "OU", v) for i, v in enumerate(values)]
    dn = DistinguishedName.from_pairs(pairs)
    assert DistinguishedName.parse(dn.rfc4514()) == dn


@given(values=st.lists(_VALUE_ALPHABET, min_size=1, max_size=4))
def test_property_matches_is_reflexive(values):
    dn = DistinguishedName.from_pairs([("CN", v) for v in values])
    assert dn.matches(dn)


@given(value=_VALUE_ALPHABET)
def test_property_normalized_casefold(value):
    a = DistinguishedName.from_pairs([("CN", value)])
    b = DistinguishedName.from_pairs([("CN", value.upper())])
    assert a.matches(b)


# -- fast paths against the per-character walks --------------------------------

#: RFC 4514 syntax, escapes (valid, invalid, dangling, non-UTF-8 hex),
#: whitespace the walks treat specially, and a lone surrogate.
_DN_TOKENS = st.sampled_from([
    "CN", "O", "2.5.4.3", "=", ",", "+", " ", "  ", "#", '"', "<", ">", ";",
    "\\", "\\,", "\\ ", "\\#", "\\=", "\\2c", "\\c3\\a9", "\\ff", "\\zz",
    "\\4", "\r", "\n", "\t", "\x00", "\x7f", "\xa0", "\u2028", "\u200b",
    "\xe9", "\xdf", "x", "a b", "\ud800",
])
_DN_VALUE = st.lists(_DN_TOKENS, max_size=6).map("".join)
#: ``type=value`` pairs joined into RDNs, so values (where the walks
#: unescape) are reached as often as the syntax errors before them.
_DN_STRUCTURED = st.builds(
    str.join, st.sampled_from([",", "+", " , "]),
    st.lists(st.builds("{}={}".format,
                       st.sampled_from(["CN", " O ", "2.5.4.3", "", "\t"]),
                       _DN_VALUE),
             min_size=1, max_size=4))
_DN_TEXT = st.one_of(
    _DN_STRUCTURED,
    st.lists(_DN_TOKENS, max_size=16).map("".join),
    st.text(max_size=24),
)


def _outcome(function, *args, **kwargs):
    """A call's result, or the type and message of what it raised."""
    try:
        return "ok", function(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - compared, not handled
        return "raised", type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(value=_DN_TEXT)
@example(value="")
@example(value="#x")
@example(value="x ")
@example(value="a\u2028b")
@example(value="\u200b")
@example(value="\ud800")
def test_property_escape_fast_path_equals_character_walk(value):
    assert dn_module._escape_value(value) == dn_module._escape_chars(value)


@settings(max_examples=400, deadline=None)
@given(text=_DN_TEXT)
@example(text="CN=\ud800")
@example(text=" CN = a\tb ,O=\xa0\r\n")
def test_property_parse_fast_path_equals_character_walk(text):
    """Same attributes, or the same error, for every input; the plain
    path is only taken where it is exact."""
    reference = _outcome(dn_module._parse_attributes, text, plain=False)
    if "\\" not in text and dn_module._SURROGATE.search(text) is None:
        assert _outcome(dn_module._parse_attributes, text,
                        plain=True) == reference
    parsed = _outcome(DistinguishedName._parse_uncached, text)
    if reference[0] == "ok":
        assert parsed == ("ok", DistinguishedName(reference[1]))
    else:
        assert parsed == reference

