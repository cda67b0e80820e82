"""Distinguished names (X.501) with RFC 4514 string parsing and formatting.

The paper's analysis pipeline operates on the ``issuer`` and ``subject``
fields exactly as Zeek renders them: RFC 4514 strings such as
``CN=R3,O=Let's Encrypt,C=US``.  This module provides a structured
:class:`DistinguishedName` so that matching, normalisation, and attribute
extraction do not devolve into ad hoc string surgery.

Only the escaping rules that actually appear in RFC 4514 strings are
implemented: backslash escapes for the special characters ``, + " \\ < > ;``,
leading ``#``/space and trailing space, and two-hex-digit escapes.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from operator import methodcaller
from typing import Iterable, Iterator, Mapping, Sequence

from ..obs import instruments
from ..obs.cache import BoundedLRU

__all__ = [
    "AttributeTypeAndValue",
    "DistinguishedName",
    "DNParseError",
    "OID_NAMES",
]

#: Attribute types commonly found in certificate subject/issuer fields,
#: mapped from dotted OIDs to their RFC 4514 short names.
OID_NAMES: Mapping[str, str] = {
    "2.5.4.3": "CN",
    "2.5.4.6": "C",
    "2.5.4.7": "L",
    "2.5.4.8": "ST",
    "2.5.4.9": "STREET",
    "2.5.4.10": "O",
    "2.5.4.11": "OU",
    "2.5.4.5": "serialNumber",
    "2.5.4.12": "title",
    "2.5.4.42": "GN",
    "2.5.4.4": "SN",
    "0.9.2342.19200300.100.1.25": "DC",
    "0.9.2342.19200300.100.1.1": "UID",
    "1.2.840.113549.1.9.1": "emailAddress",
}

_SPECIALS = {",", "+", '"', "\\", "<", ">", ";"}


class DNParseError(ValueError):
    """Raised when an RFC 4514 string cannot be parsed."""


@dataclass(frozen=True, slots=True)
class AttributeTypeAndValue:
    """A single ``type=value`` assertion inside a relative distinguished name."""

    attr_type: str
    value: str

    def rfc4514(self) -> str:
        """Render as an RFC 4514 ``type=value`` string with escaping."""
        return f"{self.attr_type}={_escape_value(self.value)}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.rfc4514()


def _hex_escape(char: str) -> str:
    """Escape one character as RFC 4514 hex pairs over its UTF-8 bytes."""
    return "".join(f"\\{byte:02x}" for byte in char.encode("utf-8"))


def _needs_hex_escape(char: str) -> bool:
    # Control characters and non-ASCII whitespace would be mangled by
    # whitespace trimming (or are plain unprintable); hex-escape them.
    code = ord(char)
    return code < 0x20 or code == 0x7F or (char.isspace() and char != " ")


def _escape_value(value: str) -> str:
    # Printable text (nothing to hex-escape) with no special character,
    # leading ``#`` or space, or trailing space is its own escape.
    if (value.isprintable() and _SPECIALS.isdisjoint(value)
            and value[:1] not in ("#", " ") and value[-1:] != " "):
        return value
    return _escape_chars(value)


def _escape_chars(value: str) -> str:
    out: list[str] = []
    for index, char in enumerate(value):
        if char in _SPECIALS:
            out.append("\\" + char)
        elif char == "#" and index == 0:
            out.append("\\#")
        elif char == " " and index in (0, len(value) - 1):
            out.append("\\ ")
        elif _needs_hex_escape(char):
            out.append(_hex_escape(char))
        else:
            out.append(char)
    return "".join(out)


def _unescape_value(raw: str) -> str:
    out = bytearray()
    i = 0
    while i < len(raw):
        char = raw[i]
        if char == "\\":
            if i + 1 >= len(raw):
                raise DNParseError(f"dangling escape in value: {raw!r}")
            nxt = raw[i + 1]
            if nxt in _SPECIALS or nxt in ("#", " ", "="):
                out.extend(nxt.encode("utf-8"))
                i += 2
            else:
                hex_pair = raw[i + 1 : i + 3]
                if len(hex_pair) == 2 and all(c in "0123456789abcdefABCDEF" for c in hex_pair):
                    out.append(int(hex_pair, 16))
                    i += 3
                else:
                    raise DNParseError(f"invalid escape \\{nxt} in value: {raw!r}")
        else:
            out.extend(char.encode("utf-8"))
            i += 1
    try:
        return out.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DNParseError(f"hex escapes do not decode as UTF-8: {raw!r}") from exc


def _split_unescaped(raw: str, separator: str) -> list[str]:
    """Split ``raw`` on ``separator`` characters that are not backslash-escaped."""
    parts: list[str] = []
    current: list[str] = []
    i = 0
    while i < len(raw):
        char = raw[i]
        if char == "\\" and i + 1 < len(raw):
            current.append(char)
            current.append(raw[i + 1])
            i += 2
            continue
        if char == separator:
            parts.append("".join(current))
            current = []
        else:
            current.append(char)
        i += 1
    parts.append("".join(current))
    return parts


class DistinguishedName:
    """An ordered sequence of attribute assertions forming an X.501 name.

    Instances are immutable, hashable, and compare by their normalised
    attribute sequence, so they can key dictionaries that join certificates
    by issuer/subject (the core operation of the paper's chain analyzer).
    """

    __slots__ = ("_attrs", "_hash", "_normalized", "_sorted_normalized",
                 "_rfc4514")

    def __init__(self, attrs: Iterable[AttributeTypeAndValue]):
        self._attrs: tuple[AttributeTypeAndValue, ...] = tuple(attrs)
        self._hash = hash(self._attrs)
        # Lazy caches: name matching is the hottest operation in the whole
        # pipeline (hundreds of millions of calls over a year of logs).
        self._normalized: tuple[tuple[str, str], ...] | None = None
        self._sorted_normalized: tuple[tuple[str, str], ...] | None = None
        self._rfc4514: str | None = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[str, str]]) -> "DistinguishedName":
        """Build from ``(attr_type, value)`` pairs, most-specific first."""
        return cls(AttributeTypeAndValue(t, v) for t, v in pairs)

    @classmethod
    def parse(cls, text: str) -> "DistinguishedName":
        """Parse an RFC 4514 string such as ``CN=R3,O=Let's Encrypt,C=US``.

        Multi-valued RDNs (``+``-joined) are flattened in order; Zeek does the
        same when rendering issuer/subject fields.

        Results are memoized in a bounded LRU keyed by the interned input
        string: a campus corpus repeats the same few thousand issuer and
        subject strings across millions of rows, so almost every call
        after warm-up is a dict hit instead of a character-level parse.
        Instances are immutable, so sharing one object per distinct input
        is safe (and makes repeat-name comparisons pointer-fast).
        """
        text = sys.intern(text)
        cached = _PARSE_CACHE.get(text)
        if cached is not None:
            return cached
        parsed = cls._parse_uncached(text)
        _PARSE_CACHE.put(text, parsed)
        return parsed

    @classmethod
    def _parse_uncached(cls, text: str) -> "DistinguishedName":
        plain = "\\" not in text and _SURROGATE.search(text) is None
        return cls(_parse_attributes(text, plain=plain))

    # -- accessors ---------------------------------------------------------

    @property
    def attributes(self) -> tuple[AttributeTypeAndValue, ...]:
        return self._attrs

    def get(self, attr_type: str) -> str | None:
        """Return the first value for ``attr_type`` (case-insensitive type match)."""
        wanted = attr_type.lower()
        for atv in self._attrs:
            if atv.attr_type.lower() == wanted:
                return atv.value
        return None

    def get_all(self, attr_type: str) -> list[str]:
        wanted = attr_type.lower()
        return [a.value for a in self._attrs if a.attr_type.lower() == wanted]

    @property
    def common_name(self) -> str | None:
        return self.get("CN")

    @property
    def organization(self) -> str | None:
        return self.get("O")

    @property
    def organizational_unit(self) -> str | None:
        return self.get("OU")

    @property
    def country(self) -> str | None:
        return self.get("C")

    def is_empty(self) -> bool:
        return not self._attrs

    # -- rendering / comparison --------------------------------------------

    def rfc4514(self) -> str:
        """Render in RFC 4514 order (as stored; Zeek stores most-specific first).

        Memoized per instance: generation renders every certificate's
        subject and issuer repeatedly (plan ids, fingerprints, x509 rows,
        SPKI seeds), and instances are shared via the parse memo, so the
        character-level escape walk runs once per distinct name object.
        """
        if self._rfc4514 is None:
            self._rfc4514 = ",".join(a.rfc4514() for a in self._attrs)
        return self._rfc4514

    def normalized(self) -> tuple[tuple[str, str], ...]:
        """Case-folded, order-preserving key used for issuer–subject matching.

        RFC 5280 name matching is case-insensitive for printable strings;
        folding here prevents spurious mismatches between CAs that render
        the same name with different capitalisation.
        """
        if self._normalized is None:
            self._normalized = tuple(
                (a.attr_type.upper(), a.value.casefold())
                for a in self._attrs)
        return self._normalized

    def _sorted_key(self) -> tuple[tuple[str, str], ...]:
        if self._sorted_normalized is None:
            key = tuple(sorted(self.normalized()))
            # Intern the key: thousands of certificates repeat the same
            # issuer DN, and downstream indexes (interception name keys,
            # cross-sign disclosures, leaf-like counts) use these tuples as
            # dict keys — sharing one object per distinct name makes those
            # hash-compares pointer-equal fast paths and stops each parsed
            # DN from carrying its own copy.  The table is bounded by the
            # corpus's distinct-name cardinality (~50k in the paper).
            self._sorted_normalized = _SORTED_KEY_INTERN.setdefault(key, key)
        return self._sorted_normalized

    def sorted_key(self) -> tuple[tuple[str, str], ...]:
        """Order-insensitive normalized key (interned).

        Equal for any two DNs that :meth:`matches` treats as the same
        name, which makes it the canonical dict key for name-indexed
        structures (issuer counts, disclosure maps, interception keys).
        """
        return self._sorted_key()

    def matches(self, other: "DistinguishedName") -> bool:
        """RFC 5280-style name match: same attributes ignoring case and order."""
        return self._sorted_key() == other._sorted_key()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DistinguishedName):
            return NotImplemented
        return self._attrs == other._attrs

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[AttributeTypeAndValue]:
        return iter(self._attrs)

    def __len__(self) -> int:
        return len(self._attrs)

    def __str__(self) -> str:
        return self.rfc4514()

    def __repr__(self) -> str:
        return f"DistinguishedName({self.rfc4514()!r})"


#: Shared storage for sorted normalized keys; see ``_sorted_key``.
_SORTED_KEY_INTERN: dict[tuple, tuple] = {}

#: DN-parse memo.  65,536 entries × two names per certificate comfortably
#: covers the paper's 5,047 issuer / ~50k distinct subject universe while
#: bounding memory on adversarial input; hit rates are observable via
#: ``repro_dn_parse_cache_lookups_total`` (docs/PERFORMANCE.md).
_PARSE_CACHE: BoundedLRU[str, DistinguishedName] = BoundedLRU(
    65536,
    hits=instruments.DN_PARSE_CACHE_HIT,
    misses=instruments.DN_PARSE_CACHE_MISS)


def _strip_unescaped_spaces(raw: str) -> str:
    """Strip surrounding spaces, preserving a trailing backslash-escaped one."""
    raw = raw.lstrip(" ")
    while raw.endswith(" "):
        # Count the backslashes before the final space; an odd number means
        # the space is escaped and must stay.
        backslashes = 0
        for char in reversed(raw[:-1]):
            if char != "\\":
                break
            backslashes += 1
        if backslashes % 2 == 1:
            break
        raw = raw[:-1]
    return raw


def _find_unescaped_equals(raw: str) -> int:
    i = 0
    while i < len(raw):
        if raw[i] == "\\":
            i += 2
            continue
        if raw[i] == "=":
            return i
        i += 1
    return -1


#: A lone surrogate: ``_unescape_value`` cannot encode it as UTF-8.
_SURROGATE = re.compile("[\ud800-\udfff]")

#: A parse's string operations: split, strip spaces, find the ``=``,
#: unescape a value.  Text with no backslash and no lone surrogate
#: (almost every name) escapes nothing, so plain string methods do
#: exactly what the per-character walks do, errors included (``str``
#: returns a value as it is).
_PLAIN_OPS = (str.split, methodcaller("strip", " "), methodcaller("find", "="),
              str)
_ESCAPED_OPS = (_split_unescaped, _strip_unescaped_spaces,
                _find_unescaped_equals, _unescape_value)


def _parse_attributes(text: str, *, plain: bool
                      ) -> list[AttributeTypeAndValue]:
    split, strip, find, unescape = _PLAIN_OPS if plain else _ESCAPED_OPS
    text = strip(text.strip("\r\n"))
    if not text:
        return []
    attrs: list[AttributeTypeAndValue] = []
    for rdn in split(text, ","):
        for atv in split(rdn, "+"):
            atv = strip(atv)
            if not atv:
                raise DNParseError(f"empty RDN component in {text!r}")
            eq = find(atv)
            if eq < 0:
                raise DNParseError(f"missing '=' in RDN component {atv!r}")
            attr_type = atv[:eq].strip()
            if not attr_type:
                raise DNParseError(f"empty attribute type in {atv!r}")
            attr_type = OID_NAMES.get(attr_type, attr_type)
            value = unescape(strip(atv[eq + 1 :]))
            attrs.append(AttributeTypeAndValue(attr_type, value))
    return attrs
