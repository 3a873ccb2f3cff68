"""Seeded property tests for ``stable_encode`` (no hypothesis dependency).

The encoding is the root of every digest and signature in the system, so
its contract gets fuzzed directly with plain seeded generators:

* determinism, including across mapping insertion orders (recursively);
* injectivity over a fuzzed corpus — distinct values ⇒ distinct encodings;
* the format is *self-delimiting*: a reference decoder reconstructs every
  nested structure exactly (types included) and knows where each value
  ends, so concatenated encodings split unambiguously;
* unsupported types fail with a clear ``TypeError``;
* a pre-encoded fragment (``Encoded``) at any position contributes exactly
  the bytes of the value it was built from;
* the type-dispatched fast path is byte-identical to the ``isinstance``
  ladder it sits in front of (kept here as ``ladder_encode``), hands every
  non-exact type back to that ladder, and three literal digests pin the
  format itself.
"""

from __future__ import annotations

import enum
import hashlib
import random
from collections import OrderedDict, defaultdict, namedtuple
from collections.abc import Mapping
from types import MappingProxyType
from typing import Any, Tuple

import pytest

from repro.bft.quorum import certificate_payload
from repro.core.transaction import TxnPayload
from repro.crypto.hashing import Encoded, stable_encode


# ---------------------------------------------------------------------------
# seeded value generator
# ---------------------------------------------------------------------------


def random_value(rng: random.Random, depth: int = 0) -> Any:
    """One random encodable value; nesting shrinks with depth."""
    scalar_makers = (
        lambda: None,
        lambda: rng.random() < 0.5,
        lambda: rng.randint(-(2**70), 2**70),
        lambda: rng.choice((-1.5, 0.0, 3.141592653589793, 1e300, -0.0)),
        lambda: "".join(rng.choice("abcøé∂-µ🦀 ") for _ in range(rng.randint(0, 12))),
        lambda: bytes(rng.randrange(256) for _ in range(rng.randint(0, 12))),
    )
    if depth >= 3 or rng.random() < 0.6:
        return rng.choice(scalar_makers)()
    if rng.random() < 0.5:
        return [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    return {
        "".join(rng.choice("klmnop") for _ in range(rng.randint(1, 6))): random_value(
            rng, depth + 1
        )
        for _ in range(rng.randint(0, 4))
    }


def reorder_mappings(value: Any, rng: random.Random) -> Any:
    """A structurally equal copy with every mapping's insertion order shuffled."""
    if isinstance(value, dict):
        items = [(key, reorder_mappings(item, rng)) for key, item in value.items()]
        rng.shuffle(items)
        return dict(items)
    if isinstance(value, list):
        return [reorder_mappings(item, rng) for item in value]
    return value


def canonical(value: Any) -> Tuple:
    """A type-tagged canonical form: equal iff stable_encode must be equal."""
    if isinstance(value, bool):
        return ("bool", value)
    if value is None:
        return ("none",)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", repr(value))
    if isinstance(value, str):
        return ("str", value)
    if isinstance(value, bytes):
        return ("bytes", value)
    if isinstance(value, list):
        return ("list", tuple(canonical(item) for item in value))
    assert isinstance(value, dict)
    return (
        "map",
        tuple(sorted((key, canonical(item)) for key, item in value.items())),
    )


# ---------------------------------------------------------------------------
# reference decoder (asserts the format is self-delimiting)
# ---------------------------------------------------------------------------


def decode(data: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Decode one value starting at ``offset``; returns (value, next_offset)."""
    tag = data[offset : offset + 1]
    offset += 1
    if tag == b"N":
        return None, offset
    if tag in (b"T", b"F"):
        return tag == b"T", offset
    if tag in (b"I", b"D", b"S", b"B"):
        length = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        payload = data[offset : offset + length]
        offset += length
        if tag == b"I":
            return int(payload.decode("ascii")), offset
        if tag == b"D":
            return float(payload.decode("ascii")), offset
        if tag == b"S":
            return payload.decode("utf-8"), offset
        return payload, offset
    if tag == b"L":
        count = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        items = []
        for _ in range(count):
            item, offset = decode(data, offset)
            items.append(item)
        return items, offset
    if tag == b"M":
        count = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        mapping = {}
        for _ in range(count):
            key, offset = decode(data, offset)
            item, offset = decode(data, offset)
            mapping[key] = item
        return mapping, offset
    raise AssertionError(f"unknown tag {tag!r} at offset {offset - 1}")


class TestDeterminism:
    def test_encoding_is_deterministic(self):
        rng = random.Random(0xD0)
        for _ in range(300):
            value = random_value(rng)
            assert stable_encode(value) == stable_encode(value)

    def test_mapping_insertion_order_is_irrelevant_recursively(self):
        rng = random.Random(0xD1)
        for _ in range(300):
            value = random_value(rng)
            shuffled = reorder_mappings(value, rng)
            assert stable_encode(value) == stable_encode(shuffled)


class TestInjectivity:
    def test_distinct_values_encode_distinctly(self):
        rng = random.Random(0xD2)
        by_canonical = {}
        encodings = {}
        for _ in range(800):
            value = random_value(rng)
            form = canonical(value)
            encoded = stable_encode(value)
            if form in by_canonical:
                # Equal canonical forms must agree (determinism).
                assert encodings[form] == encoded
                continue
            # A new canonical form must get a never-seen encoding.
            assert encoded not in set(encodings.values()), (
                f"collision: {value!r} vs {by_canonical.get(form)!r}"
            )
            by_canonical[form] = value
            encodings[form] = encoded

    def test_classic_confusables(self):
        pairs = (
            (1, True),
            (0, False),
            (0, None),
            ("1", 1),
            (b"x", "x"),
            (1.0, 1),
            ([], {}),
            ([""], [b""]),
            ([[1], []], [[], [1]]),
            ({"a": 1, "b": 2}, {"a": 2, "b": 1}),
        )
        for left, right in pairs:
            assert stable_encode(left) != stable_encode(right)


class TestSelfDelimitingRoundTrip:
    def test_nested_structures_round_trip_exactly(self):
        rng = random.Random(0xD3)
        for _ in range(300):
            value = random_value(rng)
            encoded = stable_encode(value)
            decoded, consumed = decode(encoded)
            assert consumed == len(encoded), "encoding is not self-delimiting"
            # Key order inside mappings is canonicalised by the encoding, so
            # compare canonical forms (which are insertion-order blind).
            assert canonical(decoded) == canonical(value)

    def test_concatenated_encodings_split_unambiguously(self):
        rng = random.Random(0xD4)
        for _ in range(100):
            first, second = random_value(rng), random_value(rng)
            blob = stable_encode(first) + stable_encode(second)
            decoded_first, offset = decode(blob)
            decoded_second, end = decode(blob, offset)
            assert end == len(blob)
            assert canonical(decoded_first) == canonical(first)
            assert canonical(decoded_second) == canonical(second)


class TestUnsupportedTypes:
    @pytest.mark.parametrize(
        "value",
        [object(), {1, 2}, frozenset(), complex(1, 2), bytearray(b"x"), range(3)],
        ids=["object", "set", "frozenset", "complex", "bytearray", "range"],
    )
    def test_unsupported_value_raises_clear_type_error(self, value):
        with pytest.raises(TypeError, match="cannot stably encode"):
            stable_encode(value)

    def test_non_string_mapping_keys_raise_clear_type_error(self):
        with pytest.raises(TypeError, match="mapping keys must be str"):
            stable_encode({1: "x"})
        with pytest.raises(TypeError, match="mapping keys must be str"):
            stable_encode({"ok": {b"bad": 1}})


# ---------------------------------------------------------------------------
# pre-encoded fragments
# ---------------------------------------------------------------------------


def with_fragments(value: Any, rng: random.Random) -> Any:
    """``value`` with sub-values at random positions replaced by their fragment."""
    if rng.random() < 0.3:
        return Encoded.of(value)
    if isinstance(value, dict):
        return {key: with_fragments(item, rng) for key, item in value.items()}
    if isinstance(value, list):
        return [with_fragments(item, rng) for item in value]
    return value


class TestFragments:
    def test_a_fragment_encodes_as_the_value_it_was_built_from(self):
        rng = random.Random(0xF0)
        for _ in range(300):
            value = random_value(rng)
            spliced = stable_encode(with_fragments(value, rng))
            assert spliced == stable_encode(value)
            decoded, consumed = decode(spliced)
            assert consumed == len(spliced)
            assert canonical(decoded) == canonical(value)

    def test_fragments_nest(self):
        inner = Encoded.of({"k": [1, b"x"]})
        outer = Encoded.of({"inner": inner, "n": None})
        assert stable_encode([outer]) == stable_encode([{"inner": {"k": [1, b"x"]}, "n": None}])

    @pytest.mark.parametrize("data", ["S", bytearray(b"N"), None, 7, [78]], ids=repr)
    def test_only_bytes_can_be_wrapped(self, data):
        with pytest.raises(TypeError, match="a fragment wraps bytes"):
            Encoded(data)

    def test_only_the_exact_fragment_type_is_spliced(self):
        class Lookalike:
            data = b"N"

        class Subclass(Encoded):
            pass

        for value in (Lookalike(), Subclass(b"N")):
            with pytest.raises(TypeError, match="cannot stably encode"):
                stable_encode([value])


# ---------------------------------------------------------------------------
# fast path vs the ladder
# ---------------------------------------------------------------------------


def ladder_encode(value: Any) -> bytes:
    """The encoder as it was before the type dispatch: the format's reference."""
    out = bytearray()
    _ladder_into(value, out)
    return bytes(out)


def _ladder_into(value: Any, out: bytearray) -> None:
    if value is None:
        out += b"N"
    elif isinstance(value, bool):
        out += b"T" if value else b"F"
    elif isinstance(value, int):
        encoded = str(value).encode("ascii")
        out += b"I" + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, float):
        encoded = repr(value).encode("ascii")
        out += b"D" + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, str):
        encoded = value.encode("utf-8")
        out += b"S" + len(encoded).to_bytes(4, "big") + encoded
    elif isinstance(value, bytes):
        out += b"B" + len(value).to_bytes(4, "big") + value
    elif isinstance(value, (list, tuple)):
        out += b"L" + len(value).to_bytes(4, "big")
        for item in value:
            _ladder_into(item, out)
    elif isinstance(value, Mapping):
        items = sorted(value.items(), key=lambda kv: kv[0])
        out += b"M" + len(items).to_bytes(4, "big")
        for key, item in items:
            if not isinstance(key, str):
                raise TypeError(f"mapping keys must be str, got {type(key).__name__}")
            _ladder_into(key, out)
            _ladder_into(item, out)
    else:
        raise TypeError(f"cannot stably encode values of type {type(value).__name__}")


class Colour(enum.IntEnum):
    RED = 1
    BLUE = 7


class Label(str):
    """A ``str`` subclass: exact-type dispatch must not claim it."""


class Stack(list):
    """A ``list`` subclass."""


class TestFastPathMatchesTheLadder:
    @pytest.mark.parametrize("seed", [0xD0, 0xD1, 0xD2, 0xD3, 0xD4])
    def test_generated_values_encode_byte_for_byte(self, seed):
        rng = random.Random(seed)
        for _ in range(300):
            value = random_value(rng)
            assert stable_encode(value) == ladder_encode(value)
            shuffled = reorder_mappings(value, rng)
            assert stable_encode(shuffled) == ladder_encode(value)

    @pytest.mark.parametrize(
        "value",
        [
            [True, False, 1, 0],
            {"flag": True, "count": 1, "nothing": None, "ratio": 0.5},
            [Colour.RED, {"colour": Colour.BLUE}],
            [Label("x"), {Label("key"): Label("value")}, {"a": 1, Label("b"): 2}],
            OrderedDict([("b", 1), ("a", [2, (3, b"4")])]),
            MappingProxyType({"z": "ø", "a": {"nested": ()}}),
            defaultdict(list, {"b": [1], "a": []}),
            [namedtuple("Pair", "left right")(1, b"r"), Stack([3, "4"])],
            (1, (2, [3, ("4", b"5")])),
            2**200,
            -(2**200),
            {"é": 1, "e": 2, "z": 3, "🦀": 4},
        ],
        ids=[
            "bools-beside-ints", "scalars-in-a-dict", "int-enum", "str-subclass",
            "ordered-dict", "mapping-proxy", "default-dict", "sequence-subclasses",
            "nested-tuples", "big-int",
            "big-negative-int", "non-ascii-keys",
        ],
    )
    def test_values_the_fast_path_hands_to_the_fallback(self, value):
        assert stable_encode(value) == ladder_encode(value)

    def test_bool_and_int_stay_distinct_inside_int_typed_slots(self):
        assert stable_encode(["commit", True, 0]) != stable_encode(["commit", 1, False])
        assert stable_encode({"view": True}) == b"M\x00\x00\x00\x01S\x00\x00\x00\x04viewT"

    @pytest.mark.parametrize(
        "value, message",
        [
            ({1: "x"}, "mapping keys must be str, got int"),
            ({"ok": {b"bad": 1}}, "mapping keys must be str, got bytes"),
            ({None: 1}, "mapping keys must be str, got NoneType"),
            (MappingProxyType({1: "x"}), "mapping keys must be str, got int"),
            ({"a": 1, 2: "b"}, "not supported between instances"),
        ],
        ids=["int-key", "nested-bytes-key", "none-key", "proxy-int-key", "mixed-keys"],
    )
    def test_bad_keys_raise_the_same_type_error(self, value, message):
        with pytest.raises(TypeError, match=message):
            ladder_encode(value)
        with pytest.raises(TypeError, match=message):
            stable_encode(value)

    def test_pinned_digests(self):
        def digest(value):
            return hashlib.sha256(stable_encode(value)).hexdigest()

        assert digest(certificate_payload(3, 1234, bytes(range(32)))) == (
            "add855f7054f43243137d0c336759683b5f21d9d6f9c87e6bd189c1eb542ce76"
        )
        txn = TxnPayload(
            "client-7#42",
            reads={"key-0001": 5, "key-0002": -1},
            writes={"key-0003": b"value", "clé-ø": b"\x00\xff"},
            client="client-7",
        )
        assert digest(txn.payload()) == (
            "6369d56156f2b9a77b48f34094dbbe8cd162b6b6c9db90d8613e5992fc6b3723"
        )
        nested = {"ø": {"🦀": [1, None, True, 2.5], "é": {"b": b"", "a": ""}}, "a": [-1, [], {}]}
        assert digest(nested) == (
            "e7d4504db10c0a2153c90df7e9ded1fed91eeebc6984b6693037b76ffd33d51a"
        )
