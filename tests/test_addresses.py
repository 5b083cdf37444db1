"""Property tests of address handling: the canonical-IPv4 test, the flow
parser's IP canonicalization and AddressSet membership, each against
``ipaddress`` itself."""

import ipaddress

from hypothesis import example, given, settings
from hypothesis import strategies as st

import keyterrain.flows as flows_module
from keyterrain.flows import packed_ipv4
from keyterrain.labels import AddressSet

from instances import AddressSetByIpaddress, _canonical_ip_by_stripped_text

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, database=None)

# Most addresses fall in 10.0.0.0/20 or 2001:db8::/116, so prefixes nest,
# overlap and touch, and queries land inside, on and just outside their edges.
V4_NEAR = 10 << 24
V6_NEAR = int(ipaddress.IPv6Address("2001:db8::"))

v4_ints = st.one_of(
    st.integers(0, 2**12 - 1).map(lambda v: V4_NEAR + v),
    st.integers(0, 2**32 - 1),
    st.sampled_from((0, 2**32 - 1, V4_NEAR - 1, V4_NEAR + 2**12)),
)
v6_ints = st.one_of(
    st.integers(0, 2**12 - 1).map(lambda v: V6_NEAR + v),
    st.integers(0, 2**128 - 1),
    st.sampled_from((0, 1, 2**128 - 1, 0xFFFF_0000_0000 + V4_NEAR)),
)


def v4_text(value: int) -> str:
    return str(ipaddress.IPv4Address(value))


def v6_prefix(value: int, length: int) -> str:
    return f"{ipaddress.IPv6Address(value)}/{length}"


def adjacent_v4_prefixes(base: int, length: int) -> list[str]:
    size = 2 ** (32 - length)
    first = base - base % size
    return [f"{v4_text(first)}/{length}", f"{v4_text((first + size) % 2**32)}/{length}"]


entries = st.lists(
    st.one_of(
        v4_ints.map(v4_text),
        v6_ints.map(lambda v: str(ipaddress.IPv6Address(v))),
        st.builds(lambda v, n: f"{v4_text(v)}/{n}", v4_ints, st.integers(0, 32)),
        st.builds(lambda v, n: f"{v4_text(v)}/{n}", v4_ints, st.integers(20, 32)),
        st.builds(adjacent_v4_prefixes, v4_ints, st.integers(20, 32)).map(",".join),
        st.builds(v6_prefix, v6_ints, st.sampled_from((0, 64, 96, 116, 120, 128))),
    ),
    max_size=8,
).map(lambda items: [e for item in items for e in item.split(",")])

FULLWIDTH = str.maketrans("0123456789", "０１２３４５６７８９")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")


def leading_zeros(value: int, widths: list[int]) -> str:
    octets = ipaddress.IPv4Address(value).packed
    return ".".join(f"{o:0{w}d}" for o, w in zip(octets, widths))


def v4_spellings(value: int):
    text = v4_text(value)
    return st.sampled_from(
        (
            text,
            text.translate(FULLWIDTH),
            text.translate(ARABIC_INDIC),
            text.rsplit(".", 1)[0],  # three octets
            text + "\x00",
            "\x00" + text,
            f"::ffff:{text}",
        )
    ) | st.builds(
        leading_zeros, st.just(value), st.lists(st.integers(1, 4), min_size=4, max_size=4)
    )


def v6_spellings(value: int):
    addr = ipaddress.IPv6Address(value)
    return st.sampled_from(
        (
            addr.compressed,
            addr.exploded,
            addr.compressed.upper(),
            f"{addr.compressed}%eth0",
            f"{addr.compressed}%1",
            addr.exploded + "\x00",
        )
    )


padding = st.sampled_from(("", " ", "\t", "\n", "\xa0", "\u2003", "\x1c"))

str_queries = st.one_of(
    v4_ints.map(v4_text),
    v4_ints.flatmap(v4_spellings),
    v6_ints.flatmap(v6_spellings),
    st.tuples(padding, v4_ints.map(v4_text), padding).map("".join),
    st.sampled_from(("", "\x00", " ", "256.0.0.1", "1.2.3.4.5", "1..2.3", "not-an-ip", "\ud800")),
    st.text(alphabet="0123456789.:abcdef%", max_size=20),
)
queries = st.one_of(str_queries, v4_ints, v6_ints, st.integers(-(2**40), -1))


def outcome(call):
    """The value ``call`` returns, or the type and message of what it raises."""
    try:
        return "value", call()
    except Exception as exc:  # compared, never swallowed
        return "raise", type(exc), str(exc)


def canonical_ipv4_by_ipaddress(text):
    """The packed address when ``ipaddress`` reads ``text`` as IPv4 and
    prints it back unchanged, else None."""
    if not isinstance(text, str):
        return None
    try:
        addr = ipaddress.ip_address(text)
    except ValueError:
        return None
    return addr.packed if addr.version == 4 and str(addr) == text else None


@PROPERTY_SETTINGS
@given(query=queries)
@example(query="0.0.0.0")
@example(query="255.255.255.255")
@example(query=167772161)
def test_packed_ipv4_is_the_text_ipaddress_maps_to_itself(query):
    assert packed_ipv4(query) == canonical_ipv4_by_ipaddress(query)


@PROPERTY_SETTINGS
@given(text=str_queries)
@example(text=" 10.0.0.1")
@example(text="010.0.0.1")
@example(text="10.0.0.1\x00")
def test_parser_canonical_ip_matches_ipaddress(text):
    expected = outcome(lambda: _canonical_ip_by_stripped_text(text, {}))
    assert outcome(lambda: flows_module._canonical_ip(text)) == expected
    # the readers' table gives the same, and a failed lookup stores nothing
    table = flows_module._IpTable()
    assert outcome(lambda: table[text]) == expected
    assert table == ({text: expected[1]} if expected[0] == "value" else {})


def boundary_queries(items):
    """Addresses on and just beyond each IPv4 prefix's ends, and each entry's text."""
    found = list(items)
    for item in items:
        net = ipaddress.ip_network(item.strip(), strict=False)
        if net.version == 4:
            lo, hi = int(net.network_address), int(net.broadcast_address)
            found += [v4_text(v) for v in (lo - 1, lo, hi, hi + 1) if 0 <= v < 2**32]
    return found


@PROPERTY_SETTINGS
@given(items=entries, drawn=st.lists(queries, max_size=12), prefix_free=st.booleans())
@example(items=["0.0.0.0/0"], drawn=["10.0.0.1", "::1", 167772161, "", "1.2.3.4\x00"],
         prefix_free=False)
@example(items=["10.0.0.0/25", "10.0.0.128/25", "10.0.1.1/32"], drawn=["10.0.0.255"],
         prefix_free=False)
@example(items=["10.0.0.0/16", "10.0.4.0/22", "10.0.6.0/23"], drawn=["10.1.0.0"],
         prefix_free=False)
@example(items=["::/0", "::ffff:10.0.0.0/120"], drawn=["10.0.0.1", "::ffff:10.0.0.1"],
         prefix_free=False)
@example(items=["10.0.0.1", "::ffff:10.0.0.2"],
         drawn=["10.0.0.1", "10.0.0.2", "::ffff:10.0.0.1", "010.0.0.1", 167772161, ""],
         prefix_free=True)
def test_address_set_matches_ipaddress_oracle(items, drawn, prefix_free):
    if prefix_free:
        # exact addresses only: canonical IPv4 queries take the set-only path
        items = [item for item in items if "/" not in item]
    oracle = AddressSetByIpaddress(items)
    batch = boundary_queries(items) + drawn
    expected = [outcome(lambda: q in oracle) for q in batch]

    cold = AddressSet(items)
    assert [outcome(lambda: q in cold) for q in batch] == expected
    # a second pass over the same set must not differ
    assert [outcome(lambda: q in cold) for q in batch] == expected

    failures = [e for e in expected if e[0] == "raise"]
    mask_expected = failures[0] if failures else ("value", [e[1] for e in expected])
    for labels in (AddressSet(items), cold):
        got = outcome(lambda: labels.mask(batch))
        if got[0] == "value":
            got = "value", got[1].tolist()
        assert got == mask_expected
