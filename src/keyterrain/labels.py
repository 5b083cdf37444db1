"""Address sets: exact IPs and CIDR prefixes with containment tests."""

from __future__ import annotations

import ipaddress
from typing import Iterable, Sequence

import numpy as np

from .flows import packed_ipv4


class AddressSet:
    """A set of IP addresses and/or CIDR prefixes.

    Membership covers both exact addresses and prefix containment.

    A query in canonical dotted-quad IPv4 text (see ``flows.packed_ipv4``)
    skips text parsing: it is its own canonical form, so it is looked up in
    the exact addresses as is, and only a set with prefixes builds its
    address, from the packed bytes, for the prefix test. Every other query
    (IPv6, padded or leading-zero text, an int) is parsed by ``ipaddress``
    and gets its answer, or its exception, from there.
    """

    def __init__(self, entries: Iterable[str]):
        self.addresses: set[str] = set()
        self.networks: list = []
        for raw in entries:
            self._add(raw)

    def _add(self, raw: str) -> None:
        entry = raw.strip()
        if not entry:
            return
        try:
            self.addresses.add(str(ipaddress.ip_address(entry)))
        except ValueError:
            self.networks.append(ipaddress.ip_network(entry, strict=False))

    def __contains__(self, ip: str) -> bool:
        packed = packed_ipv4(ip)
        if packed is None:
            addr = ipaddress.ip_address(ip)
            found = str(addr) in self.addresses
        else:
            found = ip in self.addresses
            if found or not self.networks:
                return found
            addr = ipaddress.IPv4Address(packed)
        return found or any(addr in net for net in self.networks)

    def __len__(self) -> int:
        return len(self.addresses) + len(self.networks)

    def mask(self, ips: Sequence[str]) -> np.ndarray:
        """Boolean membership array aligned with ``ips``."""
        return np.fromiter((ip in self for ip in ips), dtype=bool, count=len(ips))

    @classmethod
    def from_file(cls, path) -> "AddressSet":
        """Load one IP or CIDR per line; ``#`` starts a comment.

        A file with no entries is an error: an empty label set makes every
        F1 meaningless, and an empty prefix set matches nothing. A malformed
        entry is reported with the file and its line number.
        """
        found = cls(())
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    found._add(line.split("#", 1)[0])
                except ValueError as exc:
                    raise ValueError(f"address file {path} line {line_no}: {exc}") from None
        if not found:
            raise ValueError(f"address file {path} has no entries")
        return found
