"""Seeded synthetic flow exports, label files and local prefixes for each workload.

Everything here is derived from ``(workload, seed)`` alone, so one seed always
gives byte-identical files. The generator keeps its own tuples, which the
output checks in ``reference.py`` compare the program's results against.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASE_TS = 1_600_000_000_000
HEADER = "start_ts,end_ts,src_ip,dst_ip,src_port,dst_port\n"

# Ports that make up the frequent (retained) port pairs; anything drawn from
# the ephemeral range forms a pair that is almost never repeated.
SERVICE_PORTS = (22, 25, 53, 80, 88, 123, 135, 137, 139, 389, 443, 445, 636, 993,
                 1433, 3306, 3389, 5432, 5985, 8080, 8443, 9200)


@dataclass(frozen=True)
class Workload:
    """Input properties of one workload and the CLI settings it runs with."""

    name: str
    why: str
    flows: int                # distinct flows before re-exported duplicates
    ips: int                  # size of the IP universe
    skew: float               # Zipf exponent of the endpoint popularity
    servers: int              # IPs that receive the service traffic
    service_share: float      # share of flows that go to a server
    pairs: int                # frequent (src_port, dst_port) pairs
    ephemeral_share: float    # share of flows on a one-off ephemeral port pair
    duplicate_share: float    # re-exported copies per distinct flow, on average
    shuffled: bool            # export ordered by end time instead of start time
    critical: int             # labelled servers (the most popular ones)
    decoys: int               # labelled pure sources no ranking can call critical
    pair_fraction: float      # learn/baseline --pair-fraction
    learn_iterations: int     # learn --max-iterations
    baseline_tolerance: float
    baseline_iterations: int
    sample_interval: int      # stream --sample-interval (0: end-of-stream only)
    top_k: int = 100
    local_prefixes: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest_stream",
            why="out-of-order raw export past the 500k sort chunk with duplicates;"
            " parsing, spill-sort and dedupe dominate every command",
            flows=120_000, ips=3_000, skew=1.0, servers=150, service_share=0.7,
            pairs=40, ephemeral_share=0.3, duplicate_share=3.27, shuffled=True,
            critical=150, decoys=0, pair_fraction=0.001, learn_iterations=2,
            baseline_tolerance=1e-9, baseline_iterations=100, sample_interval=0,
        ),
        Workload(
            name="learn_static",
            why="sorted duplicate-free flows with heavily repeated triples and labels"
            " the learner cannot fit; learning and pagerank dominate",
            flows=80_000, ips=300, skew=1.5, servers=40, service_share=0.6,
            pairs=12, ephemeral_share=0.05, duplicate_share=0.0, shuffled=False,
            critical=40, decoys=4, pair_fraction=0.005, learn_iterations=100,
            baseline_tolerance=1e-15, baseline_iterations=2000, sample_interval=0,
        ),
        Workload(
            name="stream_sampled",
            why="sorted flows over tens of thousands of long-tailed IPs streamed with"
            " a short sample interval; sampling dominates stream",
            flows=100_000, ips=30_000, skew=0.8, servers=500, service_share=0.4,
            pairs=30, ephemeral_share=0.2, duplicate_share=0.0, shuffled=False,
            critical=500, decoys=0, pair_fraction=0.002, learn_iterations=4,
            baseline_tolerance=1e-9, baseline_iterations=100, sample_interval=1_000,
            local_prefixes=("10.0.0.0/16", "10.1.0.0/16"),
        ),
    )
}


def ip_of(i: int) -> str:
    """Canonical dotted quad for IP index ``i``: locals in 10/8, the rest in 172.16/12."""
    if i < 1 << 17:
        return f"10.{i >> 16}.{(i >> 8) & 255}.{i & 255}"
    j = i - (1 << 17)
    return f"172.{16 + (j >> 16)}.{(j >> 8) & 255}.{j & 255}"


@dataclass
class Inputs:
    """The generator's own tuples plus the label and prefix entries."""

    rows: list[tuple[int, int, str, str, int, int]]  # file order, CSV column order
    labels: list[str]
    local_prefixes: list[str]

    def distinct_keys(self) -> set[tuple]:
        """Dedupe keys (src_ip, dst_ip, src_port, dst_port, start_ts) of all rows."""
        return {(r[2], r[3], r[4], r[5], r[0]) for r in self.rows}


def _zipf(rng: np.random.Generator, n: int, skew: float, size: int) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1, dtype=float) ** skew
    cdf = np.cumsum(weights)
    return np.searchsorted(cdf, rng.random(size) * cdf[-1], side="right").clip(0, n - 1)


def generate(w: Workload, seed: int) -> Inputs:
    """Build the workload's flows and labels from ``seed``; no file is touched."""
    rng = np.random.default_rng([seed, sum(w.name.encode())])
    m = w.flows
    # endpoint popularity: independent permutations so busy sources are not busy sinks
    src_perm = rng.permutation(w.ips)
    dst_perm = rng.permutation(w.ips)
    servers = dst_perm[: w.servers]
    service = rng.random(m) < w.service_share
    src = src_perm[_zipf(rng, w.ips, w.skew, m)]
    if w.decoys:
        # labelled scanners beyond the universe: they only ever send, so no
        # ranking can lift them above 1/n and the learner never reaches F1 = 1
        scanning = rng.random(m) < 0.02
        src = np.where(scanning, w.ips + rng.integers(0, w.decoys, m), src)
    dst = np.where(
        service, servers[_zipf(rng, w.servers, w.skew, m)], dst_perm[_zipf(rng, w.ips, w.skew, m)]
    )

    ports = np.array(SERVICE_PORTS)
    pair_sport = np.where(rng.random(w.pairs) < 0.5, ports[rng.integers(0, len(ports), w.pairs)],
                          rng.integers(49152, 65536, w.pairs))
    pair_dport = ports[rng.integers(0, len(ports), w.pairs)]
    pair = _zipf(rng, w.pairs, 1.0, m)
    sport = pair_sport[pair]
    dport = pair_dport[pair]
    ephemeral = rng.random(m) < w.ephemeral_share
    sport = np.where(ephemeral, rng.integers(1024, 65536, m), sport)
    dport = np.where(ephemeral, rng.integers(1024, 65536, m), dport)

    start = BASE_TS + np.cumsum(rng.integers(0, 3, m))
    end = start + rng.integers(0, 60_000, m)

    ip_text = [ip_of(i) for i in range(w.ips + w.decoys)]
    rows = list(zip(start.tolist(), end.tolist(), [ip_text[i] for i in src.tolist()],
                    [ip_text[i] for i in dst.tolist()], sport.tolist(), dport.tolist()))
    # drop accidental key collisions so the only duplicates are the planted ones
    seen = set()
    unique = []
    for r in rows:
        k = (r[2], r[3], r[4], r[5], r[0])
        if k not in seen:
            seen.add(k)
            unique.append(r)
    rows = unique

    if w.duplicate_share:
        # long-lived flows are re-exported at every active timeout: same key,
        # later end; a flow may be re-exported several times
        picks = rng.integers(0, len(rows), int(len(rows) * w.duplicate_share))
        refresh = rng.integers(1, 600_000, len(picks)).tolist()
        rows += [(*rows[i][:1], rows[i][1] + dt, *rows[i][2:])
                 for i, dt in zip(picks.tolist(), refresh)]
    if w.shuffled:
        # exporters emit a flow when it ends; sorting by end (stable) puts each
        # refreshed re-export after its original
        rows.sort(key=lambda r: r[1])

    labels = [ip_text[i] for i in servers[: w.critical].tolist()]
    labels += ip_text[w.ips:]
    return Inputs(rows, labels, list(w.local_prefixes))


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    """Write flows.csv, labels.txt and (if any) local.txt; returns their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {"flows": directory / "flows.csv", "labels": directory / "labels.txt"}
    with open(paths["flows"], "w", encoding="utf-8", newline="") as fh:
        fh.write(HEADER)
        fh.writelines(f"{a},{b},{c},{d},{e},{f}\n" for a, b, c, d, e, f in inputs.rows)
    paths["labels"].write_text("".join(ip + "\n" for ip in inputs.labels), encoding="utf-8")
    if inputs.local_prefixes:
        paths["local"] = directory / "local.txt"
        paths["local"].write_text("".join(p + "\n" for p in inputs.local_prefixes),
                                  encoding="utf-8")
    return paths
