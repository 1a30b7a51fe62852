"""Latency topologies for geo-replicated deployments.

The paper deploys five Amazon EC2 sites: Virginia (US), Ohio (US), Frankfurt
(EU), Ireland (EU), and Mumbai (India).  Section VI reports that round-trip
times between EU and US nodes are all below 100 ms and that Mumbai sees
186 ms to Virginia, 301 ms to Ohio, 112 ms to Frankfurt and 122 ms to
Ireland.  :func:`ec2_five_sites` encodes that matrix (with typical values for
the pairs the paper only bounds).  Every topology hosts one replica per
site, so a site name and a node index name the same replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple


@dataclass
class Topology:
    """A set of named sites and the round-trip times between them.

    Attributes:
        sites: ordered, distinct site names; node ``i`` of a cluster lives
            at ``sites[i]``.  A repeated name raises ``ValueError``: the RTT
            map is keyed by site, so two nodes at one site could not have
            their own RTTs.
        rtt_ms: symmetric map ``(site_a, site_b) -> round-trip time`` in
            milliseconds.  The one-way delay used by the network is half the
            round trip.  The mapping is copied defensively: the caller's dict
            is never mutated with mirrored keys or self-RTT defaults.
        local_delivery_ms: delay for a node sending a message to itself.
    """

    sites: List[str]
    rtt_ms: Dict[Tuple[str, str], float]
    local_delivery_ms: float = 0.05

    def __post_init__(self) -> None:
        seen = set()
        for site in self.sites:
            if site in seen:
                raise ValueError(f"site {site!r} appears more than once; "
                                 f"a topology hosts one replica per site")
            seen.add(site)
        # Never mutate the mapping the caller handed in: mirror keys and
        # self-RTT defaults belong to this instance only.
        rtt = dict(self.rtt_ms)
        for (a, b), value in self.rtt_ms.items():
            mirrored = rtt.setdefault((b, a), value)
            if mirrored != value:
                raise ValueError(
                    f"asymmetric rtt_ms: ({a!r}, {b!r})={value} but "
                    f"({b!r}, {a!r})={mirrored}")
        for site in self.sites:
            rtt.setdefault((site, site), self.local_delivery_ms * 2)
        self.rtt_ms = rtt

    @property
    def size(self) -> int:
        """Number of nodes (one per entry of ``sites``)."""
        return len(self.sites)

    def rtt(self, a: int, b: int) -> float:
        """Round-trip time in ms between node indices ``a`` and ``b``."""
        return self.rtt_ms[(self.sites[a], self.sites[b])]

    def one_way(self, a: int, b: int) -> float:
        """One-way delay in ms between node indices ``a`` and ``b``."""
        if a == b:
            return self.local_delivery_ms
        return self.rtt(a, b) / 2.0

    def site_of(self, node_id: int) -> str:
        """Name of the site hosting the given node index."""
        return self.sites[node_id]

    def index_of(self, site: str) -> int:
        """Node index of the named site (``ValueError`` when it is unknown)."""
        return self.sites.index(site)

    def quorum_latency(self, origin: int, quorum_size: int) -> float:
        """Round-trip time needed for ``origin`` to hear from a quorum.

        This is the RTT to the ``quorum_size``-th closest node, counting the
        origin itself as distance zero (its vote needs no network round
        trip).  It is the analytic lower bound used in tests to sanity-check
        simulated latencies.  ``quorum_size`` must lie in ``1..size``
        (``ValueError`` otherwise).
        """
        if not 1 <= quorum_size <= self.size:
            raise ValueError(f"quorum_size must be within 1..{self.size}, "
                             f"got {quorum_size}")
        rtts = sorted(0.0 if other == origin else self.rtt(origin, other)
                      for other in range(self.size))
        return rtts[quorum_size - 1]

    def describe(self) -> str:
        """Human-readable multi-line summary of the topology."""
        lines = [f"Topology with {self.size} sites: {', '.join(self.sites)}"]
        for i, a in enumerate(self.sites):
            row = []
            for j, b in enumerate(self.sites):
                row.append(f"{self.rtt_ms[(a, b)]:6.1f}")
            lines.append(f"  {a:<10} " + " ".join(row))
        return "\n".join(lines)


#: Site names used throughout the paper's evaluation, in the order plots use.
EC2_SITES = ["virginia", "ohio", "frankfurt", "ireland", "mumbai"]

#: Short labels used by the paper's figures for the same sites.
EC2_SHORT_LABELS = {"virginia": "VA", "ohio": "OH", "frankfurt": "DE", "ireland": "IE", "mumbai": "IN"}


def ec2_five_sites(local_delivery_ms: float = 0.05) -> Topology:
    """The five-site EC2 topology from Section VI of the paper.

    The Mumbai RTTs are quoted verbatim from the paper; the EU/US pairs are
    set to representative EC2 inter-region values, all below the 100 ms bound
    the paper reports.
    """
    rtt = {
        ("virginia", "ohio"): 12.0,
        ("virginia", "frankfurt"): 90.0,
        ("virginia", "ireland"): 76.0,
        ("virginia", "mumbai"): 186.0,
        ("ohio", "frankfurt"): 98.0,
        ("ohio", "ireland"): 86.0,
        ("ohio", "mumbai"): 301.0,
        ("frankfurt", "ireland"): 26.0,
        ("frankfurt", "mumbai"): 112.0,
        ("ireland", "mumbai"): 122.0,
    }
    return Topology(sites=list(EC2_SITES), rtt_ms=dict(rtt), local_delivery_ms=local_delivery_ms)


def uniform_topology(n: int, rtt_ms: float = 50.0, local_delivery_ms: float = 0.05) -> Topology:
    """A synthetic topology where every pair of distinct sites has the same RTT."""
    sites = [f"site{i}" for i in range(n)]
    rtt = {}
    for i in range(n):
        for j in range(i + 1, n):
            rtt[(sites[i], sites[j])] = rtt_ms
    return Topology(sites=sites, rtt_ms=rtt, local_delivery_ms=local_delivery_ms)


def lan_topology(n: int, rtt_ms: float = 0.5) -> Topology:
    """A low-latency topology approximating a single data center."""
    return uniform_topology(n, rtt_ms=rtt_ms, local_delivery_ms=0.01)


def custom_topology(site_names: Sequence[str], rtt_matrix: Iterable[Iterable[float]],
                    local_delivery_ms: float = 0.05) -> Topology:
    """Build a topology from an explicit RTT matrix.

    Args:
        site_names: names of the sites, one per row of the matrix.
        rtt_matrix: square matrix of round-trip times.  The matrix must be
            symmetric with a zero diagonal; an asymmetric matrix or a
            non-zero diagonal raises ``ValueError`` instead of silently
            dropping half the data (self-delay comes from
            ``local_delivery_ms``, never from the matrix).
        local_delivery_ms: self-delivery delay.
    """
    names = list(site_names)
    matrix = [list(row) for row in rtt_matrix]
    if len(matrix) != len(names) or any(len(row) != len(names) for row in matrix):
        raise ValueError("rtt_matrix must be square and match site_names")
    for i in range(len(names)):
        if matrix[i][i] != 0:
            raise ValueError(
                f"rtt_matrix diagonal must be zero (self-delay comes from "
                f"local_delivery_ms), got {matrix[i][i]!r} for {names[i]!r}")
        for j in range(i + 1, len(names)):
            if matrix[i][j] != matrix[j][i]:
                raise ValueError(
                    f"rtt_matrix must be symmetric: [{i}][{j}]={matrix[i][j]!r} "
                    f"but [{j}][{i}]={matrix[j][i]!r} "
                    f"({names[i]!r} <-> {names[j]!r})")
    rtt = {}
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rtt[(names[i], names[j])] = float(matrix[i][j])
    return Topology(sites=names, rtt_ms=rtt, local_delivery_ms=local_delivery_ms)
