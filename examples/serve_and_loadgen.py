#!/usr/bin/env python3
"""Serve mode through the ``repro.api`` facade: real processes, real TCP.

This example launches a three-replica CAESAR cluster on localhost — one OS
process per replica, speaking the registry's wire format over sockets —
drives it with seeded closed-loop clients, and prints the loadgen report
plus each replica's stats snapshot.  It is the programmatic equivalent of::

    repro loadgen --launch 3 --protocol caesar --clients 3 --commands 10

Run it with::

    python examples/serve_and_loadgen.py
"""

from __future__ import annotations

from repro import api


def main() -> None:
    config = api.ServeConfig(protocol="caesar", replicas=3, seed=11)
    with api.serve_cluster(config) as cluster:
        print(f"{config.protocol} cluster up:")
        for node_id, (host, port) in sorted(cluster.peers.items()):
            print(f"  replica {node_id} on {host}:{port}")

        report = api.run_loadgen(api.LoadgenConfig(
            endpoints=cluster.peers, clients=3, commands_per_client=10,
            conflict_rate=0.1, seed=11))

        print()
        print(report.describe())


if __name__ == "__main__":
    main()
