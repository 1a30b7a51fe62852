"""Workload generation: conflict-controlled key selection and client processes.

The paper's benchmark (Section VI) issues update commands against a
replicated key-value store.  A command is *conflicting* when its key is drawn
from a pool of 100 keys shared by every client; otherwise the key comes from
the client's private pool.  Closed-loop clients (one outstanding command
each) drive the latency experiments; open-loop clients (Poisson arrivals at a
target rate) drive the throughput experiments.
"""
