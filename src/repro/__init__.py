"""repro: a reproduction of CAESAR — "Speeding up Consensus by Chasing Fast Decisions".

The package implements the CAESAR multi-leader Generalized Consensus protocol
(:mod:`repro.core`), the four baseline protocols the paper compares against
(:mod:`repro.baselines`), and everything needed to run them: a deterministic
discrete-event wide-area simulator (:mod:`repro.sim`), a replicated key-value
store (:mod:`repro.kvstore`), workload generators (:mod:`repro.workload`),
metrics (:mod:`repro.metrics`), an experiment harness that regenerates
every figure of the paper's evaluation (:mod:`repro.harness`), and a real
asyncio TCP deployment mode running the same protocol code over sockets
(:mod:`repro.net`).

Programmatic users should import :mod:`repro.api` — the one stable facade
over every entry point and config dataclass.  Importing ``repro`` (or a
subpackage) loads no code: names live in their defining modules
(``repro.core.caesar.CaesarReplica``) and ``repro.api`` resolves its names on
first use, so a process imports only what it runs.
"""

__version__ = "1.0.0"
