"""Replicated state machine substrate: a simple key-value store.

The paper's benchmark issues client commands that update keys of a fully
replicated key-value store; two commands conflict when they access the same
key.  :class:`~repro.kvstore.store.KeyValueStore` is that state machine, and
:class:`~repro.kvstore.state_machine.StateMachine` is the interface consensus
replicas program against (so other state machines can be plugged in).
"""
