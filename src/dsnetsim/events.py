"""Kernel messages: timestamped events whose key is a globally unique
identity, so a cancellation (anti-message) can match the exact event it
undoes."""

from __future__ import annotations

ARRIVE = 0
SEND = 1
GENERATE = 2
REFILL = 3

KIND_NAMES = {ARRIVE: "ARRIVE", SEND: "SEND", GENERATE: "GENERATE", REFILL: "REFILL"}

POSITIVE = 0
ANTI = 1


class Event:
    """One timestamped message. Its ``key``, ``(time, target, sender,
    seq)``, is both its identity, which an anti-message shares, and its place
    in a deterministic total order over simultaneous events. The sequential
    loop sorts each time's bucket by ``key``; the partitions' heaps order
    the flat entry ``(time, target, sender, seq, event)``, the same order.
    An Event defines none itself, as no two pending events share a key."""

    __slots__ = ("time", "target", "kind", "payload", "sender", "seq", "sign", "key")

    def __init__(self, time, target, kind, payload, sender, seq, sign=POSITIVE):
        self.time = time
        self.target = target
        self.kind = kind
        self.payload = payload
        self.sender = sender
        self.seq = seq
        self.sign = sign
        self.key = (time, target, sender, seq)

    def as_anti(self) -> "Event":
        return Event(self.time, self.target, self.kind, None, self.sender, self.seq, ANTI)

    def __repr__(self):
        sign = "-" if self.sign == ANTI else "+"
        return (
            f"Event({sign}{KIND_NAMES[self.kind]} t={self.time} "
            f"lp={self.target} from={self.sender} seq={self.seq})"
        )
