"""Big-int bitsets over dense integer ids.

The CSR graph core represents every hot set — adjacency rows, candidate
pools, label indexes, FSM domain whitelists — as one Python ``int`` whose
bit ``i`` is set iff id ``i`` is a member.  Python's arbitrary-precision
integers make this a zero-dependency bitset: intersection, union, and
subtraction are single C-level ``&``/``|``/``& ~`` operations over machine
words instead of per-element hash probes, which is exactly the flat
adjacency-intersection kernel systems like Peregrine build their matching
engines on.

Determinism note: decoding a bitset always yields ids in **ascending**
order (bit position order), which is the sorted order every pool in this
codebase emits.  Converting ``sorted(pool)`` pipelines to
``from_bitset(pool_bits)`` therefore changes no observable sequence — the
cross-backend ``canonical_signature`` byte-identity oracle holds.

Membership tests use shifts: ``(bits >> i) & 1``.  The empty bitset is
``0`` (falsy) — code that distinguishes "no whitelist" from "empty
whitelist" must compare against ``None``, never truthiness.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: For each byte value, the positions of its set bits, ascending.
_BYTE_BITS: tuple[tuple[int, ...], ...] = tuple(
    tuple(i for i in range(8) if byte >> i & 1) for byte in range(256)
)


def to_bitset(ids: Iterable[int]) -> int:
    """Pack non-negative integer ids into one big-int bitset."""
    bits = 0
    for i in ids:
        bits |= 1 << i
    return bits


#: Where peeling low bits beats the byte table (measured crossover, see
#: CHANGES.md PR 22): members at least this many bits apart on average,
#: and few enough that per-member big-int arithmetic stays the cheap side
#: however wide the mask is.
_SPARSE_SPREAD = 24
_SPARSE_MEMBERS = 32


def from_bitset(bits: int) -> tuple[int, ...]:
    """Unpack a bitset into its member ids, ascending (== sorted).

    Decodes byte-at-a-time through a 256-entry table, so the cost is
    O(universe/8 + members) rather than per-member big-int arithmetic —
    except for a few members scattered over a wide mask (a tiny pool in
    a large graph), where walking every zero byte is the waste and the
    low bits are peeled instead.  The mask itself picks the path.
    """
    if not bits:
        return ()
    members = bits.bit_count()
    if members <= _SPARSE_MEMBERS and members * _SPARSE_SPREAD < bits.bit_length():
        return tuple(iter_bitset(bits))
    out: list[int] = []
    append = out.append
    base = 0
    for byte in bits.to_bytes((bits.bit_length() + 7) // 8, "little"):
        if byte:
            for offset in _BYTE_BITS[byte]:
                append(base + offset)
        base += 8
    return tuple(out)


def filter_bitset(bits: int, keep) -> int:
    """The sub-bitset of members ``keep(id)`` accepts — a per-id predicate
    folded over a pool, for the callers whose test has no mask form."""
    return to_bitset(i for i in from_bitset(bits) if keep(i))


def iter_bitset(bits: int) -> Iterator[int]:
    """Lazily yield a bitset's member ids in ascending order."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low

