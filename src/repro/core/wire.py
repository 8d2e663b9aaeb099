"""The wire model: a deterministic size for every payload that would cross
the network.

The original Arabesque runs on Giraph over a 10 GbE network; communication
volume is a first-order effect in its evaluation (TLV exchanges 120 million
messages where Arabesque needs 137 thousand — section 6.2).  The engine's
simulated aggregation shuffle, the stores' ``wire_size`` methods and the
TLV baseline's point-to-point messages (:mod:`repro.baselines.tlv`) all
meter payloads with :func:`estimate_size`, a model of a compact binary
encoding:

* ints are 4 bytes (Arabesque stores vertex/edge ids as Java ints);
* containers cost a 4-byte length header plus their elements;
* strings cost a header plus one byte per character.

The absolute constants matter less than their ratios — the evaluation
reproduces *relative* sizes (ODAG vs embedding lists, TLV vs TLE traffic).
"""

from __future__ import annotations

from typing import Any

INT_BYTES = 4
LENGTH_HEADER_BYTES = 4


def estimate_size(payload: Any) -> int:
    """Estimated wire size of ``payload`` in bytes under the model above.

    Supports the payload vocabulary used across the system: ints, floats,
    bools, strings, None, and arbitrarily nested tuples/lists/sets/dicts.
    Objects may opt in by defining ``wire_size() -> int``.
    """
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return INT_BYTES
    if isinstance(payload, float):
        return 8
    if isinstance(payload, str):
        return LENGTH_HEADER_BYTES + len(payload)
    if isinstance(payload, (tuple, list, set, frozenset)):
        return LENGTH_HEADER_BYTES + sum(estimate_size(item) for item in payload)
    if isinstance(payload, dict):
        return LENGTH_HEADER_BYTES + sum(
            estimate_size(k) + estimate_size(v) for k, v in payload.items()
        )
    wire_size = getattr(payload, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    raise TypeError(f"cannot estimate wire size of {type(payload).__name__}")
