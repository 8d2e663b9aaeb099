"""Point-to-point messages of the BSP substrate, sized under the shared
wire model (:mod:`repro.core.wire`)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.wire import INT_BYTES, estimate_size


@dataclass(frozen=True)
class Message:
    """A point-to-point message between workers.

    ``src``/``dst`` are worker ids; ``payload`` is any sizeable object.
    """

    src: int
    dst: int
    payload: Any

    def wire_size(self) -> int:
        """Payload size plus an 8-byte routing header."""
        return 2 * INT_BYTES + estimate_size(self.payload)
