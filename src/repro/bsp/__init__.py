"""The simulated cluster: a reader of metered runs.

Nothing in ``src/`` imports it; the figure scripts, examples and tests do.
The engine in :mod:`repro.core` meters per-worker work units and wire
traffic onto its own per-superstep records (:mod:`repro.core.results`), and
the TLV/TLP baselines meter theirs onto a
:class:`~repro.core.results.RunMetrics`, a list of the same records.
:class:`CostModel` prices either into simulated cluster time for the
Figure 7/8/10 scripts.
"""

from .cost_model import CostModel, speedup_curve

__all__ = ["CostModel", "speedup_curve"]
