"""Paper constants shared across layers.

This module sits below everything else in the package — it imports
nothing — so that low layers (``repro.why``) and high layers
(``repro.experiments``) can agree on the paper's magic numbers without
the low layer growing a dependency on the experiment stack.
"""

from __future__ import annotations

#: The paper's short/long boundary: "functions shorter than 400 ms"
#: (Table I bins 1-5 vs 6-8).  In integer microseconds, keyed on CPU
#: demand — the property SFS's FILTER actually discriminates on.
SHORT_CPU_BOUND_US = 400_000

#: Process context-switch cost modelled by the discrete engine
#: (Li et al., "Quantifying the cost of context switch", ExpCS 2007:
#: ~3.8 us direct cost; we use 0.5 ms to include indirect cache/TLB
#: pollution at the paper's working-set sizes).
CTX_SWITCH_COST_US = 500
