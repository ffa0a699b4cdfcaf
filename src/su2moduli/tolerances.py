"""Single tolerance record threaded through all modules.

Policy: relation residual 1e-9, algebraic identities 1e-10, norms 1e-12.
Norm errors cross-feed between the factors of a twist (|YX| = |Y||X|) and
grow geometrically, roughly like the golden ratio per step in the worst
letter mix, so renormalization every RENORM_EVERY products caps the burst
at ~phi^RENORM_EVERY * eps ~ 5e-15 and long words accumulate only a
random walk of such bursts.
"""
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    norm: float = 1e-12         # |norm - 1| of input generator images
    identity: float = 1e-10
    relation: float = 1e-9
    cluster: float = 1e-9       # float-path finite closure clustering
    chart: float = 1e-8         # chart equations along long orbits


DEFAULT = Tolerances()

#: renormalize walked states after this many twist letters
RENORM_EVERY = 8
