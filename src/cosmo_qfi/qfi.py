"""Classical Fisher information of the eigenprojector measurement.

`verify` measures the probe in its eigenbasis and compares the classical
Fisher information of the two outcomes with the quantum Fisher information
`qfi_eps` reports: equality is the paper's claim that the eigenprojector
measurement is optimal.  The probe is the `ProbeState` that
`bogoliubov.excitation_weight` builds.
"""

from __future__ import annotations

from .bogoliubov import ProbeState


def classical_fisher(state: ProbeState) -> float:
    """Sum of dp^2/p over the outcomes p0, p1 of the probe's eigenbasis.

    dp1 = -dp0 = dX/(1+X)^2.  An outcome with p = 0 contributes nothing: it
    occurs only at X = 0, where `excitation_weight` reports dX = 0.
    """
    dp = state.dX / (1.0 + state.X) ** 2
    total = 0.0
    for prob in (state.p0, state.p1):
        if prob > 0.0:
            # dp/p first: dp*dp underflows to zero where the information is normal.
            total += dp / prob * dp
    return total
