"""Independent brute-force re-derivation of the outcome distribution.

Works directly with explicit qubit state vectors and free-evolution
phases instead of the reduced sign-sum form, so it independently exercises
the conjugation-sign algebra, the 1/4-weight structure, and the exact
cancellation of the detector energy gaps.
"""

import cmath
import itertools
import math

import numpy as np

_G = np.array([1.0, 0.0], dtype=complex)
_E = np.array([0.0, 1.0], dtype=complex)
_SVEC = {
    +1: (_E + _G) / math.sqrt(2.0),
    -1: (_E - _G) / math.sqrt(2.0),
}
_ZVEC = {0: _G, 1: _E}


def brute_force_distribution(noise_cov, signal_im, couplings, lam_alice,
                             gaps=None, t_dec=2.0):
    """All 2 * 4^n terms summed with explicit qubit amplitudes.

    Returns a dict outcome tuple -> probability (0 = ground, 1 = excited).
    """
    V = np.asarray(noise_cov, dtype=float)
    m = np.asarray(signal_im, dtype=float)
    lam = np.asarray(couplings, dtype=float)
    n = len(lam)
    if gaps is None:
        gaps = [0.7 + 0.3 * i for i in range(n)]
    units = [np.diag([1.0, cmath.exp(1j * gaps[i] * t_dec)]) for i in range(n)]

    signs = (1, -1)
    # detector i's amplitude <g|s> <s|U|z> <z|U^dag|s'> <s'|g> for each (s, z, s')
    amps = [
        {
            (s, z, sp): np.vdot(_G, _SVEC[s])
            * np.vdot(_SVEC[s], U @ _ZVEC[z])
            * np.vdot(_ZVEC[z], U.conj().T @ _SVEC[sp])
            * np.vdot(_SVEC[sp], _G)
            for s in signs for z in (0, 1) for sp in signs
        }
        for U in units
    ]
    totals = {z: 0.0 + 0.0j for z in itertools.product((0, 1), repeat=n)}
    for s_a in signs:
        for s in itertools.product(signs, repeat=n):
            for sp in itertools.product(signs, repeat=n):
                c = lam * (np.array(s, dtype=float) - np.array(sp, dtype=float))
                decoh = math.exp(-0.5 * float(c @ V @ c))
                phase = cmath.exp(2j * lam_alice * s_a * float(c @ m))
                for z in totals:
                    qubit = 1.0 + 0.0j
                    for i in range(n):
                        qubit *= amps[i][s[i], z[i], sp[i]]
                    totals[z] += 0.5 * qubit * decoh * phase
    for total in totals.values():
        assert abs(total.imag) < 1e-14
    return {z: total.real for z, total in totals.items()}
