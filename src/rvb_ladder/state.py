"""State vectors of dimer coverings and their equal superposition.

Basis convention: bit k of a computational-basis index is the spin of site k,
little-endian, with bit value 0 = up and 1 = down. A directed singlet on the
pair (i, j) is (|up_i down_j> - |down_i up_j>)/sqrt(2), i the A-sublattice
site; all amplitudes built here are real.
"""

import math

import numpy as np

from .lattice import enumerate_coverings

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def singlet_pair(i, j, n=2):
    """Directed singlet factor on sites (i, j) embedded in n sites.

    Sites other than i and j are pinned to spin up, so for n = 2 this is the
    bare two-site singlet. Amplitude of |up_i down_j> is +1/sqrt(2), of
    |down_i up_j> is -1/sqrt(2).
    """
    if i == j:
        raise ValueError("singlet needs two distinct sites")
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"sites ({i}, {j}) out of range for n={n}")
    psi = np.zeros(1 << n)
    psi[1 << j] = INV_SQRT2
    psi[1 << i] = -INV_SQRT2
    return psi


def covering_state(covering, n):
    """Product of directed singlets over one dimer covering.

    `covering` is an iterable of (a, b) pairs, a the A-site of each dimer.
    The result has 2^(n/2) nonzero amplitudes, each +-(1/sqrt(2))^(n/2).
    """
    pairs = list(covering)
    seen = set()
    for a, b in pairs:
        seen.update((a, b))
    if len(seen) != n or len(pairs) * 2 != n or not all(0 <= s < n for s in seen):
        raise ValueError("covering is not a perfect matching of all sites")

    k = len(pairs)
    scale = INV_SQRT2 ** k
    psi = np.zeros(1 << n)
    for orient in range(1 << k):
        idx = 0
        sign = 1
        for t, (a, b) in enumerate(pairs):
            if (orient >> t) & 1:  # down on the A-site: the minus branch
                idx |= 1 << a
                sign = -sign
            else:
                idx |= 1 << b
        psi[idx] += sign * scale
    return psi


def rvb_state(lattice):
    """Normalized equal superposition of all dimer-covering states."""
    coverings = enumerate_coverings(lattice)
    if not coverings:
        raise ValueError(f"lattice m={lattice.m} {lattice.boundary} has no dimer covering")
    psi = np.zeros(1 << lattice.n)
    for cov in coverings:
        psi += covering_state(cov, lattice.n)
    psi /= np.linalg.norm(psi)
    return psi


def total_spin_squared(state):
    """<psi| S_tot^2 |psi> with S_tot = sum_k sigma_k / 2, applied sparsely."""
    psi = np.asarray(state)
    n = int(math.log2(psi.size))
    idx = np.arange(psi.size)

    # S_z is diagonal: eigenvalue (n_up - n_down)/2
    popcount = np.zeros(psi.size, dtype=np.int64)
    for k in range(n):
        popcount += (idx >> k) & 1
    sz = (n - 2 * popcount) / 2.0
    out = float(np.vdot(sz * psi, sz * psi).real)

    # S_x and S_y flip one bit at a time
    sx = np.zeros(psi.size, dtype=complex)
    sy = np.zeros(psi.size, dtype=complex)
    for k in range(n):
        flipped = idx ^ (1 << k)
        bit = (idx >> k) & 1
        sx[flipped] = sx[flipped] + 0.5 * psi
        # sigma_y: |0> -> i|1>, |1> -> -i|0>
        phase = np.where(bit == 0, 1j, -1j)
        sy[flipped] = sy[flipped] + 0.5 * phase * psi
    out += float(np.vdot(sx, sx).real) + float(np.vdot(sy, sy).real)
    return out


def bipartition_matrix(psi, n, keep):
    """The n-site vector `psi` as a matrix across the split `keep` | rest.

    Rows run over the `keep` sites in list order, keep[0] the least
    significant bit; columns over the other sites in ascending order, the
    lowest one least significant.
    """
    kept = set(keep)
    rest = [s for s in range(n) if s not in kept]
    # axis of site k in the reshaped tensor is n-1-k; most significant first
    perm = [n - 1 - k for k in reversed(keep)] + [n - 1 - s for s in reversed(rest)]
    return np.asarray(psi).reshape([2] * n).transpose(perm).reshape(1 << len(keep), -1)


def dump_state(state, path, m, boundary):
    """Write amplitudes in index order, one per line, after a header line."""
    psi = np.asarray(state)
    n = int(math.log2(psi.size))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rvb n={n} boundary={boundary} m={m}\n")
        for amp in psi:
            fh.write(f"{float(amp):.17g}\n")
