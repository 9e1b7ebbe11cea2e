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


def site_count(psi):
    """Number of sites n of a 2^n-amplitude vector, n >= 1; else ValueError."""
    size = np.asarray(psi).size
    n = size.bit_length() - 1
    if n < 1 or size != 1 << n:
        raise ValueError(f"state length {size} is not 2^n with n >= 1")
    return n


def _covering_terms(covering, n):
    """(indices, amplitudes) of the 2^(n/2) nonzero entries of one covering.

    Orientation bit t of the entry picks the minus branch (down on the
    A-site) of the t-th dimer; entries come in orientation order.
    """
    pairs = list(covering)
    seen = set()
    for a, b in pairs:
        seen.update((a, b))
    if len(seen) != n or len(pairs) * 2 != n or not all(0 <= s < n for s in seen):
        raise ValueError("covering is not a perfect matching of all sites")

    k = len(pairs)
    a_bit = np.array([1 << a for a, _ in pairs], dtype=np.int64)
    b_bit = np.array([1 << b for _, b in pairs], dtype=np.int64)
    flip = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    indices = np.where(flip, a_bit, b_bit).sum(axis=1)
    signs = 1 - 2 * (flip.sum(axis=1) & 1)
    return indices, signs * INV_SQRT2 ** k


def rvb_state(lattice):
    """Normalized equal superposition of all dimer-covering states.

    One bincount adds the entries of `enumerate_coverings(lattice)` in
    covering order, so each amplitude is the same sum as adding the covering
    states one by one.
    """
    coverings = enumerate_coverings(lattice)
    if not coverings:
        raise ValueError(f"lattice m={lattice.m} {lattice.boundary} has no dimer covering")
    indices, amps = zip(*(_covering_terms(cov, lattice.n) for cov in coverings))
    psi = np.bincount(np.concatenate(indices), weights=np.concatenate(amps),
                      minlength=1 << lattice.n)
    psi /= np.linalg.norm(psi)
    return psi


def total_spin_squared(state):
    """<psi| S_tot^2 |psi> from S^2 = S_- S_+ + S_z^2 + S_z.

    So <S^2> = |S_+ psi|^2 + <S_z^2 + S_z>. S_+ psi is built on the
    (2,)*n tensor: site k raises a down spin (index 1 on its axis) to up.
    """
    psi = np.asarray(state)
    n = site_count(psi)
    tensor = psi.reshape([2] * n)
    raised = np.zeros_like(tensor)
    for axis in range(n):
        lead = (slice(None),) * axis
        raised[lead + (0,)] += tensor[lead + (1,)]

    # S_z is diagonal, a sum of +-1/2 per site (up +, down -)
    sz = np.zeros(1)
    for _ in range(n):
        sz = np.add.outer(sz, (0.5, -0.5)).ravel()
    weight = (psi * psi.conj()).real
    return float(np.vdot(raised, raised).real) + float(weight @ (sz * (sz + 1.0)))


def dump_state(state, path, m, boundary):
    """Write amplitudes in index order, one per line, after a header line.

    Each distinct amplitude is formatted once. Distinct means a distinct
    float64 bit pattern, so 0.0 and -0.0 keep their own text. A complex
    vector raises ValueError: the format has no room for imaginary parts.
    """
    if np.iscomplexobj(state):
        raise ValueError("cannot dump a complex state: amplitudes are written as reals")
    psi = np.asarray(state, dtype=np.float64)
    n = site_count(psi)
    bits = np.ascontiguousarray(psi).view(np.int64)
    values = np.unique(bits)
    text = np.array([f"{float(amp):.17g}\n" for amp in values.view(np.float64)], dtype=object)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"rvb n={n} boundary={boundary} m={m}\n")
        fh.write("".join(text[np.searchsorted(values, bits)].tolist()))
