"""State vectors of dimer coverings and their equal superposition.

Basis convention: bit k of a computational-basis index is the spin of site k,
little-endian, with bit value 0 = up and 1 = down. A directed singlet on the
pair (i, j) is (|up_i down_j> - |down_i up_j>)/sqrt(2), i the edge's A
end; all amplitudes built here are real.
"""

import math

import numpy as np

INV_SQRT2 = 1.0 / math.sqrt(2.0)
WERNER_TOL = 1e-8  # largest distance of an accepted two-site marginal from Werner form
# largest <S^2> of a total singlet: its two-site marginals are then within
# sqrt(2 <S^2>) = 4.5e-9 of Werner form, below WERNER_TOL
SINGLET_TOL = 1e-17


def site_count(psi):
    """Number of sites n of a 2^n-amplitude vector, n >= 1; else ValueError."""
    psi = np.asarray(psi)
    n = psi.size.bit_length() - 1
    if psi.ndim != 1 or n < 1 or psi.size != 1 << n:
        raise ValueError(f"state of shape {psi.shape} is not 2^n amplitudes on one axis, n >= 1")
    return n


def _covering_terms(coverings):
    """(indices, amplitudes) of the nonzero entries of C coverings of k dimers each.

    Covering c owns entries c 2^k to (c + 1) 2^k - 1, in orientation order:
    orientation bit t picks the minus branch (down on the A-site) of the
    t-th dimer. All coverings share one sign pattern.
    """
    pairs = np.asarray(coverings, dtype=np.int64)  # (C, k, 2)
    k = pairs.shape[1]
    a_bit = np.left_shift(1, pairs[:, :, 0])
    b_bit = np.left_shift(1, pairs[:, :, 1])
    flip = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    indices = b_bit.sum(axis=1)[:, None] + (a_bit - b_bit) @ flip.T
    signs = 1 - 2 * (flip.sum(axis=1) & 1)
    return indices.ravel(), np.tile(signs * INV_SQRT2 ** k, len(pairs))


def rvb_state(lattice):
    """Normalized equal superposition of all dimer-covering states.

    One bincount adds the entries of `lattice.coverings` in covering order,
    so each amplitude is the same sum as adding the covering states one by
    one.
    """
    coverings = lattice.coverings
    if not coverings:
        raise ValueError(f"the {lattice.n}-site lattice has no dimer covering")
    indices, amps = _covering_terms(coverings)
    psi = np.bincount(indices, weights=amps, minlength=1 << lattice.n)
    psi /= np.linalg.norm(psi)
    return psi


def support_bits(psi):
    """(support, amps, bits) of a 2^n-entry array: the increasing indices of its
    nonzero entries, their amplitudes, and the (n, s) uint8 table whose row k is
    bit k of each index, unpacked from the indices' little-endian bytes (no int64
    table). -0.0 is not in it; `dump_state`, which writes -0.0, reads bit patterns."""
    n = site_count(psi)
    support = np.flatnonzero(psi != 0)
    octets = support.astype("<i8", copy=False).view(np.uint8).reshape(-1, 8)
    bits = np.unpackbits(octets[:, :(n + 7) // 8].T, axis=0, bitorder="little")[:n]
    return support, psi[support], bits


def total_spin_squared(state):
    """<psi| S_tot^2 |psi> from S^2 = S_- S_+ + S_z^2 + S_z.

    So <S^2> = |S_+ psi|^2 + <S_z^2 + S_z>. Both terms are read off the
    support (`support_bits`): site k raises each support index x with
    x_k = 1 (down) to x ^ 2^k, by one fancy add per site whose targets are
    distinct, and S_z is n/2 minus the down count of each index. The sites go
    from n - 1 down to 0, the axis order of the (2,)*n tensor, so each entry
    of S_+ psi adds its terms in the order of the dense strided adds over
    those axes, which the tests keep as the reference.
    """
    psi = np.asarray(state)
    support, amps, bits = support_bits(psi)
    raised = np.zeros_like(psi)
    for k in reversed(range(len(bits))):
        down = bits[k].view(bool)
        raised[support[down] ^ (1 << k)] += amps[down]
    sz = len(bits) / 2 - bits.sum(axis=0)
    weight = (amps * amps.conj()).real
    return float(np.vdot(raised, raised).real) + float(weight @ (sz * (sz + 1.0)))


def require_singlet(state):
    """<S^2> of a normalized total singlet, the precondition of `ggm` and of
    the Werner fits; ValueError for a length other than 2^n, a norm more
    than 1e-10 from 1, or <S^2> outside [0, SINGLET_TOL]; a NaN fails both
    bounds. The weight outside the singlet space is at most <S^2>/2, which
    SINGLET_TOL keeps small enough for every two-site marginal to be
    Werner-form within WERNER_TOL (docs/decisions.md).
    """
    psi = np.asarray(state)
    site_count(psi)
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-10:
        raise ValueError("state is not normalized")
    spin_sq = total_spin_squared(psi)
    if not 0.0 <= spin_sq <= SINGLET_TOL:
        raise ValueError(f"state is not a total singlet: S^2 = {spin_sq:.3e}")
    return spin_sq


def dump_state(state, path, m, boundary):
    """Write amplitudes in index order, one per line, after a header line.

    Each distinct amplitude is formatted once. Distinct means a distinct
    float64 bit pattern, so 0.0 and -0.0 keep their own text. Only the
    support is read: the lines between two of its entries are runs of "0".
    A complex vector raises ValueError: the format has no room for
    imaginary parts.
    """
    if np.iscomplexobj(state):
        raise ValueError("cannot dump a complex state: amplitudes are written as reals")
    psi = np.asarray(state, dtype=np.float64)
    n = site_count(psi)
    bits = np.ascontiguousarray(psi).view(np.int64)
    # -0.0 has a nonzero bit pattern, so it is in the support with its own text
    support = np.flatnonzero(bits != 0)
    values, which = np.unique(bits[support], return_inverse=True)
    text = [f"{float(amp):.17g}\n" for amp in values.view(np.float64)]
    gaps = np.diff(support, prepend=-1) - 1
    last = int(support[-1]) if support.size else -1
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"rvb n={n} boundary={boundary} m={m}\n")
        fh.write("".join(["0\n" * gap + text[i] for gap, i in zip(gaps.tolist(), which.tolist())])
                 + "0\n" * (bits.size - 1 - last))
