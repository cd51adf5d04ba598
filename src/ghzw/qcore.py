"""Dense complex linear algebra for three qubits.

Kets are 1-d complex numpy arrays of 8 amplitudes, operators are 8x8
complex numpy arrays; the toolkit is three-qubit specific by design.
Kets and density matrices are checked in :mod:`ghzw.states`
(check_kets, check_pure, check_density_matrix), and the private kernels
here take checked input.  outer makes its own check: 8 finite
amplitudes, of any norm.

Basis convention: the computational-basis index of |q_A q_B q_C> is
k = 4*q_A + 2*q_B + q_C (qubit A most significant), so |111> sits at
index 7.
"""

from __future__ import annotations

import numpy as np

#: qubit labels A, B, C map to tensor slots 0, 1, 2
QUBIT_SLOTS = {"A": 0, "B": 1, "C": 2}


def qubit_slot(label) -> int:
    """Normalize a qubit label ('A'/'B'/'C', in either case) to a tensor slot."""
    if not isinstance(label, str) or label.upper() not in QUBIT_SLOTS:
        raise ValueError(f"unknown qubit label {label!r}; expected A, B or C")
    return QUBIT_SLOTS[label.upper()]


def outer(x) -> np.ndarray:
    """Projector-style outer product |x><x| (Hermitian, rank <= 1) of 8 finite amplitudes, any norm."""
    x = np.asarray(x, dtype=complex).reshape(-1)
    if x.size != 8:
        raise ValueError(f"ket must hold 8 amplitudes, got {x.size}")
    if not np.isfinite(x).all():
        raise ValueError("ket amplitudes must be finite")
    return np.outer(x, x.conj())


def _partial_transpose(rho: np.ndarray, cut) -> np.ndarray:
    """Transpose the qubit named by `cut` of an 8x8 operator, leaving the rest alone."""
    slot = qubit_slot(cut)
    axes = list(range(6))
    axes[slot], axes[slot + 3] = axes[slot + 3], axes[slot]
    return rho.reshape((2,) * 6).transpose(axes).reshape(8, 8)


#: basis indices of the solo-vs-pair matrices: psi[_SOLO_INDEX[slot]] is
#: 2x4, rows indexing that qubit and columns the other two in order, so
#: the matrix times its adjoint is that qubit's reduced state
_SOLO_INDEX = np.stack(
    [np.arange(8).reshape(2, 2, 2).transpose(axes).reshape(2, 4) for axes in ((0, 1, 2), (1, 0, 2), (2, 0, 1))]
)


def _real_rows(kets: np.ndarray) -> np.ndarray:
    """The (16, N) real view of (N, 8) kets: amplitude i's real part is row 2i, its imaginary part row 2i + 1."""
    return np.ascontiguousarray(kets).view(float).T


def _spectrum_terms() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left and right factors (4 terms, 20 sums, 3 cuts) and signs of _reduced_spectra's sums.

    Factors are rows of _real_rows(kets).  For the cut matrix with rows
    r0, r1, sums 0-7 pair up into a/2, c/2, Re b and Im b (a = |r0|^2,
    c = |r1|^2, b = r0^H r1), and sums 8-19 are the real, then the
    imaginary parts of the six minors r0j r1k - r0k r1j.
    """
    r0, r1 = 2 * _SOLO_INDEX.transpose(1, 2, 0)  # (4 columns, 3 cuts) each
    i0, i1 = r0 + 1, r1 + 1
    j, k = np.triu_indices(4, 1)
    # a Gram sum runs over the four columns, a minor's over its four real products
    gram_left, gram_right = np.stack([r0, i0, r1, i1, r0, i0, r0, i0], 1), np.stack([r0, i0, r1, i1, r1, i1, i1, r1], 1)
    minor_left = np.stack([r0[j], i0[j], r0[k], i0[k]])
    left = np.concatenate([gram_left, minor_left, minor_left], 1)
    right_re, right_im = np.stack([r1[k], i1[k], r1[j], i1[j]]), np.stack([i1[k], r1[k], i1[j], r1[j]])
    right = np.concatenate([gram_right, right_re, right_im], 1)
    sign = np.concatenate(
        [
            np.tile([0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 1.0, -1.0], (4, 1)),
            np.repeat([[1.0], [-1.0], [-1.0], [1.0]], 6, 1),
            np.repeat([[1.0], [1.0], [-1.0], [-1.0]], 6, 1),
        ],
        1,
    )
    return left, right, np.repeat(sign[:, :, None, None], 3, axis=2)  # (4, 20, 3, 1), broadcast over N


_LEFT, _RIGHT, _SIGN = _spectrum_terms()

#: kets per array pass of _reduced_spectra: a block's 240 products per ket
#: take 120 kB, under glibc's default 128 kB mmap threshold, so each pass
#: reuses heap memory instead of faulting in fresh pages
_SPECTRA_BLOCK = 64


def _reduced_spectra(kets: np.ndarray) -> np.ndarray:
    """Single-qubit reduced spectra (N, 3, 2) of validated (N, 8) kets.

    Rows are qubits A, B, C, each descending and at most 1: the squared
    singular values of the solo-vs-pair matrices, in closed form.  For a
    cut matrix with rows r0 and r1, a = |r0|^2, c = |r1|^2, b = r0^H r1,
    the top value is (a + c)/2 + hypot((a - c)/2, |b|) and the small one
    det / top, where det = sum_{j<k} |r0j r1k - r0k r1j|^2 (Lagrange's
    identity for ac - |b|^2) cancels nothing: a product cut reads ~1e-33,
    as an SVD would, not the ~1e-16 rounding floor of ac - |b|^2.  The
    small value is capped at the top one, which rounding can otherwise
    pass by an ulp where the two tie (GHZ).

    Every value is built from real products and from sums along the
    leading (term) axis of arrays whose last axis is N, which numpy adds
    in the same order for one ket as for many, so a ket's spectra are
    the same bits alone and in a batch.  A sum over an axis that becomes
    the innermost only when N = 1 would break that: numpy then sums it
    pairwise.
    """
    x = _real_rows(kets)
    out = np.empty((2, 3, len(kets)))
    for start in range(0, len(kets), _SPECTRA_BLOCK):
        block = slice(start, start + _SPECTRA_BLOCK)
        terms = x[_LEFT, block]
        terms *= x[_RIGHT, block]
        terms *= _SIGN
        sums = terms.sum(axis=0)  # (20, 3, n)
        half_a, half_c, b_re, b_im = sums[:8:2] + sums[1:8:2]
        det = (sums[8:] * sums[8:]).sum(axis=0)
        top, small = out[:, :, block]
        np.minimum(half_a + half_c + np.hypot(half_a - half_c, np.hypot(b_re, b_im)), 1.0, out=top)
        np.minimum(det / top, top, out=small)
    return out.T


def _hermitian_part(op: np.ndarray) -> np.ndarray:
    """0.5 * (op + op^H), the matrix every eigensolve in the package hands LAPACK.

    op is a density matrix checked by states.check_density_matrix, or its
    partial transpose, so symmetrising only removes the Hermitian slack
    that check admits.
    """
    return 0.5 * (op + op.conj().T)
