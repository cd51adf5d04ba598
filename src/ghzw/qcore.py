"""Dense complex linear algebra for three qubits.

Kets are 1-d complex numpy arrays, operators are 8x8 complex numpy
arrays.  Kets of dimension 2 and 4 are admitted only as tensor factors;
the toolkit is three-qubit specific by design.

Basis convention: the computational-basis index of |q_A q_B q_C> is
k = 4*q_A + 2*q_B + q_C (qubit A most significant), so |111> sits at
index 7.
"""

from __future__ import annotations

import numpy as np

ALLOWED_DIMS = (2, 4, 8)

#: qubit labels A, B, C map to tensor slots 0, 1, 2
QUBIT_SLOTS = {"A": 0, "B": 1, "C": 2}


def qubit_slot(label) -> int:
    """Normalize a qubit label ('A'/'B'/'C' or 0/1/2) to a tensor slot."""
    if isinstance(label, str):
        key = label.upper()
        if key not in QUBIT_SLOTS:
            raise ValueError(f"unknown qubit label {label!r}; expected A, B or C")
        return QUBIT_SLOTS[key]
    slot = int(label)
    if slot not in (0, 1, 2):
        raise ValueError(f"qubit slot must be 0, 1 or 2, got {label!r}")
    return slot


def as_ket(amps) -> np.ndarray:
    """Validate and return a ket as a complex numpy array."""
    ket = np.asarray(amps, dtype=complex).reshape(-1)
    if ket.size not in ALLOWED_DIMS:
        raise ValueError(f"ket dimension must be one of {ALLOWED_DIMS}, got {ket.size}")
    if not np.isfinite(ket).all():
        raise ValueError("ket amplitudes must be finite")
    return ket


def as_operator(entries) -> np.ndarray:
    """Validate and return a three-qubit operator as an 8x8 complex numpy array."""
    op = np.asarray(entries, dtype=complex)
    if op.shape != (8, 8):
        raise ValueError(f"operator must be 8x8, got shape {op.shape}")
    if not np.isfinite(op).all():
        raise ValueError("operator entries must be finite")
    return op


def tensor(x, y) -> np.ndarray:
    """Tensor product of two kets; total dimension must stay <= 8."""
    x = as_ket(x)
    y = as_ket(y)
    if x.size * y.size > 8:
        raise ValueError(f"tensor product dimension {x.size * y.size} exceeds 8")
    return np.kron(x, y)


def outer(x) -> np.ndarray:
    """Projector-style outer product |x><x| (Hermitian, rank <= 1)."""
    x = as_ket(x)
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


def _reduced_spectra(kets: np.ndarray) -> np.ndarray:
    """Single-qubit reduced spectra (N, 3, 2) of validated (N, 8) kets.

    Rows are qubits A, B, C, each descending, clipped to [0, 1].  They are
    the squared singular values of the solo-vs-pair matrices, so a
    product cut reads ~1e-32 rather than the ~1e-16 rounding floor of an
    eigensolve of the reduced state.
    """
    return np.clip(np.linalg.svd(kets[:, _SOLO_INDEX], compute_uv=False) ** 2, 0.0, 1.0)


def _hermitian_part(op: np.ndarray) -> np.ndarray:
    """0.5 * (op + op^H), the matrix every eigensolve in the package hands LAPACK.

    op is a density matrix checked by states.check_density_matrix, or its
    partial transpose, so symmetrising only removes the Hermitian slack
    that check admits.
    """
    return 0.5 * (op + op.conj().T)
