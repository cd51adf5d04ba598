"""Dense complex linear algebra for one, two, and three qubits.

Kets are 1-d complex numpy arrays, operators are square 2-d complex
numpy arrays.  Only dimensions 2, 4, and 8 are admitted; the toolkit is
three-qubit specific by design.

Basis convention: the computational-basis index of |q_A q_B q_C> is
k = 4*q_A + 2*q_B + q_C (qubit A most significant), so |111> sits at
index 7.
"""

from __future__ import annotations

import numpy as np

ALLOWED_DIMS = (2, 4, 8)

#: qubit labels A, B, C map to tensor slots 0, 1, 2
QUBIT_SLOTS = {"A": 0, "B": 1, "C": 2}

HERMITICITY_TOL = 1e-10  # largest |op - op^H| entry of a Hermitian operator or density matrix


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


def as_ket(amps, dim: int | None = None) -> np.ndarray:
    """Validate and return a ket as a complex numpy array."""
    ket = np.asarray(amps, dtype=complex).reshape(-1)
    if ket.size not in ALLOWED_DIMS:
        raise ValueError(f"ket dimension must be one of {ALLOWED_DIMS}, got {ket.size}")
    if dim is not None and ket.size != dim:
        raise ValueError(f"expected dimension {dim}, got {ket.size}")
    if not np.isfinite(ket).all():
        raise ValueError("ket amplitudes must be finite")
    return ket


def as_operator(entries, dim: int | None = None) -> np.ndarray:
    """Validate and return an operator as a square complex numpy array."""
    op = np.asarray(entries, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise ValueError(f"operator must be square, got shape {op.shape}")
    if op.shape[0] not in ALLOWED_DIMS:
        raise ValueError(f"operator dimension must be one of {ALLOWED_DIMS}, got {op.shape[0]}")
    if dim is not None and op.shape[0] != dim:
        raise ValueError(f"expected dimension {dim}, got {op.shape[0]}")
    if not np.isfinite(op).all():
        raise ValueError("operator entries must be finite")
    return op


def basis_ket(dim: int, k: int) -> np.ndarray:
    """Computational basis vector |k> of the given dimension."""
    if dim not in ALLOWED_DIMS:
        raise ValueError(f"dimension must be one of {ALLOWED_DIMS}")
    ket = np.zeros(dim, dtype=complex)
    ket[k] = 1.0
    return ket


def tensor(x, y) -> np.ndarray:
    """Tensor product of two kets; total dimension must stay <= 8."""
    x = as_ket(x)
    y = as_ket(y)
    if x.size * y.size > 8:
        raise ValueError(f"tensor product dimension {x.size * y.size} exceeds 8")
    return np.kron(x, y)


def inner(x, y) -> complex:
    """Inner product <x|y> (conjugate-linear in the first argument)."""
    x = as_ket(x)
    y = as_ket(y, dim=x.size)
    return complex(np.vdot(x, y))


def norm_sq(x) -> float:
    """Squared norm <x|x>."""
    x = as_ket(x)
    return float(np.vdot(x, x).real)


def outer(x) -> np.ndarray:
    """Projector-style outer product |x><x| (Hermitian, rank <= 1)."""
    x = as_ket(x)
    return np.outer(x, x.conj())


def partial_trace(rho, keep) -> np.ndarray:
    """Single-qubit reduced operator of a three-qubit operator.

    `keep` names the qubit whose 2x2 reduced operator is returned; the
    other two slots are traced out.  Trace is preserved.
    """
    rho = as_operator(rho, dim=8)
    slot = qubit_slot(keep)
    t = rho.reshape(2, 2, 2, 2, 2, 2)
    others = [s for s in range(3) if s != slot]
    # trace out the two unkept slots (row axis s pairs with column axis s+3)
    for s in sorted(others, reverse=True):
        t = np.trace(t, axis1=s, axis2=s + t.ndim // 2)
    return t


def partial_transpose(rho, cut) -> np.ndarray:
    """Transpose the tensor slot named by `cut`, leaving the rest alone.

    For dim 8 the cut names one of the three qubits.  For dim 4 the
    convention is: cut 'A' (slot 0) transposes the first qubit factor,
    'B'/'C' (slot 1 or 2) the second.
    """
    return _partial_transpose(as_operator(rho), cut)


def _partial_transpose(rho: np.ndarray, cut) -> np.ndarray:
    """partial_transpose of an operator already checked by as_operator."""
    n = rho.shape[0].bit_length() - 1  # qubits
    if n == 1:
        return rho.T.copy()
    slot = qubit_slot(cut)
    if n == 2:
        slot = 0 if slot == 0 else 1
    t = rho.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    axes[slot], axes[slot + n] = axes[slot + n], axes[slot]
    return t.transpose(axes).reshape(rho.shape)


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


def _hermitian_part(op: np.ndarray, what: str | None = None) -> np.ndarray:
    """0.5 * (op + op^H), the matrix every eigensolve in the package hands LAPACK.

    With `what`, op (through as_operator) is first tested Hermitian within
    HERMITICITY_TOL, else ValueError names `what`; without it, op has passed
    that test already, and symmetrising only removes the admitted slack.
    """
    if what is not None and np.max(np.abs(op - op.conj().T)) > HERMITICITY_TOL:
        raise ValueError(f"{what} is not Hermitian within {HERMITICITY_TOL}")
    return 0.5 * (op + op.conj().T)


def hermitian_eigs(op, vectors: bool = False):
    """Eigendecomposition of a Hermitian operator by LAPACK (numpy.linalg.eigh).

    The checked entry point: as_operator and the Hermiticity test run
    here, so code that holds a checked matrix calls LAPACK on
    _hermitian_part instead.  Returns the eigenvalues sorted ascending,
    and with ``vectors=True`` also the matching eigenvector columns.
    Non-Hermitian input raises ValueError; a LAPACK failure to converge
    raises numpy.linalg.LinAlgError.
    """
    a = _hermitian_part(as_operator(op), "operator")
    return np.linalg.eigh(a) if vectors else np.linalg.eigvalsh(a)
