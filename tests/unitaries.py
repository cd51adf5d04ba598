"""Haar-random unitaries in numpy: the QR of a complex Gaussian, with R's diagonal phases moved onto Q."""

import math

import numpy as np


def haar_unitary(dim, size=1, random_state=None):
    """Haar unitaries (dim, dim), or (size, dim, dim) for size > 1.

    An int seeds a RandomState; a Generator or RandomState is used as
    given.  The real parts of every Gaussian entry are drawn before the
    imaginary parts.  Moving the phases of R's diagonal onto Q makes the
    draw Haar (Mezzadri, Notices AMS 54, 592 (2007)).
    """
    rng = np.random.RandomState(random_state) if isinstance(random_state, (int, np.integer)) else random_state
    shape = (size,) if size > 1 else ()
    z = 1 / math.sqrt(2) * (rng.normal(size=shape + (dim, dim)) + 1j * rng.normal(size=shape + (dim, dim)))
    q, r = np.linalg.qr(z)
    d = r.diagonal(axis1=-2, axis2=-1)
    q *= (d / abs(d))[..., None, :]
    return q
