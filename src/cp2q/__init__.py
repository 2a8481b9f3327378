"""Computation and verification engine for the spectral geometry of the
quantum projective plane: q-deformed su(3) representations, the quantum
coordinate algebras, the antiholomorphic (Dolbeault) complex, the Dirac
operator and its closed-form spectrum, plus an exact noncommutative
rewriting engine for the quantum 5-sphere coordinate relations."""

__version__ = "0.1.0"

from .qarith import (
    QArithError,
    QParam,
    qfactorials,
    qint,
    qparam_float,
)

__all__ = [
    "QArithError",
    "QParam",
    "qfactorials",
    "qint",
    "qparam_float",
    "__version__",
]
