"""Measurement families: which per-qubit bases a protocol draws from.

Two families are supported: the two-basis family (computational and
Hadamard-rotated bases) and the three-basis family (eigenbases of all
three Pauli operators, reached by repeatedly applying a basis-cycling
unitary to the computational basis).
"""

from __future__ import annotations

import enum
import math

import numpy as np

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)

# Cycles the Pauli eigenbases: sigma_z -> sigma_x -> sigma_y -> sigma_z.
# Not Hermitian, so measurement projectors must conjugate with its adjoint.
BASIS_CYCLE = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2)

_IDENTITY2 = np.eye(2, dtype=complex)


class MeasurementFamily(enum.Enum):
    """Per-qubit measurement basis family."""

    BB84 = "bb84"
    SIX_STATE = "six"

    @property
    def bases_per_qubit(self) -> int:
        return 2 if self is MeasurementFamily.BB84 else 3

    @property
    def rate_ceiling(self) -> float:
        """Asymptotic bits-per-qubit ceiling of the certified rate, ``(B-1)/B``."""
        b = self.bases_per_qubit
        return (b - 1) / b

    @property
    def default_qubit_budget(self) -> int:
        # Exact simulation is desk scale only: table size is bases**n * 2**n.
        return 4 if self is MeasurementFamily.BB84 else 3

    def basis_unitary(self, theta: int) -> np.ndarray:
        """2x2 unitary whose columns span measurement basis ``theta``.

        Basis index convention: 0 is the sigma_z eigenbasis for both
        families; the two-basis family uses 1 for sigma_x, the three-basis
        family uses 1 for sigma_x and 2 for sigma_y.
        """
        if not 0 <= theta < self.bases_per_qubit:
            raise ValueError(
                f"basis index {theta} out of range for {self.value!r} "
                f"(expected 0..{self.bases_per_qubit - 1})"
            )
        if self is MeasurementFamily.BB84:
            return (_IDENTITY2 if theta == 0 else HADAMARD).copy()
        return np.linalg.matrix_power(BASIS_CYCLE, theta)
