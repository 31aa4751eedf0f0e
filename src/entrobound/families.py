"""Measurement families: which per-qubit bases a protocol draws from.

Two families are supported: the two-basis family (computational and
Hadamard-rotated bases) and the three-basis family (eigenbases of all
three Pauli operators, reached by repeatedly applying a basis-cycling
unitary to the computational basis).

The unitaries ``HADAMARD`` and ``BASIS_CYCLE`` are numpy arrays built on
first use, so the bound layer can use the families without loading numpy.
"""

from __future__ import annotations

import enum
import functools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


@functools.cache
def _unitaries() -> dict[str, np.ndarray | tuple[np.ndarray, ...]]:
    import numpy as np

    hadamard = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
    # Cycles the Pauli eigenbases: sigma_z -> sigma_x -> sigma_y -> sigma_z.
    # Not Hermitian, so measurement projectors must conjugate with its adjoint.
    cycle = np.array([[1.0, -1.0j], [1.0, 1.0j]], dtype=complex) / math.sqrt(2)
    identity = np.eye(2, dtype=complex)
    # Per family, the unitary of each basis index.
    return {"HADAMARD": hadamard, "BASIS_CYCLE": cycle,
            "bb84": (identity, hadamard), "six": (identity, cycle, cycle @ cycle)}


def __getattr__(name: str):
    # Refuse every other name before numpy loads: ``from .families import X``
    # probes attributes such as ``__path__`` through this hook.
    if name not in ("HADAMARD", "BASIS_CYCLE"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return _unitaries()[name]


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
        # The largest n of the benchmark's trial mix and the test strategies, not
        # a limit: the simulator's one size limit is ``simulator._MAX_TABLE_ENTRIES``.
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
        return _unitaries()[self.value][theta].copy()
