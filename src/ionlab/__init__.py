"""ionlab: desk-scale numerical laboratory for mean-field atomic models
and classical Coulomb variational problems.

Subpackages cover a shared radial discretization, operator-inequality
certificates, three mean-field solvers (gradient-free, gradient-
corrected, and product-state), a finite-basis orbital theory with an
exact-diagonalization oracle, classical point-charge functionals, and
the liquid drop model, all behind one CLI.
"""

__version__ = "0.1.0"

import importlib

from .errors import (  # noqa: F401
    BasisError,
    CapacityError,
    ConvergenceError,
    DomainError,
    FormatError,
    IonlabError,
    ParameterError,
)

# Submodules load on first attribute access (PEP 562), so ``import ionlab``
# and a CLI command pay only for the solvers they use.  ``drop`` imports
# scipy inside the two functions that call it; ``radial`` (and through it
# ``krylov``, ``tf``, ``tfw``, ``hartree`` and ``opchecks``) loads only
# SciPy's compiled LAPACK wrappers, ``scipy.linalg._flapack``, not the
# ``scipy.linalg`` package; ``classical`` and ``hf`` never touch SciPy.
_SUBMODULES = (
    "classical", "drop", "hartree", "hf", "krylov", "opchecks", "radial", "tf", "tfw",
)


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
