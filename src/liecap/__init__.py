"""Exact capability and Schur multiplier computations for nilpotent Lie
algebras over the rationals and prime fields."""

from .errors import (
    EngineError,
    FieldError,
    NotIdealError,
    NotNilpotentError,
    ResourceError,
    ScopeError,
    ShapeError,
)
from .field import GF2, GF3, GF5, QQ, FieldSpec
from .linalg import Subspace, kernel, span, subspace_intersect
from .liealg import (
    LieAlgebra,
    abelian,
    central_product,
    direct_sum,
    minimal_generators,
)
from .freelie import (
    FreeNilpotent,
    free_nilpotent,
    hall_basis,
    witt_dimension,
)
from .schur import (
    HomologyReport,
    epicenter_test_dd,
    exterior_center,
    exterior_square_dim,
    homology,
    is_capable,
    schur_multiplier_dim,
)
from .catalog import build, random_gen_heisenberg, standard_instances
from .classify import (
    Fingerprint,
    Verdict,
    capability_structural,
    fingerprint,
    verify_paper,
)

# No computation uses numpy.  It is imported only because bench/worker.py:86
# reads sys.modules["numpy"] for the run record; ROADMAP item 1 makes that
# read optional, and then this line goes.
import numpy  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "EngineError", "FieldError", "NotIdealError", "NotNilpotentError",
    "ResourceError", "ScopeError", "ShapeError",
    "FieldSpec", "QQ", "GF2", "GF3", "GF5",
    "Subspace", "kernel", "span", "subspace_intersect",
    "LieAlgebra", "abelian", "central_product", "direct_sum",
    "minimal_generators",
    "FreeNilpotent", "free_nilpotent", "hall_basis", "witt_dimension",
    "HomologyReport",
    "schur_multiplier_dim", "exterior_square_dim", "exterior_center",
    "is_capable", "homology", "epicenter_test_dd",
    "build", "random_gen_heisenberg", "standard_instances",
    "Fingerprint", "Verdict", "capability_structural", "fingerprint",
    "verify_paper",
    "__version__",
]
