"""horocalc: exact horofunction and Busemann-point computations on the
Cayley graphs of abelian lattices, discrete Heisenberg groups, and the
discrete Cartan group."""

__version__ = "0.1.0"

from .errors import (
    BudgetExceededError,
    DegenerateInputError,
    GroupKindMismatchError,
    HorocalcError,
    ParseError,
    SpecNotGeodesicError,
    UnknownLabelError,
)
from .groups import (
    AbelianElement,
    CartanElement,
    GroupElement,
    HeisenbergElement,
    MarkedGroup,
    Word,
    abelianize,
    commutator_z_exponent,
    group_from_json,
    load_group,
    marked_abelian,
    marked_cartan,
    marked_heisenberg,
    parse_word,
    standard_group,
)
from .horoboundary import (
    BusemannEstimate,
    DigitizedRay,
    PeriodicRay,
    busemann_eval,
    cofinal_orbit_witness,
    horofn_window,
    lift_ray,
    ray_prefix,
    reduced_equiv,
    same_busemann,
)
from .metric import (
    DistanceTable,
    LengthResult,
    ball,
    exact_length,
    geodesic_verdict,
    length_within,
    word_length,
)
from .polytope import IMPROPER, Face, Polytope
from .winding import cartan_path_oracle

__all__ = [name for name in dir() if not name.startswith("_")]
