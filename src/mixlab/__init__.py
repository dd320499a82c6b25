"""mixlab: a numerical laboratory for special flows over linear skew-shifts.

Subpackages cover group arithmetic on the unipotent 3x3 matrix group and
its torus section (``heisenberg``), skew-shift Birkhoff machinery
(``skewshift``), the Fourier engine for invariant distributions and
transfer functions (``cohomology``), special-flow simulation and mixing
estimators (``specialflow``), and the experiment CLI (``cli``).
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateSection,
    InvalidRoofFile,
    MixlabError,
    NonPositiveRoof,
    NotACoboundary,
    NonzeroFiberAverage,
    ObstructionNonzero,
    RationalAlpha,
    SmallDivisor,
)
from .trigpoly import FiberedTrigPoly, TrigPoly1D
from .skewshift import SkewShift, TorusPoint, load_roof, save_roof

__all__ = [
    "__version__",
    "DegenerateSection",
    "InvalidRoofFile",
    "MixlabError",
    "NonPositiveRoof",
    "NotACoboundary",
    "NonzeroFiberAverage",
    "ObstructionNonzero",
    "RationalAlpha",
    "SmallDivisor",
    "FiberedTrigPoly",
    "TrigPoly1D",
    "SkewShift",
    "TorusPoint",
    "load_roof",
    "save_roof",
]
