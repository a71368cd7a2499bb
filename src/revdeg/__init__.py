"""revdeg: exact equivariant-degree engine for reversible delay systems.

Computes Brouwer equivariant degrees over O(2) x Gamma x Z2 (Gamma a finite
dihedral or cyclic group) through verified dihedral truncations, applies them
to second-order reversible systems with commensurate delays to produce
existence certificates for symmetric periodic solutions, and numerically
verifies the curvature/growth hypotheses on symmetric planar domains.
"""

from .burnside import BurnsideElement, recurrence, unit
from .chars import CharacterTable, character_table, minus_irreps
from .config import AnalysisConfig, load_example, parse_config
from .degrees import Certificate, DegreeEngine, DegreeReport
from .geometry import (
    DomainSpec,
    FFamilySpec,
    PolarTrigPolynomial,
    apriori_m,
    apriori_m_log,
    apriori_n,
    boundary_radius,
    check_conditions,
    circle_domain,
    curvature,
    grad_norm_on_boundary,
    octagon_domain,
)
from .groups import (
    FiniteGroup,
    SubgroupClass,
    direct_product,
    gamma_z2_subgroups,
    make_cyclic,
    make_dihedral,
    make_gamma,
    subgroup_classes,
)
from .lattice import AmalgamData, ClassLattice, O2Desc
from .report import ReportDocument, run_analyze
from .spectra import LinearizationSpec, SpectralSummary, spectral_summary, xi

__all__ = [
    "AmalgamData", "AnalysisConfig", "BurnsideElement", "Certificate",
    "CharacterTable", "ClassLattice", "DegreeEngine", "DegreeReport",
    "DomainSpec", "FFamilySpec", "FiniteGroup", "LinearizationSpec", "O2Desc",
    "PolarTrigPolynomial", "ReportDocument", "SpectralSummary",
    "SubgroupClass", "apriori_m", "apriori_m_log",
    "apriori_n", "boundary_radius", "character_table", "check_conditions",
    "circle_domain", "curvature", "direct_product", "gamma_z2_subgroups",
    "grad_norm_on_boundary",
    "load_example", "make_cyclic", "make_dihedral", "make_gamma",
    "minus_irreps", "octagon_domain",
    "parse_config", "recurrence", "run_analyze", "spectral_summary",
    "subgroup_classes", "unit", "xi",
]

__version__ = "0.1.0"
