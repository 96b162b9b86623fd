"""helmcut: exact-arithmetic toolkit for Helmholtz and weakly-Helmholtz
conditions on triangulated 3-dimensional domains and on links given by
planar diagrams."""

from .complexes import (
    ComplexError,
    MarkedComplex,
    NotADomainError,
    SimplicialComplex,
    boundary_subcomplex,
    build_complex,
    connected_components,
    euler_characteristic,
    mapping_torus,
    product_with_interval,
    surface_info,
)
from .builders import (
    BuildError,
    LatticePath,
    domain_corpus,
    lattice_link_complement,
    parse_lattice_paths,
    preset,
    preset_names,
)
from .cuts import (
    CutResult,
    CutVerdict,
    SurfaceSystem,
    SurfaceSystemError,
    classify_cut_system,
    cut_open,
    find_minimal_weak_subsets,
    surface_system_from_marks,
    validate_surface_system,
)
from .domains import (
    DomainReport,
    LagrangianReport,
    analyze_domain,
    intersection_form,
    is_simple,
    kernel_of_boundary_inclusion,
    lagrangian_obstruction,
)
from .exact_linalg import IntegerMatrix, smith_normal_form
from .groups import (
    GroupPresentation,
    MagnusSeries,
    MubarValue,
    abelianize,
    longitude_words,
    milnor_mu,
    milnor_mubar,
    wirtinger,
)
from .links import (
    DiagramError,
    LinkDiagram,
    LinkVerdict,
    SeifertData,
    diagram,
    diagram_names,
    link_helmholtz_verdict,
    linking_matrix,
    parse_pd,
    seifert_data,
)
from .homology import (
    BoundaryWitness,
    HomologyGroup,
    InternalConsistencyError,
    NotACycleError,
    homology_groups,
    is_boundary_witness,
)

__all__ = [name for name in dir() if not name.startswith("_")]
