"""helmcut: exact-arithmetic toolkit for Helmholtz and weakly-Helmholtz
conditions on triangulated 3-dimensional domains and on links given by
planar diagrams."""

from .complexes import (
    ComplexError,
    MarkedComplex,
    NotADomainError,
    SimplicialComplex,
    SurfaceInfo,
    barycentric_subdivide,
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
    relative_surface_classes,
    surface_system_from_marks,
    validate_surface_system,
)
from .domains import (
    DomainReport,
    LagrangianReport,
    analyze_domain,
    corank_bounds,
    intersection_form,
    is_simple,
    kernel_of_boundary_inclusion,
    lagrangian_obstruction,
)
from .exact_linalg import IntegerMatrix, SmithDecomposition, smith_normal_form
from .groups import (
    GroupPresentation,
    MagnusSeries,
    MubarValue,
    RewriteDepthError,
    abelianize,
    longitude_word,
    magnus_expand,
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
    linking_number,
    mirror_diagram,
    parse_pd,
    remove_kinks,
    seifert_data,
)
from .homology import (
    BoundaryWitness,
    HomologyGroup,
    InducedMap,
    InternalConsistencyError,
    NotACycleError,
    homology_groups,
    induced_map_image,
    is_boundary_witness,
    relative_homology,
)

__all__ = [name for name in dir() if not name.startswith("_")]
