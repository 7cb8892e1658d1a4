"""Mean area of random triangles, three ways that must agree.

Vertices uniform in a rectangle or square (mean 11ab/144), uniform on the
unit square's boundary (mean 5/32), and boundary midpoint lattices whose
exact rational means approach 5/32; plus the mean tetrahedron volume in a
cube as a spatial companion.  Nested adaptive quadrature, seeded Monte
Carlo, and exact enumeration cross-check one another.
"""

from .frame import (
    expected_area_frame,
    side_case_value,
)
from .geometry import (
    CubeDomain,
    RectDomain,
    signed_area_xy,
    signed_volume_xyz,
)
from .lattice import (
    enumerate_mean_area,
    midpoint_lattice,
)
from .montecarlo import (
    CubeTetrahedron,
    EstimateResult,
    FrameTriangle,
    InteriorTriangle,
    Problem,
    estimate,
)
from .quadrature import (
    QuadConfig,
    RegionResult,
    interior_catalog,
    nested_quadrature,
)
from .regions import (
    AffineBound,
    Integrand,
    RegionSpec,
    exact_reference,
    normalizer_regions,
    rectangle_regions,
    region_catalog,
    sample_in_region,
)

__version__ = "0.1.0"
