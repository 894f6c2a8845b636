"""Exception types shared across the package."""


class MassChaseError(Exception):
    """Base class for all package-specific errors."""


class ZeroMass(MassChaseError):
    """Operation requires strictly positive total mass."""


class GridMismatch(MassChaseError):
    """Two grid-sampled functions live on different grids."""


class TubeOverflow(MassChaseError):
    """A transported support would leave the grid domain."""


class NotReduced(MassChaseError):
    """Operation requires the rigid-translation (constant-control) reduction."""


class TooDeep(MassChaseError):
    """Exhaustive game-tree evaluation requested beyond the depth cap."""


class BoxOverflow(MassChaseError):
    """A reachable translation offset leaves the value-table box."""
