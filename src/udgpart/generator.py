"""Random lambda-precision unit disk graph generation on a discretised unit square.

Nodes are placed one at a time on a uniform G x G grid of candidate
coordinates; placing a node marks every grid coordinate strictly closer than
``lam`` as unavailable, which enforces the pairwise minimum distance and
yields the plane-coverage measure as the fraction of unavailable cells.

Each draw picks the k-th free cell in row-major order, with k uniform over
the free-cell count.  A per-row free count locates that cell, so a node costs
O(G + disc area) work instead of a scan of all G^2 cells.  It is the same
cell, from the same RNG stream, that a scan of the whole grid would pick,
which keeps the bundled seed tables valid.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graphs import GeometricGraph, build_udg
from .seeds import SeedTableRow


class UnreachableTargetError(RuntimeError):
    """Raised when repeated generation never met the requested property."""

    def __init__(self, message, attempts, short_placements, disconnected_placements):
        super().__init__(message)
        self.attempts = attempts
        self.short_placements = short_placements
        self.disconnected_placements = disconnected_placements


class SeedSearchError(RuntimeError):
    """Raised when the binary search exhausted its probe budget.

    Carries the best probe observed so far so callers can inspect how close
    the search came.
    """

    def __init__(self, message, best_probe):
        super().__init__(message)
        self.best_probe = best_probe


@dataclass(frozen=True)
class GeneratorParams:
    node_count: int
    lam: float
    r_tr: float
    grid_resolution: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if not (0.0 < self.lam < self.r_tr):
            raise ValueError("need 0 < lam < r_tr")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")


@dataclass(frozen=True)
class PlacementResult:
    """Outcome of one placement run.

    ``coverage`` is the fraction of grid coordinates within ``lam`` of at
    least two placed nodes, the quantity the bundled seed tables are
    calibrated against (an area counts as covered once two sensing regions
    reach it).  ``unavailable_fraction`` is the plainer blocked-cell share,
    i.e. grid coordinates within ``lam`` of any node; it saturates at 1.0
    exactly when placement jams.
    """

    graph: GeometricGraph
    coverage: float
    unavailable_fraction: float
    placed: int


def place_nodes(params: GeneratorParams, rng=None) -> PlacementResult:
    """Place up to ``params.node_count`` nodes and build the UDG over them.

    Each step draws uniformly among the grid coordinates still available and
    marks the strict interior of the ``lam``-disc around the chosen
    coordinate unavailable.  Placement stops early once no coordinate is
    left; the caller sees that through ``placed``.
    """
    if rng is None:
        rng = np.random.default_rng(params.rng_seed)
    res = params.grid_resolution
    marks = np.zeros((res, res), dtype=np.uint8)
    row_free = np.full(res, res, dtype=np.int64)
    cell_coord = np.arange(res) / res
    lam, lam2 = params.lam, params.lam * params.lam
    placed: list[tuple[float, float]] = []
    for _ in range(params.node_count):
        free_before = np.cumsum(row_free)
        total = int(free_before[-1])
        if total == 0:
            break
        # the k-th free cell in row-major order, found row first
        k = int(rng.integers(total))
        i = int(np.searchsorted(free_before, k, side="right"))
        k -= int(free_before[i] - row_free[i])
        j = int(np.flatnonzero(marks[i] == 0)[k])
        x, y = i / res, j / res
        placed.append((x, y))
        ilo = max(0, int(math.floor((x - lam) * res)))
        ihi = min(res - 1, int(math.ceil((x + lam) * res)))
        jlo = max(0, int(math.floor((y - lam) * res)))
        jhi = min(res - 1, int(math.ceil((y + lam) * res)))
        dx2 = (cell_coord[ilo : ihi + 1] - x) ** 2
        dy2 = (cell_coord[jlo : jhi + 1] - y) ** 2
        inside = dx2[:, None] + dy2[None, :] < lam2
        block = marks[ilo : ihi + 1, jlo : jhi + 1]
        row_free[ilo : ihi + 1] -= (inside & (block == 0)).sum(axis=1)
        # marks saturate at 2; higher multiplicities are irrelevant
        np.minimum(block + inside.astype(np.uint8), 2, out=block)
    coverage = float(int((marks >= 2).sum()) / marks.size)
    unavailable = float(int((marks >= 1).sum()) / marks.size)
    graph = build_udg(placed, r_tr=params.r_tr, lam=params.lam)
    return PlacementResult(
        graph=graph,
        coverage=coverage,
        unavailable_fraction=unavailable,
        placed=len(placed),
    )


def generate_connected(
    params: GeneratorParams, rng=None, max_attempts: int = 100
) -> PlacementResult:
    """Repeat placement until a connected graph with the full node count appears.

    Raises :class:`UnreachableTargetError` when ``max_attempts`` placements
    were all rejected, counting the short placements and the full placements
    that came out disconnected.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    if rng is None:
        rng = np.random.default_rng(params.rng_seed)
    short_placements = 0
    disconnected_placements = 0
    for _ in range(max_attempts):
        result = place_nodes(params, rng)
        if result.placed < params.node_count:
            short_placements += 1
            continue
        if result.graph.is_connected():
            return result
        disconnected_placements += 1
    raise UnreachableTargetError(
        f"no connected graph with {params.node_count} nodes in {max_attempts} attempts",
        attempts=max_attempts,
        short_placements=short_placements,
        disconnected_placements=disconnected_placements,
    )


@dataclass(frozen=True)
class SeedSearchTargets:
    node_count: int
    deg_target: float
    deg_band: tuple[float, float] | None = None
    coverage_band: tuple[float, float] = (0.75, 0.80)
    sample_size: int = 20
    max_probes: int = 40
    grid_resolution: int = 1000

    def __post_init__(self):
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        band = self.deg_band or (self.deg_target, self.deg_target + 0.25)
        object.__setattr__(self, "deg_band", band)
        if not (band[0] <= band[1]) or not (self.coverage_band[0] <= self.coverage_band[1]):
            raise ValueError("bands must be non-empty")


def _sample_placements(node_count, lam, r_tr, grid_resolution, sample_size, base_seed):
    # derived seed per sample keeps probes comparable and reproducible
    out = []
    for i in range(sample_size):
        params = GeneratorParams(
            node_count=node_count,
            lam=lam,
            r_tr=r_tr,
            grid_resolution=grid_resolution,
            rng_seed=base_seed + i,
        )
        out.append(place_nodes(params))
    return out


def seed_search(targets: SeedSearchTargets, rng_seed: int = 0) -> SeedTableRow:
    """Find (lam, r_tr) whose sample means hit the coverage and degree bands.

    Two bisection phases: lam first against the coverage band (coverage grows
    with lam), then r_tr against the degree band on the lam that was
    accepted.  Every probe re-uses the same derived placement seeds, so each
    phase bisects a deterministic monotone response.  The probe budget is
    shared across both phases.
    """
    cov_lo, cov_hi = targets.coverage_band
    deg_lo, deg_hi = targets.deg_band
    probes_left = targets.max_probes
    best = None  # (gap, kind, value, sample stats)

    r_guess = 2.0 * math.sqrt(1.0 / (math.pi * targets.node_count))

    lam_lo, lam_hi = 0.0, r_guess
    lam = None
    placements = None
    mean_cov = None
    while probes_left > 0:
        probes_left -= 1
        trial = (lam_lo + lam_hi) / 2.0
        sample = _sample_placements(
            targets.node_count, trial, r_guess, targets.grid_resolution,
            targets.sample_size, rng_seed,
        )
        cov = sum(p.coverage for p in sample) / len(sample)
        gap = max(cov_lo - cov, cov - cov_hi, 0.0)
        if best is None or gap < best[0]:
            best = (gap, "lambda", trial, cov)
        if cov < cov_lo:
            lam_lo = trial
        elif cov > cov_hi:
            lam_hi = trial
        else:
            lam, placements, mean_cov = trial, sample, cov
            break
    if lam is None:
        raise SeedSearchError(
            f"coverage band {targets.coverage_band} not reached within "
            f"{targets.max_probes} probes",
            best_probe=best,
        )

    def degree_at(r_tr):
        degs = []
        for p in placements:
            g = build_udg(p.graph.positions, r_tr=r_tr, lam=lam)
            degs.append(g.avg_degree)
        return sum(degs) / len(degs)

    rt_lo, rt_hi = lam, 4.0 * lam
    while probes_left > 0 and degree_at(rt_hi) < deg_lo and rt_hi < math.sqrt(2.0):
        probes_left -= 1
        rt_lo, rt_hi = rt_hi, min(2.0 * rt_hi, math.sqrt(2.0))
    r_tr = None
    graphs = None
    mean_deg = None
    while probes_left > 0:
        probes_left -= 1
        trial = (rt_lo + rt_hi) / 2.0
        built = [build_udg(p.graph.positions, r_tr=trial, lam=lam) for p in placements]
        deg = sum(g.avg_degree for g in built) / len(built)
        gap = max(deg_lo - deg, deg - deg_hi, 0.0)
        if gap < best[0] or best[1] == "lambda":
            best = (gap, "r_tr", trial, deg)
        if deg < deg_lo:
            rt_lo = trial
        elif deg > deg_hi:
            rt_hi = trial
        else:
            r_tr, graphs, mean_deg = trial, built, deg
            break
    if r_tr is None:
        raise SeedSearchError(
            f"degree band {targets.deg_band} not reached within "
            f"{targets.max_probes} probes",
            best_probe=best,
        )

    # connectivity is a per-graph property, so the fraction is taken over the
    # sample members that actually placed the full node count
    full = [
        g
        for p, g in zip(placements, graphs)
        if p.placed == targets.node_count
    ]
    connected = sum(1 for g in full if g.is_connected())
    return SeedTableRow(
        node_count=targets.node_count,
        deg_exp=targets.deg_target,
        lam=lam,
        r_tr=r_tr,
        mean_coverage=mean_cov,
        mean_avg_degree=mean_deg,
        p_connected=connected / len(full) if full else 0.0,
    )
