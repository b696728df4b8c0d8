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

The disc is a stencil over integer cell offsets, built once per (lam, G)
and process: ``_disc_stencil`` keeps the last 16 pairs in an LRU cache, so
the retries of ``generate_connected``, the graphs of a seed row and the
samples of a ``seed_search`` probe share one, and returns it read-only.  Each
node adds the stencil, clipped at the grid edges, onto its block of the
grid, and the per-row free counts drop by the cells newly blocked; their
total gives the unavailable share without another pass over the grid.  An
offset whose squared length is too close to (lam G)^2 for the exact
integer test to predict the float distance test is borderline: it is left
out of the stencil and decided per node by that float test, so every cell
is marked exactly as the per-cell float test marks it.
"""

import functools
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
        if not (0.0 < self.lam < self.r_tr < math.inf):
            raise ValueError("need 0 < lam < r_tr < inf")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
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


@functools.lru_cache(maxsize=16)
def _disc_stencil(lam: float, res: int):
    """The lam-disc of a node as a uint8 stencil over integer cell offsets.

    Cached per (lam, res): 16 entries hold a whole ``DEGREE_SEEDS`` sweep
    (15 distinct lam), and the arrays come back read-only because every
    caller shares them.

    Returns ``(stencil, border_m, border_l, reach)``: offsets (m, l) in
    [-reach, reach]^2 sit at ``stencil[m + reach, l + reach]``, which is 1
    where the cell (i + m, j + l) is strictly closer than ``lam`` to the node
    at (i, j) for every node, and 0 elsewhere.  The borderline offsets, which
    the stencil leaves at 0, are listed in ``border_m``/``border_l``; they are
    decided per node.

    The placement test of a cell is the float expression
    ``(a/G - i/G)**2 + (b/G - j/G)**2 < lam*lam``.  Write m = a - i,
    l = b - j and e = 2**-53, and drop terms in e**2.  Each quotient is off by
    at most e (a, i < G), so the difference is within 3e of m/G (|m/G| < 1),
    its square within 7e of (m/G)**2, the sum within 16e of
    (m**2 + l**2)/G**2, and ``lam*lam`` within lam**2 e of lam**2.  The
    expression therefore agrees with the exact test m**2 + l**2 < (lam G)**2
    whenever the two sides differ by more than (lam**2 + 17) e G**2.  The
    margin below, 32 (lam**2 + 2) e G**2, exceeds that by
    (31 lam**2 + 47) e G**2, more than the rounding of (lam G)**2 and of the
    band's ends (about 5 lam**2 e G**2), for every lam and G.  Only integers
    m**2 + l**2 inside the band are borderline: none unless (lam G)**2 is
    within about 7e-9 of an integer at G = 1000, as it is for lam = 0.05.
    """
    # from lam = 2 on the disc holds every offset on the grid, and
    # (lam G)**2 may overflow
    lam = min(lam, 2.0)
    reach = min(res - 1, math.ceil(lam * res) + 1)
    offsets = np.arange(-reach, reach + 1)
    sq = offsets * offsets
    dist2 = sq[:, None] + sq[None, :]
    target = (lam * res) ** 2
    margin = (lam * lam + 2.0) * res * res * 2.0**-48
    lo, hi = math.ceil(target - margin), math.floor(target + margin)
    stencil = (dist2 < lo).astype(np.uint8)
    border_m, border_l = np.nonzero((lo <= dist2) & (dist2 <= hi))
    border_m, border_l = border_m - reach, border_l - reach
    for shared in (stencil, border_m, border_l):
        shared.flags.writeable = False
    return stencil, border_m, border_l, reach


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
    # marks[a, b] counts the placed nodes strictly within lam of cell (a, b).
    # Placed nodes are pairwise at least lam apart, and two points strictly
    # within lam of a cell and at most 60 degrees apart as seen from it are
    # closer than lam to each other, so no count exceeds 5 and uint8 holds it.
    marks = np.zeros((res, res), dtype=np.uint8)
    row_free = np.full(res, res, dtype=np.int64)
    cell_coord = np.arange(res) / res
    lam, lam2 = params.lam, params.lam * params.lam
    stencil, border_m, border_l, reach = _disc_stencil(lam, res)
    # newly blocked cells are summed per row as uint8 into uint16, 2-3x
    # faster than count_nonzero, whenever a stencil row fits that type
    row_sum = np.uint16 if 2 * reach + 1 <= np.iinfo(np.uint16).max else np.int64
    placed: list[tuple[float, float]] = []
    for _ in range(params.node_count):
        free_before = row_free.cumsum()
        total = int(free_before[-1])
        if total == 0:
            break
        # the k-th free cell in row-major order, found row first
        k = int(rng.integers(total))
        i = int(np.searchsorted(free_before, k, side="right"))
        k -= int(free_before[i] - row_free[i])
        j = int((marks[i] == 0).nonzero()[0][k])
        x, y = i / res, j / res
        placed.append((x, y))
        # the stencil clipped at the grid edges; cells past reach are outside
        # the disc by more than the margin
        ilo, ihi = max(0, i - reach), min(res - 1, i + reach)
        jlo, jhi = max(0, j - reach), min(res - 1, j + reach)
        block = marks[ilo : ihi + 1, jlo : jhi + 1]
        disc = stencil[
            ilo - i + reach : ihi - i + reach + 1, jlo - j + reach : jhi - j + reach + 1
        ]
        newly = np.greater(disc, block)
        row_free[ilo : ihi + 1] -= np.add.reduce(newly.view(np.uint8), axis=1, dtype=row_sum)
        block += disc
        if border_m.size:
            a, b = i + border_m, j + border_l
            keep = (ilo <= a) & (a <= ihi) & (jlo <= b) & (b <= jhi)
            a, b = a[keep], b[keep]
            inside = (cell_coord[a] - x) ** 2 + (cell_coord[b] - y) ** 2 < lam2
            a, b = a[inside], b[inside]
            np.subtract.at(row_free, a[marks[a, b] == 0], 1)
            marks[a, b] += 1
    coverage = np.count_nonzero(marks >= 2) / marks.size
    # row_free counts exactly the unmarked cells
    unavailable = (marks.size - int(row_free.sum())) / marks.size
    graph = build_udg(placed, r_tr=params.r_tr, lam=params.lam)
    return PlacementResult(
        graph=graph,
        coverage=coverage,
        unavailable_fraction=unavailable,
        placed=len(placed),
    )


def generate_connected(params: GeneratorParams, max_attempts: int = 100) -> PlacementResult:
    """Repeat placement until a connected graph with the full node count appears.

    Raises :class:`UnreachableTargetError` when ``max_attempts`` placements
    were all rejected, counting the short placements and the full placements
    that came out disconnected.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
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
    coverage_band: tuple[float, float] = (0.75, 0.80)
    sample_size: int = 20
    max_probes: int = 40
    grid_resolution: int = 1000

    def __post_init__(self):
        if self.node_count < 1:
            raise ValueError("node_count must be >= 1")
        if self.sample_size < 1:
            raise ValueError("sample_size must be >= 1")
        if self.max_probes < 1:
            raise ValueError("max_probes must be >= 1")
        if self.grid_resolution < 2:
            raise ValueError("grid_resolution must be >= 2")
        deg_lo, deg_hi = self.deg_band
        if not (deg_lo <= deg_hi) or not (self.coverage_band[0] <= self.coverage_band[1]):
            raise ValueError("bands must be non-empty")

    @property
    def deg_band(self) -> tuple[float, float]:
        return (self.deg_target, self.deg_target + 0.25)


def _bisect(lo, hi, band, probe, probes_left, kind):
    """Bisect [lo, hi] until the mean that ``probe(x)`` returns lands in ``band``.

    ``probe(x)`` returns ``(mean, sample)`` with the mean growing in x.
    Returns ``(x, mean, sample, probes_left, best_probe)``; x, mean and sample
    are None when the probes ran out first.  ``best_probe`` is the
    ``(gap, kind, x, mean)`` of the probe closest to the band, or None when
    no probe was left.
    """
    best = None
    while probes_left > 0:
        probes_left -= 1
        x = (lo + hi) / 2.0
        mean, sample = probe(x)
        gap = max(band[0] - mean, mean - band[1], 0.0)
        if best is None or gap < best[0]:
            best = (gap, kind, x, mean)
        if mean < band[0]:
            lo = x
        elif mean > band[1]:
            hi = x
        else:
            return x, mean, sample, probes_left, best
    return None, None, None, probes_left, best


def seed_search(targets: SeedSearchTargets, rng_seed: int = 0) -> SeedTableRow:
    """Find (lam, r_tr) whose sample means hit the coverage and degree bands.

    Two bisection phases: lam first against the coverage band (coverage grows
    with lam), then r_tr against the degree band on the lam that was
    accepted.  Every probe re-uses the same derived placement seeds, so each
    phase bisects a deterministic monotone response.  The probe budget is
    shared across both phases.
    """
    r_guess = 2.0 * math.sqrt(1.0 / (math.pi * targets.node_count))

    def coverage(lam):
        # derived seed per sample keeps probes comparable and reproducible
        sample = [
            place_nodes(
                GeneratorParams(
                    node_count=targets.node_count,
                    lam=lam,
                    r_tr=r_guess,
                    grid_resolution=targets.grid_resolution,
                    rng_seed=rng_seed + i,
                )
            )
            for i in range(targets.sample_size)
        ]
        return sum(p.coverage for p in sample) / len(sample), sample

    lam, mean_cov, placements, probes_left, best = _bisect(
        0.0, r_guess, targets.coverage_band, coverage, targets.max_probes, "lambda"
    )
    if lam is None:
        raise SeedSearchError(
            f"coverage band {targets.coverage_band} not reached within "
            f"{targets.max_probes} probes",
            best_probe=best,
        )

    def degree(r_tr):
        built = [build_udg(p.graph.positions, r_tr=r_tr, lam=lam) for p in placements]
        return sum(g.avg_degree for g in built) / len(built), built

    # widen r_tr until the degree band is in reach; the check that ends the
    # widening is not charged to the budget
    rt_lo, rt_hi = lam, 4.0 * lam
    while probes_left > 0 and degree(rt_hi)[0] < targets.deg_band[0] and rt_hi < math.sqrt(2.0):
        probes_left -= 1
        rt_lo, rt_hi = rt_hi, min(2.0 * rt_hi, math.sqrt(2.0))
    r_tr, mean_deg, graphs, _, rt_best = _bisect(
        rt_lo, rt_hi, targets.deg_band, degree, probes_left, "r_tr"
    )
    if r_tr is None:
        raise SeedSearchError(
            f"degree band {targets.deg_band} not reached within "
            f"{targets.max_probes} probes",
            best_probe=rt_best or best,
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
