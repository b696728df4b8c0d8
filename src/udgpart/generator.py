"""Random lambda-precision unit disk graph generation on a discretised unit square.

Nodes are placed one at a time on a uniform G x G grid of candidate
coordinates; placing a node marks every grid coordinate strictly closer than
``lam`` as unavailable, which enforces the pairwise minimum distance and
yields the plane-coverage measure as the fraction of unavailable cells.

Each draw picks the k-th free cell in row-major order, with k uniform over
the free-cell count.  A per-row free count locates that cell, so a node costs
O(G) work plus the disc area divided by 8, instead of a scan of all G^2
cells.  It is the same cell, from the same RNG stream, that a scan of the
whole grid would pick, which keeps the bundled seed tables valid.

The grid state is two bit planes, one bit per cell: ``free`` for the cells no
node is strictly within ``lam`` of, ``twice`` for those within ``lam`` of at
least two nodes, which is what the coverage measure counts.  Rows are padded
on both sides with never-free columns as wide as the disc's reach, so a disc
is clipped only at the top and bottom rows.  The disc is a set of integer
cell offsets, packed 8 to a byte once for each of the 8 bit positions a disc
row can start at, and built once per (lam, G) and process:
``_disc_stencil`` keeps the last 16 pairs in an LRU cache, so the retries of
``generate_connected``, the graphs of a seed row and the samples of a
``seed_search`` probe share one, and returns it read-only.  Per node, the
disc ANDed with ``free`` gives the cells newly blocked, which leave ``free``
and lower the per-row free counts by their popcount; the rest of the disc
goes into ``twice``.  The free counts total the free cells, which gives the
unavailable share without another pass over the grid.  An offset whose
squared length is too close to (lam G)^2 for the exact integer test to
predict the float distance test is borderline: it is left out of the packed
disc and decided per node by that float test, so every cell is marked
exactly as the per-cell float test marks it.
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
        if self.lam * self.lam == 0.0:
            # the placement test d**2 < lam*lam would then block no cell
            raise ValueError("lam too small: lam*lam underflows to 0")
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
    """The lam-disc of a node as bit-packed rows, once per start bit.

    Cached per (lam, res): 16 entries hold a whole ``DEGREE_SEEDS`` sweep
    (15 distinct lam), and the arrays come back read-only because every
    caller shares them.

    Returns ``(shifts, border_m, border_l, reach)``.  Offsets (m, l) lie in
    [-reach, reach]^2, and the disc holds those for which the cell
    (i + m, j + l) is strictly closer than ``lam`` to the node at (i, j) for
    every node.  ``shifts[s]`` is the disc packed with ``np.packbits``, in the
    transposed layout of the placement planes: byte ``b`` of row ``m + reach``
    sits at ``shifts[s, b, m + reach]``, and offset l is bit ``s + l + reach``
    of that row.  The borderline offsets, which every shift leaves at 0, are
    listed in ``border_m``/``border_l``; they are decided per node.

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
    side = 2 * reach + 1
    offsets = np.arange(-reach, reach + 1)
    sq = offsets * offsets
    dist2 = sq[:, None] + sq[None, :]
    target = (lam * res) ** 2
    margin = (lam * lam + 2.0) * res * res * 2.0**-48
    lo, hi = math.ceil(target - margin), math.floor(target + margin)
    disc = dist2 < lo
    # room for a row of the disc after any start bit 0..7
    width = (side + 7 + 7) // 8
    shifts = np.empty((8, width, side), dtype=np.uint8)
    for s in range(8):
        row_bits = np.zeros((side, 8 * width), dtype=bool)
        row_bits[:, s : s + side] = disc
        shifts[s] = np.packbits(row_bits, axis=1).T
    border_m, border_l = np.nonzero((lo <= dist2) & (dist2 <= hi))
    border_m, border_l = border_m - reach, border_l - reach
    for shared in (shifts, border_m, border_l):
        shared.flags.writeable = False
    return shifts, border_m, border_l, reach


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
    lam, lam2 = params.lam, params.lam * params.lam
    shifts, border_m, border_l, reach = _disc_stencil(lam, res)
    width = shifts.shape[1]
    # Two bit planes over the grid, one bit per cell, packed along a row
    # (np.packbits order) and stored transposed: plane[byte, a] holds the
    # cells (a, 8 byte - reach .. 8 byte - reach + 7).  Column b is padded
    # column b + reach, so a node at column j starts its disc at bit j of the
    # padded row and no disc is clipped at the left or right; the pad columns
    # are never free.  ``free`` marks the cells no node is strictly within lam
    # of, ``twice`` those within lam of at least two nodes (and possibly pad
    # cells, which coverage leaves out).
    real = np.zeros(8 * ((res - 1) // 8 + width), dtype=bool)
    real[reach : reach + res] = True
    real_bytes = np.packbits(real)
    free = np.repeat(real_bytes[:, None], res, axis=1)
    twice = np.zeros_like(free)
    row_free = np.full(res, res, dtype=np.int64)
    # newly blocked cells are counted per row into uint16, cheaper than int64,
    # whenever a disc row fits that type
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
        j = int(np.unpackbits(free[:, i]).nonzero()[0][k]) - reach
        x, y = i / res, j / res
        placed.append((x, y))
        st = shifts[j & 7]
        if border_m.size:
            # a borderline offset joins this node's disc where the float test
            # puts it inside; off the grid it lands in a pad column or in a
            # row cut off below
            inside = ((i + border_m) / res - x) ** 2 + ((j + border_l) / res - y) ** 2 < lam2
            c = (j & 7) + reach + border_l[inside]
            st = st.copy()
            bits = (0x80 >> (c & 7)).astype(np.uint8)
            np.bitwise_or.at(st, (c >> 3, border_m[inside] + reach), bits)
        # rows clipped at the grid edges; cells past reach are outside the
        # disc by more than the margin
        ilo, ihi = max(0, i - reach), min(res - 1, i + reach)
        band = slice(ilo, ihi + 1)
        cols = slice(j >> 3, (j >> 3) + width)
        st = st[:, ilo - i + reach : ihi - i + reach + 1]
        fr = free[cols, band]
        newly = st & fr
        fr ^= newly
        twice[cols, band] |= st ^ newly
        row_free[band] -= np.add.reduce(np.bitwise_count(newly), axis=0, dtype=row_sum)
    cells = res * res
    coverage = int(np.bitwise_count(twice & real_bytes[:, None]).sum()) / cells
    # row_free counts exactly the free cells
    unavailable = (cells - int(row_free.sum())) / cells
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
