"""Gridded daily precipitation data model and the GRD1 on-disk container.

GRD1 is little-endian: magic "GRD1" | version u32=1 | T u32 | H u32 | W u32
| start_date i64 (days since 1970-01-01) | H x f64 lats | W x f64 lons |
T*H*W x f32 values in [t][lat][lon] order, NaN = missing. Static attribute
files use the same container with T=1, one file per attribute.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FormatError, InvariantError, LengthError

GRD1_MAGIC = b"GRD1"
GRD1_VERSION = 1
EARTH_RADIUS_KM = _kernels.EARTH_RADIUS_KM
TAU_WET = 1.0  # wet-day threshold, mm/day

LANDCOVER_CODES = (0, 1, 2, 3)


def check_window(name: str, window: tuple[int, int], n_days: int) -> None:
    """Reject a day window (t0, t1) unless 0 <= t0 < t1 <= n_days: numpy
    slicing would wrap a negative start and cut an end past the field short."""
    t0, t1 = window
    if not 0 <= t0 < t1 <= n_days:
        raise InvariantError(f"{name} window {t0}:{t1} outside the field of {n_days} days")


def _check_coord(name: str, arr: np.ndarray) -> None:
    if arr.ndim != 1 or arr.size == 0:
        raise InvariantError(f"{name} must be a non-empty 1-D array")
    d = np.diff(arr)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise InvariantError(f"{name} must be strictly monotone")


@dataclass(frozen=True)
class GridField:
    """Daily precipitation on a regular lat/lon grid. values has layout
    [time][lat][lon], float32, mm/day, NaN = missing: validate, run on
    construction and by write_grd, turns ±inf into NaN in a copy.
    start_date counts days since 1970-01-01."""

    start_date: int
    lats: np.ndarray
    lons: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lats", np.asarray(self.lats, dtype=np.float64))
        object.__setattr__(self, "lons", np.asarray(self.lons, dtype=np.float64))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float32))
        self.validate()

    def validate(self) -> None:
        _check_coord("lats", self.lats)
        _check_coord("lons", self.lons)
        if np.max(np.abs(self.lats)) > 90.0:
            raise InvariantError("latitudes must satisfy |lat| <= 90")
        if self.values.ndim != 3:
            raise InvariantError("values must have layout [time][lat][lon]")
        T, H, W = self.values.shape
        if H != self.lats.size or W != self.lons.size:
            raise InvariantError("values shape does not match coordinate arrays")
        # fmin and fmax skip NaN: two passes with no whole-field temporary
        lo, hi = (f.reduce(self.values, axis=None, initial=0.0) for f in (np.fmin, np.fmax))
        if np.isinf(lo) or np.isinf(hi):
            object.__setattr__(self, "values", np.where(np.isinf(self.values), np.nan, self.values))
            lo = np.fmin.reduce(self.values, axis=None, initial=0.0)
        if lo < 0:
            raise InvariantError("precipitation values must be non-negative or NaN")

    @property
    def n_cells(self) -> int:
        return self.lats.size * self.lons.size


@dataclass(frozen=True)
class AttributeField:
    """Static per-cell attributes on the same grid as an associated GridField."""

    lats: np.ndarray
    lons: np.ndarray
    elevation: np.ndarray  # m
    slope: np.ndarray      # degrees
    aspect: np.ndarray     # degrees in [0, 360)
    landcover: np.ndarray  # categorical codes from LANDCOVER_CODES

    def __post_init__(self):
        for name in ("lats", "lons", "elevation", "slope", "aspect", "landcover"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        _check_coord("lats", self.lats)
        _check_coord("lons", self.lons)
        hw = (self.lats.size, self.lons.size)
        for name in ("elevation", "slope", "aspect", "landcover"):
            if getattr(self, name).shape != hw:
                raise InvariantError(f"attribute {name} must have shape {hw}")
        for name in ("elevation", "slope", "aspect"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InvariantError(f"attribute {name} must be finite")
        if np.any(self.aspect < 0) or np.any(self.aspect >= 360):
            raise InvariantError("aspect must lie in [0, 360)")
        if not np.all(np.isin(self.landcover, LANDCOVER_CODES)):
            raise InvariantError(f"landcover codes must come from {LANDCOVER_CODES}")


@dataclass(frozen=True)
class NeighborGraph:
    """Per-cell ordered neighbor patches with geodesic pair features.

    indices[i, j] is the flat cell index of cell i's j-th neighbor, -1 the
    one marker of an empty slot; features are (dnorth km, deast km, distance
    km, bearing deg) of the neighbor relative to cell i. Both are checked on
    construction, and the indices are stored as int32.
    """

    lats: np.ndarray
    lons: np.ndarray
    indices: np.ndarray   # (N, k) int32
    features: np.ndarray  # (N, k, 4) float64

    def __post_init__(self):
        n = np.size(self.lats) * np.size(self.lons)
        idx, feats = np.asarray(self.indices), np.asarray(self.features)
        # NaN fails every comparison, and a fraction differs from its floor
        if not (idx.ndim == 2 and len(idx) == n and feats.shape == idx.shape + (4,)
                and np.all((idx >= -1) & (idx < n) & (np.floor(idx) == idx))
                and np.isfinite(feats).all()):
            raise InvariantError(f"a neighbor graph needs ({n}, k) integer indices in "
                                 f"[-1, {n}) and finite ({n}, k, 4) features")
        object.__setattr__(self, "indices", idx.astype(np.int32, copy=False))

    @property
    def mask(self) -> np.ndarray:
        """(N, k) bool, True where the slot holds a neighbor."""
        return self.indices >= 0


def cell_days(fld: GridField, name: str, window: tuple[int, int] | None = None) -> np.ndarray:
    """Days t0:t1 of a window (every day without one) of each cell of fld as
    (cells, days) rows, a view of its float32 values. The window is checked
    first, under `name` (see check_window)."""
    if window is None:
        window = (0, fld.values.shape[0])
    else:
        check_window(name, window, fld.values.shape[0])
    t0, t1 = window
    return fld.values[t0:t1].reshape(t1 - t0, fld.n_cells).T


def check_same_grid(name: str, a, b) -> None:
    """Raise InvariantError naming ``name`` unless a and b lie on one grid:
    equal lats and lons, whatever each is (field, attributes or graph)."""
    if not (np.array_equal(a.lats, b.lats) and np.array_equal(a.lons, b.lons)):
        raise InvariantError(f"{name} grid does not match the grid it is used with")


# ---------------------------------------------------------------------------
# GRD1 container
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIIq")


def write_grd(fld: GridField, path) -> None:
    fld.validate()
    T, H, W = fld.values.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(GRD1_MAGIC, GRD1_VERSION, T, H, W, int(fld.start_date)))
        # each array's own buffer, copied only when it is not contiguous
        # little-endian already
        for arr, dtype in ((fld.lats, "<f8"), (fld.lons, "<f8"), (fld.values, "<f4")):
            f.write(np.ascontiguousarray(arr, dtype=dtype))


def read_grd(path) -> GridField:
    """Read a GRD1 file, a regular file whose length fstat reports. The
    sizes are checked against that length before anything is allocated, and
    the values are read straight into their array."""
    with open(path, "rb") as f:
        length = os.fstat(f.fileno()).st_size
        if length < _HEADER.size:
            raise LengthError(f"{path}: truncated header")
        magic, version, T, H, W, start_date = _HEADER.unpack(f.read(_HEADER.size))
        if magic != GRD1_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != GRD1_VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        size = _HEADER.size + 8 * (H + W) + 4 * T * H * W
        if length != size:
            raise LengthError(f"{path}: header declares {size} bytes, file has {length}")
        coords = np.empty(H + W, dtype="<f8")
        values = np.empty((T, H, W), dtype="<f4")
        if f.readinto(coords) != coords.nbytes or f.readinto(values) != values.nbytes:
            raise LengthError(f"{path}: file shrank while it was read")
    return GridField(start_date=start_date, lats=coords[:H], lons=coords[H:], values=values)


def write_attribute_grd(arr: np.ndarray, lats, lons, path) -> None:
    """Store one static attribute in the GRD1 container with T=1."""
    fld = GridField(start_date=0, lats=lats, lons=lons,
                    values=np.asarray(arr, dtype=np.float32)[None, :, :])
    write_grd(fld, path)


def read_attribute_grd(path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    fld = read_grd(path)
    if fld.values.shape[0] != 1:
        raise FormatError(f"{path}: attribute files must have T=1")
    return fld.values[0].astype(np.float64), fld.lats, fld.lons


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def geodesic_features_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """(dnorth km, deast km, great-circle distance km, initial bearing deg)
    from points 1 to points 2; broadcasts its inputs, and the output has a
    trailing axis of 4. Coincident points give all zeros."""
    dist = _kernels.pairwise_haversine(lat1, lon1, lat2, lon2)
    lat1, lon1, lat2, lon2 = np.broadcast_arrays(
        *(np.radians(np.asarray(a, dtype=np.float64)) for a in (lat1, lon1, lat2, lon2)))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    y = np.sin(dlon) * np.cos(lat2)
    x = np.cos(lat1) * np.sin(lat2) - np.sin(lat1) * np.cos(lat2) * np.cos(dlon)
    bearing = np.where((y == 0.0) & (x == 0.0), 0.0, np.degrees(np.arctan2(y, x)) % 360.0)
    bearing = np.where(bearing == 360.0, 0.0, bearing)
    dnorth = EARTH_RADIUS_KM * dlat
    deast = EARTH_RADIUS_KM * dlon * np.cos((lat1 + lat2) / 2.0)
    return np.stack([dnorth, deast, dist, bearing], axis=-1)


def grid_cell_coords(lats: np.ndarray, lons: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat per-cell latitude/longitude arrays in [lat][lon] (row-major) order."""
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    return glat.ravel(), glon.ravel()


# ---------------------------------------------------------------------------
# neighbor selection
# ---------------------------------------------------------------------------

MIN_CORR_DAYS = 30


def _pairwise_correlation(series: np.ndarray) -> np.ndarray:
    """Pearson correlation between all cell pairs of (T, N) series of
    float32 values held as float64.

    Missing days drop pairwise; a pair with fewer than MIN_CORR_DAYS shared
    valid days is NaN. Zero-variance pairs: +1 when the two series are
    identical over their shared valid days, otherwise NaN (excluded).

    All pairs come from matrix products over the finite masks: with m the
    mask and x each series minus its own mean (0 where missing), m'm counts
    the shared days, x'm and (x*x)'m sum over them and x'x holds the cross
    products, so var[i, j] is the sum of squared deviations of i over the
    days it shares with j. Centring first keeps the one-pass formula away
    from cancellation. Pairs whose var is not clearly positive take the
    zero-variance rule: those of a cell constant over all its valid days
    from one more product, any others one pair at a time.
    """
    finite = np.isfinite(series)
    m = finite.astype(np.float64)
    x = np.where(finite, series, 0.0)
    x -= x.sum(axis=0) / np.maximum(m.sum(axis=0), 1.0)
    x[~finite] = 0.0
    n = m.T @ m
    sx = x.T @ m
    sxx = (x * x).T @ m
    corr = x.T @ x
    with np.errstate(divide="ignore", invalid="ignore"):
        corr -= sx * sx.T / n                  # covariance over shared days
        var = sxx - sx * sx / n
        flat = var <= 1e-12 * sxx
        flat |= flat.T
        var *= var.T
        corr /= np.sqrt(var, out=var)
    few = n < MIN_CORR_DAYS
    corr[few] = np.nan
    flat &= ~few
    # a cell constant over all its valid days (a dry cell, say) is constant
    # over every pair's shared days, where the per-pair rule finds zero std
    # (the values are float32, so sums of copies of one value are exact in
    # float64): such a pair is +1 exactly when the partner differs from the
    # constant on none of those days, and one product counts them for all
    # cells of the same constant
    lo = np.where(finite, series, np.inf).min(axis=0)
    const = np.nonzero(lo == np.where(finite, series, -np.inf).max(axis=0))[0]
    for c in np.unique(lo[const]):
        rows = const[lo[const] == c]
        differ = m[:, rows].T @ (finite & (series != c)).astype(np.float64)
        r, j = np.nonzero(flat[rows])
        i = rows[r]
        corr[i, j] = corr[j, i] = np.where(differ[r, j] == 0, 1.0, np.nan)
        flat[i, j] = flat[j, i] = False
    for i, j in zip(*np.nonzero(np.triu(flat))):
        both = finite[:, i] & finite[:, j]
        a, b = series[both, i], series[both, j]
        if a.std() == 0 or b.std() == 0:
            corr[i, j] = 1.0 if np.array_equal(a, b) else np.nan
        else:
            corr[i, j] = np.corrcoef(a, b)[0, 1]
        corr[j, i] = corr[i, j]
    return corr


def select_neighbors(fld: GridField, k: int, window: tuple[int, int]) -> NeighborGraph:
    """For each cell, its k geodesically nearest cells with strictly positive
    correlation over the window, distance-ordered, ties by flat index."""
    if k < 1:
        raise InvariantError("k must be at least 1")
    check_window("correlation", window, fld.values.shape[0])
    t0, t1 = window
    sub = fld.values[t0:t1].astype(np.float64)
    n_valid = np.isfinite(sub).sum(axis=0).ravel()
    if np.any(n_valid < MIN_CORR_DAYS):
        raise InvariantError(
            f"correlation window must contain >= {MIN_CORR_DAYS} non-missing days per cell")
    N = fld.n_cells
    good = _pairwise_correlation(sub.reshape(sub.shape[0], N)) > 0
    np.fill_diagonal(good, False)
    clat, clon = grid_cell_coords(fld.lats, fld.lons)
    key = _kernels.pairwise_haversine(clat[:, None], clon[:, None],
                                      clat[None, :], clon[None, :])
    key[~good] = np.inf
    order = np.argsort(key, axis=1, kind="stable")[:, :k]
    sel = np.take_along_axis(good, order, axis=1)
    geo = geodesic_features_arrays(clat[:, None], clon[:, None], clat[order], clon[order])
    m = order.shape[1]
    indices = np.full((N, k), -1, dtype=np.int32)
    indices[:, :m] = np.where(sel, order, -1)
    feats = np.zeros((N, k, 4))
    feats[:, :m] = np.where(sel[..., None], geo, 0.0)
    return NeighborGraph(lats=fld.lats.copy(), lons=fld.lons.copy(),
                         indices=indices, features=feats)
