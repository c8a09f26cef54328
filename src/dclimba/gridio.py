"""Gridded daily precipitation data model and the GRD1 on-disk container.

GRD1 is little-endian: magic "GRD1" | version u32=1 | T u32 | H u32 | W u32
| start_date i64 (days since 1970-01-01) | H x f64 lats | W x f64 lons |
T*H*W x f32 values in [t][lat][lon] order, NaN = missing. Static attribute
files use the same container with T=1, one file per attribute.
"""

from __future__ import annotations

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


def _check_coord(name: str, arr: np.ndarray) -> None:
    if arr.ndim != 1 or arr.size == 0:
        raise InvariantError(f"{name} must be a non-empty 1-D array")
    d = np.diff(arr)
    if not (np.all(d > 0) or np.all(d < 0)):
        raise InvariantError(f"{name} must be strictly monotone")


@dataclass(frozen=True)
class GridField:
    """Daily precipitation on a regular lat/lon grid.

    values has layout [time][lat][lon], float32, mm/day, NaN = missing.
    start_date counts days since 1970-01-01.
    """

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
        v = self.values
        if np.any(v[np.isfinite(v)] < 0):
            raise InvariantError("precipitation values must be non-negative")

    @property
    def shape(self):
        return self.values.shape

    @property
    def n_cells(self) -> int:
        return self.lats.size * self.lons.size

    def series(self, flat_index: int) -> np.ndarray:
        """Daily series of one cell as float64."""
        T, H, W = self.values.shape
        return self.values.reshape(T, H * W)[:, flat_index].astype(np.float64)


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
class WetDayIndicator:
    """Binary wet-day series, 1 exactly where precipitation >= tau_wet on a
    non-missing day; missing days are masked out."""

    tau_wet: float
    values: np.ndarray  # [time][lat][lon] uint8
    mask: np.ndarray    # [time][lat][lon] bool, True = valid day


@dataclass(frozen=True)
class NeighborGraph:
    """Per-cell ordered neighbor patches with geodesic pair features.

    indices[i, j] is the flat cell index of cell i's j-th neighbor (-1 when
    the slot is masked); features are (dnorth km, deast km, distance km,
    bearing deg) of the neighbor relative to cell i.
    """

    lats: np.ndarray
    lons: np.ndarray
    k: int
    indices: np.ndarray   # (N, k) int32
    features: np.ndarray  # (N, k, 4) float64
    mask: np.ndarray      # (N, k) bool

    def patch_nodes(self, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """Flat indices of [target] + neighbors and their validity mask."""
        nodes = np.concatenate(([cell], np.where(self.mask[cell], self.indices[cell], cell)))
        valid = np.concatenate(([True], self.mask[cell]))
        return nodes.astype(np.intp), valid


# ---------------------------------------------------------------------------
# GRD1 container
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIIq")


def write_grd(fld: GridField, path) -> None:
    fld.validate()
    T, H, W = fld.values.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(GRD1_MAGIC, GRD1_VERSION, T, H, W, int(fld.start_date)))
        f.write(fld.lats.astype("<f8").tobytes())
        f.write(fld.lons.astype("<f8").tobytes())
        f.write(fld.values.astype("<f4").tobytes())


def read_grd(path) -> GridField:
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < _HEADER.size:
        raise LengthError(f"{path}: truncated header")
    magic, version, T, H, W, start_date = _HEADER.unpack_from(buf)
    if magic != GRD1_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != GRD1_VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    n = T * H * W
    size = _HEADER.size + 8 * (H + W) + 4 * n
    if len(buf) != size:
        raise LengthError(f"{path}: header declares {size} bytes, file has {len(buf)}")
    lats = np.frombuffer(buf, dtype="<f8", count=H, offset=_HEADER.size)
    lons = np.frombuffer(buf, dtype="<f8", count=W, offset=_HEADER.size + 8 * H)
    values = np.frombuffer(buf, dtype="<f4", count=n, offset=size - 4 * n)
    return GridField(start_date=start_date, lats=lats.copy(), lons=lons.copy(),
                     values=values.reshape(T, H, W).copy())


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

def geodesic_features(a: tuple[float, float], b: tuple[float, float]) -> tuple[float, float, float, float]:
    """(dnorth km, deast km, great-circle distance km, initial bearing deg)
    from point a to point b; coincident points return all zeros."""
    lat1, lon1 = np.radians(a[0]), np.radians(a[1])
    lat2, lon2 = np.radians(b[0]), np.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(min(1.0, np.sqrt(s)))
    y = np.sin(dlon) * np.cos(lat2)
    x = np.cos(lat1) * np.sin(lat2) - np.sin(lat1) * np.cos(lat2) * np.cos(dlon)
    bearing = 0.0 if (y == 0.0 and x == 0.0) else float(np.degrees(np.arctan2(y, x))) % 360.0
    if bearing == 360.0:  # tiny negative angles can round up through the modulo
        bearing = 0.0
    dnorth = EARTH_RADIUS_KM * dlat
    deast = EARTH_RADIUS_KM * dlon * np.cos((lat1 + lat2) / 2.0)
    return float(dnorth), float(deast), float(dist), float(bearing)


def geodesic_features_arrays(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Vectorized geodesic_features; broadcasts inputs, output has a trailing
    axis of 4: (dnorth, deast, distance, bearing)."""
    lat1, lon1, lat2, lon2 = np.broadcast_arrays(
        *(np.radians(np.asarray(a, dtype=np.float64)) for a in (lat1, lon1, lat2, lon2)))
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    dist = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))
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


def regrid_nearest(src: GridField, dst_lats, dst_lons) -> GridField:
    """Nearest-neighbor regridding by great-circle distance between cell
    centers; ties go to the lower flat source index; identical at every
    time step."""
    dst_lats = np.asarray(dst_lats, dtype=np.float64)
    dst_lons = np.asarray(dst_lons, dtype=np.float64)
    if dst_lats.size == 0 or dst_lons.size == 0:
        raise InvariantError("destination grid must be non-empty")
    _check_coord("dst_lats", dst_lats)
    _check_coord("dst_lons", dst_lons)
    if (dst_lats.size == src.lats.size and dst_lons.size == src.lons.size
            and np.array_equal(dst_lats, src.lats) and np.array_equal(dst_lons, src.lons)):
        return GridField(src.start_date, dst_lats, dst_lons, src.values.copy())
    slat, slon = grid_cell_coords(src.lats, src.lons)
    dlat, dlon = grid_cell_coords(dst_lats, dst_lons)
    dist = _kernels.pairwise_haversine(dlat, dlon, slat, slon)
    nearest = np.argmin(dist, axis=1)  # first occurrence = lowest flat index
    T = src.values.shape[0]
    flat = src.values.reshape(T, -1)
    out = flat[:, nearest].reshape(T, dst_lats.size, dst_lons.size)
    return GridField(src.start_date, dst_lats, dst_lons, out)


def wet_day_indicator(fld: GridField, tau_wet: float = TAU_WET) -> WetDayIndicator:
    if tau_wet <= 0:
        raise InvariantError("tau_wet must be positive")
    v = fld.values
    mask = np.isfinite(v)
    vals = np.zeros(v.shape, dtype=np.uint8)
    vals[mask & (v >= tau_wet)] = 1
    return WetDayIndicator(tau_wet=tau_wet, values=vals, mask=mask)


# ---------------------------------------------------------------------------
# neighbor selection
# ---------------------------------------------------------------------------

MIN_CORR_DAYS = 30


def _pairwise_correlation(series: np.ndarray) -> np.ndarray:
    """Pearson correlation between all cell pairs of (T, N) series.

    Missing days drop pairwise. Zero-variance pairs: +1 when the two series
    are identical over their shared valid days, otherwise NaN (excluded).
    """
    T, N = series.shape
    finite = np.isfinite(series)
    if finite.all():
        x = series - series.mean(axis=0)
        ss = np.sqrt((x * x).sum(axis=0))
        corr = np.full((N, N), np.nan)
        ok = ss > 0
        if ok.any():
            xs = x[:, ok] / ss[ok]
            corr[np.ix_(ok, ok)] = xs.T @ xs
        const = ~ok
        if const.any():
            # identical constant series correlate at +1, anything else is out
            ci = np.where(const)[0]
            for i in ci:
                same = np.all(series == series[:, i:i + 1], axis=0)
                corr[i, same] = 1.0
                corr[same, i] = 1.0
        return corr
    corr = np.full((N, N), np.nan)
    for i in range(N):
        for j in range(i, N):
            both = finite[:, i] & finite[:, j]
            if both.sum() < MIN_CORR_DAYS:
                continue
            a, b = series[both, i], series[both, j]
            sa, sb = a.std(), b.std()
            if sa == 0 or sb == 0:
                c = 1.0 if np.array_equal(a, b) else np.nan
            else:
                c = float(np.corrcoef(a, b)[0, 1])
            corr[i, j] = corr[j, i] = c
    return corr


def select_neighbors(fld: GridField, k: int, window: tuple[int, int]) -> NeighborGraph:
    """For each cell, its k geodesically nearest cells with strictly positive
    correlation over the window, distance-ordered, ties by flat index."""
    if k < 1:
        raise InvariantError("k must be at least 1")
    t0, t1 = window
    sub = fld.values[t0:t1].astype(np.float64)
    n_valid = np.isfinite(sub).sum(axis=0).ravel()
    if np.any(n_valid < MIN_CORR_DAYS):
        raise InvariantError(
            f"correlation window must contain >= {MIN_CORR_DAYS} non-missing days per cell")
    H, W = fld.lats.size, fld.lons.size
    N = H * W
    series = sub.reshape(sub.shape[0], N)
    corr = _pairwise_correlation(series)
    clat, clon = grid_cell_coords(fld.lats, fld.lons)
    dist = _kernels.pairwise_haversine(clat, clon, clat, clon)

    indices = np.full((N, k), -1, dtype=np.int32)
    feats = np.zeros((N, k, 4))
    mask = np.zeros((N, k), dtype=bool)
    order_all = np.arange(N)
    for i in range(N):
        cand = order_all[order_all != i]
        good = cand[np.isfinite(corr[i, cand]) & (corr[i, cand] > 0)]
        order = good[np.lexsort((good, dist[i, good]))]
        sel = order[:k]
        m = sel.size
        indices[i, :m] = sel
        mask[i, :m] = True
        for j, c in enumerate(sel):
            feats[i, j] = geodesic_features((clat[i], clon[i]), (clat[c], clon[c]))
    return NeighborGraph(lats=fld.lats.copy(), lons=fld.lons.copy(), k=k,
                         indices=indices, features=feats, mask=mask)
