import re
import struct
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dclimba import gridio
from dclimba.errors import DataError, FormatError, InvariantError, LengthError
from dclimba.gridio import (AttributeField, GridField, geodesic_features_arrays,
                            read_grd, select_neighbors, write_grd)


def make_field(values, lats=None, lons=None, start=0):
    values = np.asarray(values, dtype=np.float32)
    T, H, W = values.shape
    lats = np.arange(H, dtype=float) if lats is None else np.asarray(lats, float)
    lons = np.arange(W, dtype=float) if lons is None else np.asarray(lons, float)
    return GridField(start_date=start, lats=lats, lons=lons, values=values)


# ---------------------------------------------------------------------------
# GRD1 container
# ---------------------------------------------------------------------------

class TestGrd1:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        vals = rng.gamma(0.7, 5.0, size=(4, 3, 5)).astype(np.float32)
        vals[1, 2, 2] = np.nan
        fld = make_field(vals, start=12345)
        path = tmp_path / "f.grd"
        write_grd(fld, path)
        back = read_grd(path)
        assert back.start_date == 12345
        np.testing.assert_array_equal(back.lats, fld.lats)
        np.testing.assert_array_equal(back.lons, fld.lons)
        np.testing.assert_array_equal(
            back.values.view(np.uint32), fld.values.view(np.uint32))

    def test_strided_values_write_the_same_bytes(self, tmp_path):
        # values that are a strided view are copied once; contiguous ones are
        # written from their own buffer; both give the bytes of the values
        rng = np.random.default_rng(1)
        big = rng.gamma(0.7, 5.0, size=(6, 3, 10)).astype(np.float32)
        big[2, 1, 4] = np.nan
        strided = make_field(big[::2, :, ::2], start=7)
        assert not strided.values.flags.c_contiguous
        dense = make_field(np.ascontiguousarray(big[::2, :, ::2]), start=7)
        for name, fld in (("strided", strided), ("dense", dense)):
            write_grd(fld, tmp_path / f"{name}.grd")
        data = (tmp_path / "strided.grd").read_bytes()
        assert data == (tmp_path / "dense.grd").read_bytes()
        assert data[-dense.values.nbytes:] == dense.values.astype("<f4").tobytes()

    def test_header_length_h2_w3(self, tmp_path):
        # 4+4+4+4+4+8 header fields plus 2*8 lats and 3*8 lons = 68 bytes
        fld = make_field(np.zeros((1, 2, 3)))
        path = tmp_path / "f.grd"
        write_grd(fld, path)
        data = path.read_bytes()
        assert len(data) == 68 + 1 * 2 * 3 * 4
        assert data[:4] == b"GRD1"

    def test_negative_value_refused(self, tmp_path):
        with pytest.raises(InvariantError):
            make_field(np.full((1, 2, 2), -1.0))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.0, 0.0])
    def test_missing_and_zero_values_accepted(self, value):
        vals = np.ones((2, 2, 2), dtype=np.float32)
        vals[1, 0, 1] = value
        assert make_field(vals).values[1, 0, 1].tobytes() == vals[1, 0, 1].tobytes()

    @pytest.mark.parametrize("value", [-1.0, -1e-30, -np.finfo(np.float32).smallest_subnormal,
                                       -np.finfo(np.float32).max])
    def test_finite_negative_refused_among_missing_values(self, value):
        vals = np.full((2, 2, 2), -np.inf, dtype=np.float32)
        vals[0] = np.nan
        vals[1, 1, 1] = value
        with pytest.raises(InvariantError, match="non-negative"):
            make_field(vals)

    @pytest.mark.parametrize("edit,kind,error", [
        (lambda raw: raw[:27], LengthError, "truncated header"),
        (lambda raw: raw[:-1], LengthError, "header declares 92 bytes, file has 91"),
        (lambda raw: raw + b"\0", LengthError, "header declares 92 bytes, file has 93"),
        (lambda raw: b"GRD2" + raw[4:], FormatError, "bad magic b'GRD2'"),
        (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], FormatError,
         "unsupported version 2"),
    ], ids=["header", "short", "long", "magic", "version"])
    def test_read_errors(self, tmp_path, edit, kind, error):
        path = tmp_path / "f.grd"
        write_grd(make_field(np.zeros((2, 2, 2))), path)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(kind, match=re.escape(f"{path}: {error}")):
            read_grd(path)

    def test_bad_magic(self, tmp_path):
        fld = make_field(np.zeros((1, 2, 2)))
        path = tmp_path / "f.grd"
        write_grd(fld, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            read_grd(path)

    def test_truncated_values(self, tmp_path):
        path = tmp_path / "f.grd"
        header = struct.pack("<4sIIIIq", b"GRD1", 1, 10, 2, 2, 0)
        coords = np.arange(2, dtype="<f8").tobytes() * 2
        payload = np.zeros(9 * 2 * 2, dtype="<f4").tobytes()  # declares T=10
        path.write_bytes(header + coords + payload)
        with pytest.raises(LengthError):
            read_grd(path)

    def test_non_monotone_coords_rejected(self, tmp_path):
        path = tmp_path / "f.grd"
        header = struct.pack("<4sIIIIq", b"GRD1", 1, 1, 2, 2, 0)
        lats = np.array([1.0, 1.0], dtype="<f8").tobytes()
        lons = np.array([0.0, 1.0], dtype="<f8").tobytes()
        payload = np.zeros(4, dtype="<f4").tobytes()
        path.write_bytes(header + lats + lons + payload)
        with pytest.raises(InvariantError):
            read_grd(path)

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
           st.integers(0, 2 ** 31), st.booleans())
    def test_round_trip_property(self, T, H, W, seed, with_nan):
        import tempfile
        rng = np.random.default_rng(seed)
        vals = rng.gamma(0.5, 8.0, size=(T, H, W)).astype(np.float32)
        if with_nan:
            vals[rng.integers(T), rng.integers(H), rng.integers(W)] = np.nan
        fld = make_field(vals, start=int(seed % 10000))
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/f.grd"
            write_grd(fld, path)
            back = read_grd(path)
        np.testing.assert_array_equal(
            back.values.view(np.uint32), fld.values.view(np.uint32))
        np.testing.assert_array_equal(back.lats, fld.lats)

    @settings(max_examples=300)
    @given(st.data())
    def test_truncated_or_bit_flipped_file_raises_data_error_only(self, data):
        import tempfile
        vals = np.random.default_rng(3).gamma(0.5, 8.0, size=(3, 2, 4))
        fld = make_field(vals.astype(np.float32), lats=[10.0, 11.0],
                         lons=[0.0, 1.0, 2.0, 3.0], start=42)
        with tempfile.TemporaryDirectory() as d:
            path = f"{d}/f.grd"
            write_grd(fld, path)
            raw = bytearray(open(path, "rb").read())
            cut = data.draw(st.integers(0, len(raw)), label="cut")
            flips = data.draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                                 st.integers(0, 7)), max_size=3),
                              label="flips")
            for pos, bit in flips:
                raw[pos] ^= 1 << bit
            with open(path, "wb") as f:
                f.write(bytes(raw[:cut]))
            try:
                read_grd(path)
            except DataError:
                pass


# ---------------------------------------------------------------------------
# static attributes
# ---------------------------------------------------------------------------

class TestAttributeField:
    @pytest.mark.parametrize("name", ["elevation", "slope", "aspect"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_attribute_rejected(self, name, bad):
        arrs = {k: np.zeros((2, 3)) for k in ("elevation", "slope", "aspect", "landcover")}
        AttributeField([0.0, 1.0], [0.0, 1.0, 2.0], **arrs)
        arrs[name][1, 2] = bad
        with pytest.raises(InvariantError, match=name):
            AttributeField([0.0, 1.0], [0.0, 1.0, 2.0], **arrs)


# ---------------------------------------------------------------------------
# geodesic features
# ---------------------------------------------------------------------------

def geodesic_features(a, b):
    """Scalar reference for geodesic_features_arrays: (dnorth km, deast km,
    great-circle distance km, initial bearing deg) from point a to point b;
    coincident points return all zeros."""
    lat1, lon1 = np.radians(a[0]), np.radians(a[1])
    lat2, lon2 = np.radians(b[0]), np.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
    dist = 2.0 * gridio.EARTH_RADIUS_KM * np.arcsin(min(1.0, np.sqrt(s)))
    y = np.sin(dlon) * np.cos(lat2)
    x = np.cos(lat1) * np.sin(lat2) - np.sin(lat1) * np.cos(lat2) * np.cos(dlon)
    bearing = 0.0 if (y == 0.0 and x == 0.0) else float(np.degrees(np.arctan2(y, x))) % 360.0
    if bearing == 360.0:  # tiny negative angles can round up through the modulo
        bearing = 0.0
    dnorth = gridio.EARTH_RADIUS_KM * dlat
    deast = gridio.EARTH_RADIUS_KM * dlon * np.cos((lat1 + lat2) / 2.0)
    return float(dnorth), float(deast), float(dist), float(bearing)


def arccos_distance(a, b):
    """Independent great-circle oracle by the spherical law of cosines."""
    p1, l1, p2, l2 = map(np.radians, (a[0], a[1], b[0], b[1]))
    c = np.sin(p1) * np.sin(p2) + np.cos(p1) * np.cos(p2) * np.cos(l2 - l1)
    return 6371.0 * np.arccos(np.clip(c, -1, 1))


class TestGeodesic:
    def test_coincident(self):
        assert geodesic_features((10.0, 20.0), (10.0, 20.0)) == (0.0, 0.0, 0.0, 0.0)

    def test_one_degree_east(self):
        dn, de, dist, bearing = geodesic_features((0.0, 0.0), (0.0, 1.0))
        assert abs(dist - 111.1949266) < 1e-3
        assert abs(bearing - 90.0) < 1e-9
        assert abs(de - 111.1949266) < 1e-3
        assert abs(dn) < 1e-12

    def test_one_degree_north(self):
        dn, de, dist, bearing = geodesic_features((0.0, 0.0), (1.0, 0.0))
        assert abs(dist - 111.1949266) < 1e-3
        assert bearing == 0.0
        assert abs(dn - 111.1949266) < 1e-3

    def test_bearing_range_half_open(self):
        # a tiny negative azimuth wraps through the modulo to exactly 360.0
        # unless guarded; the result must stay inside [0, 360)
        for eps in (1e-15, 1e-300):
            b = geodesic_features((0.0, 0.0), (1.0, -eps))[3]
            assert 0.0 <= b < 360.0
            arr = geodesic_features_arrays([0.0], [0.0], [1.0], [-eps])
            assert 0.0 <= arr[0, 3] < 360.0

    @given(st.lists(st.tuples(st.floats(-80, 80), st.floats(-170, 170)),
                    min_size=3, max_size=3))
    def test_symmetry_and_triangle(self, pts):
        a, b, c = pts
        dab = geodesic_features(a, b)[2]
        dba = geodesic_features(b, a)[2]
        assert abs(dab - dba) <= 1e-9 * max(dab, 1.0)
        dac = geodesic_features(a, c)[2]
        dbc = geodesic_features(b, c)[2]
        assert dac <= dab + dbc + 1e-9 * max(dac, 1.0)

    @given(st.floats(-80, 80), st.floats(-170, 170),
           st.floats(-80, 80), st.floats(-170, 170))
    def test_against_arccos_oracle(self, lat1, lon1, lat2, lon2):
        d = geodesic_features((lat1, lon1), (lat2, lon2))[2]
        # the law-of-cosines oracle loses ~sqrt(eps) precision near zero
        tol = max(1e-9 * d, 3e-4)
        assert abs(d - arccos_distance((lat1, lon1), (lat2, lon2))) < tol

    def test_array_version_matches_scalar(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-60, 60, 10), rng.uniform(-120, 120, 10)
        b = rng.uniform(-60, 60, 10), rng.uniform(-120, 120, 10)
        arr = geodesic_features_arrays(a[0], a[1], b[0], b[1])
        for i in range(10):
            expected = geodesic_features((a[0][i], a[1][i]), (b[0][i], b[1][i]))
            np.testing.assert_allclose(arr[i], expected, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# neighbor selection
# ---------------------------------------------------------------------------

class TestSelectNeighbors:
    def test_identical_series_take_nearest(self):
        series = np.tile(np.arange(40, dtype=np.float32) % 7,
                         (3, 3, 1)).transpose(2, 0, 1)
        fld = make_field(series, lats=[0, 1, 2], lons=[0, 1, 2])
        graph = select_neighbors(fld, 2, (0, 40))
        # center cell (lat 1): the two east/west neighbors are geodesically
        # closest (one degree of longitude shrinks with cos lat), tie broken
        # by flat index
        np.testing.assert_array_equal(graph.indices[4][:2], [3, 5])
        assert graph.mask.all()

    def test_negative_correlation_excluded(self):
        up = np.arange(40, dtype=np.float64)
        down = -up
        vals = np.zeros((40, 1, 3), dtype=np.float32)
        vals[:, 0, 0] = up
        vals[:, 0, 1] = down + 100.0   # nearest, but perfectly anti-correlated
        vals[:, 0, 2] = up * 2.0       # farther, positively correlated
        fld = make_field(vals, lats=[0.0], lons=[0.0, 1.0, 2.0])
        graph = select_neighbors(fld, 2, (0, 40))
        assert 1 not in graph.indices[0][graph.mask[0]]
        assert graph.indices[0][0] == 2

    def test_single_cell_grid(self):
        fld = make_field(np.ones((40, 1, 1)))
        graph = select_neighbors(fld, 4, (0, 40))
        assert not graph.mask.any()
        assert (graph.indices == -1).all()

    def test_short_window_rejected(self):
        fld = make_field(np.ones((40, 2, 2)))
        with pytest.raises(InvariantError):
            select_neighbors(fld, 2, (0, 10))

    def test_bad_k(self):
        fld = make_field(np.ones((40, 2, 2)))
        with pytest.raises(InvariantError):
            select_neighbors(fld, 0, (0, 40))

    def test_sorted_positive_and_unique(self, tiny_world, tiny_graph):
        _, _, gcm, _ = tiny_world
        graph = tiny_graph
        sub = gcm.values[0:730].reshape(730, -1).astype(np.float64)
        clat, clon = gridio.grid_cell_coords(gcm.lats, gcm.lons)
        for i in range(gcm.n_cells):
            sel = graph.indices[i][graph.mask[i]]
            assert len(set(sel.tolist())) == len(sel)
            assert i not in sel
            dists = [geodesic_features((clat[i], clon[i]), (clat[j], clon[j]))[2]
                     for j in sel]
            assert all(d1 <= d2 + 1e-12 for d1, d2 in zip(dists, dists[1:]))
            for j in sel:
                r = np.corrcoef(sub[:, i], sub[:, j])[0, 1]
                assert r > 0

    def test_gappy_cell_below_min_days_rejected(self):
        vals = np.random.default_rng(4).gamma(1.0, 2.0, size=(60, 2, 2))
        vals[:31, 1, 0] = np.nan                      # 29 valid days left
        fld = make_field(vals)
        with pytest.raises(InvariantError):
            select_neighbors(fld, 2, (0, 60))
        vals[30, 1, 0] = 1.0                          # 30 valid days
        select_neighbors(make_field(vals), 2, (0, 60))


# ---------------------------------------------------------------------------
# masked-pair correlation against the per-pair loop
# ---------------------------------------------------------------------------

def oracle_correlation(series):
    """Per-pair reference for _pairwise_correlation: each pair's shared
    valid days are cut out and correlated on their own."""
    T, N = series.shape
    finite = np.isfinite(series)
    corr = np.full((N, N), np.nan)
    for i in range(N):
        for j in range(i, N):
            both = finite[:, i] & finite[:, j]
            if both.sum() < gridio.MIN_CORR_DAYS:
                continue
            a, b = series[both, i], series[both, j]
            sa, sb = a.std(), b.std()
            if sa == 0 or sb == 0:
                c = 1.0 if np.array_equal(a, b) else np.nan
            else:
                c = float(np.corrcoef(a, b)[0, 1])
            corr[i, j] = corr[j, i] = c
    return corr


def oracle_graph(corr, clat, clon, k):
    """Per-cell reference for select_neighbors given a correlation matrix."""
    N = corr.shape[0]
    indices = np.full((N, k), -1, dtype=np.int32)
    mask = np.zeros((N, k), dtype=bool)
    feats = np.zeros((N, k, 4))
    for i in range(N):
        cand = np.array([j for j in range(N) if j != i], dtype=np.intp)
        good = cand[np.isfinite(corr[i, cand]) & (corr[i, cand] > 0)]
        dist = np.array([geodesic_features((clat[i], clon[i]), (clat[j], clon[j]))[2]
                         for j in good])
        sel = good[np.lexsort((good, dist))][:k] if good.size else good
        indices[i, :sel.size] = sel
        mask[i, :sel.size] = True
        for s, j in enumerate(sel):
            feats[i, s] = geodesic_features((clat[i], clon[i]), (clat[j], clon[j]))
    return indices, mask, feats


def gappy_series():
    """(80, 10) float32-valued series with scattered missing days and every
    kind of degenerate pair."""
    rng = np.random.default_rng(21)
    T = 80
    x = rng.gamma(0.8, 4.0, size=(T, 10)) * (rng.random((T, 10)) < 0.6)
    x[rng.random((T, 10)) < 0.1] = np.nan
    x[:30, 0] = np.nan          # cells 0 and 1 share days 30..58 only: 29 or fewer
    x[59:, 1] = np.nan
    x[:, 2] = 0.0               # two all-zero series, missing on different days
    x[:, 3] = 0.0
    x[rng.random(T) < 0.2, 2] = np.nan
    x[rng.random(T) < 0.2, 3] = np.nan
    x[:, 4] = 2.0               # two different constant series
    x[:, 5] = 5.0
    x[40:, 6] = np.nan          # 7 and 8 are constant only on days 0..39, which
    x[:40, 7] = 3.3             # is all they share with 6 and with each other:
    x[60:, 7] = np.nan          # 8 equals 7 there, 6 does not
    x[:40, 8] = 3.3
    x[40:60, 8] = np.nan
    return x.astype(np.float32).astype(np.float64)


class TestPairwiseCorrelation:
    def test_matches_per_pair_loop_on_gappy_field(self):
        x = gappy_series()
        ref = oracle_correlation(x)
        new = gridio._pairwise_correlation(x)
        off = ~np.eye(x.shape[1], dtype=bool)
        np.testing.assert_array_equal(np.isnan(new), np.isnan(ref))
        np.testing.assert_array_equal(new[off] == 1.0, ref[off] == 1.0)
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12)
        assert (np.isfinite(x[:, 0]) & np.isfinite(x[:, 1])).sum() < gridio.MIN_CORR_DAYS
        assert np.isnan(new[0, 1])                   # too few shared days
        assert new[2, 3] == 1.0                      # identical all-zero series
        assert np.isnan(new[4, 5])                   # different constants
        assert np.isnan(new[4, 9])                   # constant against a varying series
        assert (np.isfinite(x[:, 6]) & np.isfinite(x[:, 7])).sum() >= gridio.MIN_CORR_DAYS
        assert np.isnan(new[6, 7]) and new[7, 8] == 1.0
        assert np.isfinite(new[7, 9])                # 7 varies over the later days

    def test_gap_free_field_matches_per_pair_loop(self):
        x = gappy_series()
        x = np.where(np.isfinite(x), x, 1.5)
        ref = oracle_correlation(x)
        new = gridio._pairwise_correlation(x)
        np.testing.assert_array_equal(np.isnan(new), np.isnan(ref))
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12)

    def test_no_runtime_warning(self):
        x = gappy_series()
        fld = make_field(x.reshape(80, 2, 5))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gridio._pairwise_correlation(x)
            select_neighbors(fld, 4, (0, 80))

    def test_gappy_graph_matches_oracle(self):
        x = gappy_series()
        fld = make_field(x.reshape(80, 2, 5), lats=[10.0, 11.0],
                         lons=[0.0, 1.5, 2.0, 3.5, 4.0])
        graph = select_neighbors(fld, 4, (0, 80))
        clat, clon = gridio.grid_cell_coords(fld.lats, fld.lons)
        indices, mask, feats = oracle_graph(oracle_correlation(x), clat, clon, 4)
        np.testing.assert_array_equal(graph.indices, indices)
        np.testing.assert_array_equal(graph.mask, mask)
        np.testing.assert_allclose(graph.features, feats, rtol=1e-12, atol=1e-12)
        assert not graph.mask[4].any()               # a constant with no identical partner

    @settings(max_examples=60)
    @given(st.integers(0, 2 ** 31), st.floats(0.0, 0.4),
           st.sampled_from([None, 0.0, 0.1, 2.0]))
    def test_random_masks_give_oracle_graph(self, seed, p_missing, constant):
        rng = np.random.default_rng(seed)
        T = 90
        x = rng.gamma(0.7, 5.0, size=(T, 9)) * (rng.random((T, 9)) < 0.5)
        x += 0.3 * x[:, [4]]                         # some positive correlation
        if constant is not None:                     # two cells constant over all days,
            x[:, [1, 4, 7]] = constant               # a third but for one day
            x[rng.integers(T), 4] += 1.0
        x[rng.random((T, 9)) < p_missing] = np.nan
        x = x.astype(np.float32).astype(np.float64)
        assume(np.isfinite(x).sum(axis=0).min() >= gridio.MIN_CORR_DAYS)
        fld = make_field(x.reshape(T, 3, 3), lats=[0.0, 1.0, 2.0], lons=[5.0, 6.0, 7.0])
        graph = select_neighbors(fld, 5, (0, T))
        clat, clon = gridio.grid_cell_coords(fld.lats, fld.lons)
        ref = oracle_correlation(x)
        np.testing.assert_array_equal(np.isnan(gridio._pairwise_correlation(x)), np.isnan(ref))
        indices, mask, feats = oracle_graph(ref, clat, clon, 5)
        np.testing.assert_array_equal(graph.indices, indices)
        np.testing.assert_array_equal(graph.mask, mask)
        np.testing.assert_allclose(graph.features, feats, rtol=1e-12, atol=1e-12)
