import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dclimba import gridio
from dclimba.errors import DataError, FormatError, InvariantError, LengthError
from dclimba.gridio import (AttributeField, GridField, geodesic_features,
                            geodesic_features_arrays, read_grd, regrid_nearest,
                            select_neighbors, wet_day_indicator, write_grd)


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
# regridding
# ---------------------------------------------------------------------------

class TestRegrid:
    def test_identity(self):
        fld = make_field(np.random.default_rng(1).gamma(1, 1, (3, 4, 4)))
        out = regrid_nearest(fld, fld.lats, fld.lons)
        np.testing.assert_array_equal(out.values, fld.values)

    def test_nearest_cell_oracle(self):
        fld = make_field([[[1.0, 2.0], [3.0, 4.0]]], lats=[0.0, 1.0], lons=[0.0, 1.0])
        out = regrid_nearest(fld, np.array([0.1]), np.array([0.1]))
        assert out.values[0, 0, 0] == 1.0

    def test_brute_force_random(self):
        rng = np.random.default_rng(3)
        fld = make_field(rng.gamma(1, 1, (2, 5, 6)),
                         lats=np.linspace(10, 14, 5), lons=np.linspace(-3, 2, 6))
        dlats = np.linspace(10.3, 13.7, 4)
        dlons = np.linspace(-2.5, 1.5, 5)
        out = regrid_nearest(fld, dlats, dlons)
        slat, slon = gridio.grid_cell_coords(fld.lats, fld.lons)
        flat = fld.values.reshape(2, -1)
        for i, la in enumerate(dlats):
            for j, lo in enumerate(dlons):
                d = [geodesic_features((la, lo), (a, b))[2]
                     for a, b in zip(slat, slon)]
                np.testing.assert_array_equal(out.values[:, i, j],
                                              flat[:, int(np.argmin(d))])

    def test_tie_takes_lower_flat_index(self):
        fld = make_field(np.array([[[5.0], [9.0]]]), lats=[0.0, 1.0], lons=[0.0])
        out = regrid_nearest(fld, np.array([0.5]), np.array([0.0]))
        assert out.values[0, 0, 0] == 5.0

    def test_empty_destination(self):
        fld = make_field(np.zeros((1, 2, 2)))
        with pytest.raises(InvariantError):
            regrid_nearest(fld, np.array([]), np.array([0.0]))


# ---------------------------------------------------------------------------
# wet-day indicator
# ---------------------------------------------------------------------------

class TestWetDay:
    def test_threshold_example(self):
        fld = make_field(np.array([0.5, 1.0, 3.2]).reshape(3, 1, 1))
        ind = wet_day_indicator(fld, 1.0)
        np.testing.assert_array_equal(ind.values[:, 0, 0], [0, 1, 1])

    def test_all_zero(self):
        fld = make_field(np.zeros((5, 2, 2)))
        assert not wet_day_indicator(fld).values.any()

    def test_missing_day_masked(self):
        fld = make_field(np.array([np.nan, 2.0]).reshape(2, 1, 1))
        ind = wet_day_indicator(fld)
        assert not ind.mask[0, 0, 0] and ind.mask[1, 0, 0]
        assert ind.values[1, 0, 0] == 1 and ind.values[0, 0, 0] == 0

    def test_exhaustive_vs_comparison(self):
        rng = np.random.default_rng(5)
        vals = rng.gamma(0.5, 3.0, size=(50, 3, 3)).astype(np.float32)
        fld = make_field(vals)
        ind = wet_day_indicator(fld, 1.0)
        np.testing.assert_array_equal(ind.values == 1, vals >= 1.0)

    def test_bad_threshold(self):
        with pytest.raises(InvariantError):
            wet_day_indicator(make_field(np.zeros((1, 1, 1))), 0.0)


# ---------------------------------------------------------------------------
# geodesic features
# ---------------------------------------------------------------------------

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
