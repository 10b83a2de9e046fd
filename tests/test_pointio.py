"""File formats: PLY (written binary, read ASCII or binary), CSV point lists,
16-bit depth PGM, 8-bit mask PGM."""
import numpy as np
import pytest

from limbscan.errors import InvalidParams
from limbscan.geometry import PointCloud3
from limbscan.pointio import (DEPTH_SCALE, read_depth_pgm, read_mask_pgm,
                              read_ply, read_points_csv, write_depth_pgm,
                              write_mask_pgm, write_ply, write_points_csv)


class TestPly:
    def test_roundtrip_points(self, tmp_path, rng):
        cloud = PointCloud3(rng.uniform(-100.0, 100.0, (50, 3)))
        path = tmp_path / "c.ply"
        write_ply(path, cloud)
        back = read_ply(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        assert back.points.flags.c_contiguous

    @pytest.mark.parametrize("names", ["x y z nx ny nz", "nx x ny y nz z",
                                       "red z y x intensity"])
    def test_extra_vertex_properties_read_past(self, tmp_path, rng, names):
        data = rng.uniform(-5.0, 5.0, (20, len(names.split())))
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 20\n"
                        + "".join(f"property float {name}\n" for name in names.split())
                        + "end_header\n"
                        + "".join(" ".join(map(repr, row)) + "\n" for row in data.tolist()))
        cols = [names.split().index(c) for c in "xyz"]
        points = read_ply(path).points
        np.testing.assert_array_equal(points, data[:, cols])
        assert points.flags.c_contiguous

    _HEADER = ("ply\nformat binary_little_endian 1.0\nelement vertex {n}\n"
               "property double x\nproperty double y\nproperty double z\nend_header\n")

    def test_header_is_binary_ply(self, tmp_path):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud3(np.zeros((2, 3))))
        raw = path.read_bytes()
        header = self._HEADER.format(n=2).encode()
        assert raw.startswith(header)
        assert len(raw) == len(header) + 2 * 3 * 8

    def test_body_is_little_endian_doubles(self, tmp_path, rng):
        special = np.array([[np.nan, np.inf, -np.inf], [-0.0, 1e-300, -1e-300],
                            [5e-324, 1.7976931348623157e308, 0.1 + 0.2]])
        clouds = [PointCloud3(rng.uniform(-1e3, 1e3, (200, 3))),
                  PointCloud3(np.zeros((0, 3))),
                  PointCloud3(np.zeros((3, 3)))]
        # PointCloud3 rejects non-finite points, so put them in place afterwards
        clouds[-1].points = special
        for k, cloud in enumerate(clouds):
            path = tmp_path / f"c{k}.ply"
            write_ply(path, cloud)
            assert path.read_bytes() == (self._HEADER.format(n=len(cloud)).encode()
                                         + cloud.points.astype("<f8").tobytes())

    @pytest.mark.parametrize("points", [
        np.zeros((0, 3)), np.array([[-0.0, 5e-324, 1.7976931348623157e308]])],
        ids=["empty", "extremes"])
    def test_binary_roundtrip_is_bit_equal(self, tmp_path, points):
        path = tmp_path / "c.ply"
        write_ply(path, PointCloud3(points))
        back = read_ply(path).points
        assert back.dtype == np.float64 and back.shape == points.shape
        assert back.tobytes() == points.tobytes()

    @pytest.mark.parametrize("kind", ["float", "double"])
    @pytest.mark.parametrize("names", ["x y z nx ny nz", "nx x ny y nz z"])
    def test_binary_extra_vertex_properties_read_past(self, tmp_path, rng, kind, names):
        # x, y, z stay doubles; the normals take the other type
        data = rng.uniform(-5.0, 5.0, (20, 6))
        fields = names.split()
        types = ["double" if name in "xyz" else kind for name in fields]
        record = np.dtype([(name, "<f8" if t == "double" else "<f4")
                           for name, t in zip(fields, types)])
        rows = np.zeros(20, dtype=record)
        for k, name in enumerate(fields):
            rows[name] = data[:, k]
        path = tmp_path / "c.ply"
        path.write_bytes(("ply\nformat binary_little_endian 1.0\nelement vertex 20\n"
                          + "".join(f"property {t} {name}\n" for t, name in zip(types, fields))
                          + "end_header\n").encode() + rows.tobytes())
        cols = [fields.index(c) for c in "xyz"]
        np.testing.assert_array_equal(read_ply(path).points, data[:, cols])

    def test_binary_float_coordinates_widen(self, tmp_path):
        pts = np.array([[0.1, -2.5, 3e7]], dtype="<f4")
        path = tmp_path / "c.ply"
        path.write_bytes(("ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                          "property float x\nproperty float y\nproperty float z\n"
                          "end_header\n").encode() + pts.tobytes())
        np.testing.assert_array_equal(read_ply(path).points, pts.astype(float))

    _XYZ = "property double x\nproperty double y\nproperty double z\n"

    @pytest.mark.parametrize("header, body, message", [
        (f"format binary_big_endian 1.0\nelement vertex 1\n{_XYZ}end_header\n", bytes(24),
         "only ASCII and binary little"),
        (f"format binary_little_endian 1.0\nelement vertex 1\n{_XYZ}"
         "property list uchar int idx\nend_header\n", bytes(25), "only scalar vertex properties"),
        ("format binary_little_endian 1.0\nelement vertex 1\nproperty double x\n"
         "property double y\nproperty quad z\nend_header\n", bytes(24),
         "only scalar vertex properties"),
        (f"format binary_little_endian 1.0\nelement vertex 3\n{_XYZ}end_header\n", bytes(71),
         "declares 3 vertices, body has 2"),
        (f"format binary_little_endian 1.0\nelement face 0\nelement vertex 1\n{_XYZ}"
         "end_header\n", bytes(24), "vertex element must come first"),
        (f"format binary_little_endian 1.0\nelement vertex 1\n{_XYZ}", b"", "no end_header"),
    ], ids=["big-endian", "list-property", "unknown-type", "short-body", "face-first",
            "no-end-header"])
    def test_bad_binary_names_file(self, tmp_path, header, body, message):
        path = tmp_path / "bad.ply"
        path.write_bytes(b"ply\n" + header.encode() + body)
        with pytest.raises(InvalidParams, match=message) as info:
            read_ply(path)
        assert str(info.value).startswith(str(path))

    def test_rejects_non_ply(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("OFF\n")
        with pytest.raises(ValueError):
            read_ply(path)

    def test_empty_cloud_roundtrip(self, tmp_path):
        path = tmp_path / "empty.ply"
        write_ply(path, PointCloud3(np.zeros((0, 3))))
        assert read_ply(path).points.shape == (0, 3)

    @pytest.mark.parametrize("header, body, message", [
        ("element vertex 3", "1 2 3\n", "declares 3 vertices, body has 1"),
        ("element vertex 1", "1 abc 3\n", "bad vertex row"),
        ("element vertex 2", "1 2 3\n1 2\n", "does not hold 3 values"),
        ("element vertex x", "", "bad vertex count"),
    ], ids=["short-body", "non-numeric", "ragged-row", "bad-count"])
    def test_bad_body_names_file(self, tmp_path, header, body, message):
        path = tmp_path / "bad.ply"
        path.write_text(f"ply\nformat ascii 1.0\n{header}\nproperty float x\n"
                        f"property float y\nproperty float z\nend_header\n{body}")
        with pytest.raises(InvalidParams, match=message) as info:
            read_ply(path)
        assert str(info.value).startswith(str(path))

    def test_rejects_unknown_format_and_missing_coordinates(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 2.0\nelement vertex 0\nproperty float x\n"
                        "property float y\nproperty float z\nend_header\n")
        with pytest.raises(InvalidParams, match="only ASCII and binary little-endian"):
            read_ply(path)
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\nproperty float x\n"
                        "property float y\nend_header\n1 2\n")
        with pytest.raises(InvalidParams, match="lacks an x, y or z"):
            read_ply(path)

    def test_other_elements_ignored(self, tmp_path):
        path = tmp_path / "mesh.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                        "property float y\nproperty float z\nelement face 0\n"
                        "property list uchar int vertex_indices\nend_header\n"
                        "1 2 3\n4 5 6\n")
        np.testing.assert_array_equal(read_ply(path).points, [[1, 2, 3], [4, 5, 6]])


class TestCsv:
    def test_roundtrip(self, tmp_path, rng):
        pts = rng.uniform(-10.0, 10.0, (30, 3))
        path = tmp_path / "p.csv"
        write_points_csv(path, pts)
        np.testing.assert_array_equal(read_points_csv(path), pts)

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        write_points_csv(path, np.ones((3, 3)), header="x,y,z")
        assert path.read_text().startswith("x,y,z\n")
        assert read_points_csv(path).shape == (3, 3)

    def test_no_header(self, tmp_path):
        path = tmp_path / "p.csv"
        write_points_csv(path, np.ones((3, 3)), header=None)
        assert read_points_csv(path).shape == (3, 3)

    def test_extra_columns_preserved(self, tmp_path, rng):
        rows = rng.uniform(size=(4, 5))
        path = tmp_path / "p.csv"
        write_points_csv(path, rows, header="i,j,x,y,z")
        np.testing.assert_array_equal(read_points_csv(path), rows)

    def test_bad_body_raises(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x,y,z\n1,2,3\noops,2,3\n")
        with pytest.raises(ValueError):
            read_points_csv(path)


class TestDepthPgm:
    def test_roundtrip_quantized(self, tmp_path, rng):
        depth = rng.uniform(0.0, 900.0, (12, 17))
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, depth)
        back = read_depth_pgm(path)
        assert back.shape == depth.shape
        # stored in 0.1 mm integer units
        assert np.max(np.abs(back - depth)) <= 0.5 / DEPTH_SCALE + 1e-12

    def test_exact_on_tenth_mm_grid(self, tmp_path):
        depth = np.arange(12, dtype=float).reshape(3, 4) / DEPTH_SCALE
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, depth)
        np.testing.assert_array_equal(read_depth_pgm(path), depth)

    def test_binary_16bit_big_endian(self, tmp_path):
        path = tmp_path / "d.pgm"
        write_depth_pgm(path, np.array([[25.7]]))  # 257 units = 0x0101
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n1 1\n65535\n")
        assert raw[-2:] == bytes([1, 1])

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n65535\n" + bytes([0, 10, 0, 20]))
        np.testing.assert_array_equal(read_depth_pgm(path), [[1.0, 2.0]])

    def test_rejects_ascii_pgm(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P2\n1 1\n255\n7\n")
        with pytest.raises(ValueError):
            read_depth_pgm(path)

    @pytest.mark.parametrize("maxval", [1, 255])
    def test_rejects_8bit_depth_by_name(self, tmp_path, maxval):
        # an 8-bit raster holds no 0.1 mm units: read as is it would be raw mm
        path = tmp_path / "d8.pgm"
        path.write_bytes(f"P5\n2 1\n{maxval}\n".encode() + bytes([0, 1]))
        with pytest.raises(InvalidParams, match=rf"d8\.pgm.*maxval {maxval}$"):
            read_depth_pgm(path)


class TestMaskPgm:
    def test_roundtrip(self, tmp_path, rng):
        mask = (rng.uniform(size=(9, 13)) > 0.5).astype(np.uint8)
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, mask)
        np.testing.assert_array_equal(read_mask_pgm(path), mask)

    def test_foreground_written_as_255(self, tmp_path):
        path = tmp_path / "m.pgm"
        write_mask_pgm(path, np.array([[0, 1]], dtype=np.uint8))
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 1\n255\n")
        assert raw[-2:] == bytes([0, 255])
