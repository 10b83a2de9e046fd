"""File I/O: PLY clouds (written binary, read ASCII or binary), CSV point
lists, PGM depth/mask images."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidParams
from .geometry import PointCloud3

# depth PGM stores 0.1 mm units in 16 bits
DEPTH_SCALE = 10.0


def write_ply(path, cloud: PointCloud3) -> None:
    """Binary little-endian PLY: x, y, z as doubles, so the file holds the
    cloud's values exactly."""
    header = ("ply\nformat binary_little_endian 1.0\n"
              f"element vertex {len(cloud)}\n"
              "property double x\nproperty double y\nproperty double z\nend_header\n")
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(cloud.points.astype("<f8").tobytes())


# PLY scalar property types, under both their old and their sized names
_PLY_TYPES = {"char": "i1", "uchar": "u1", "short": "i2", "ushort": "u2",
              "int": "i4", "uint": "u4", "float": "f4", "double": "f8",
              "int8": "i1", "uint8": "u1", "int16": "i2", "uint16": "u2",
              "int32": "i4", "uint32": "u4", "float32": "f4", "float64": "f8"}


def read_ply(path) -> PointCloud3:
    """Read an ASCII or binary little-endian PLY cloud: the x, y, z
    properties of its vertex element, which must come first. Other vertex
    properties, and other elements, are read past."""
    raw = Path(path).read_bytes()
    lines, pos = [], 0
    while (end := raw.find(b"\n", pos)) >= 0:
        lines.append(raw[pos:end].decode("ascii", errors="replace").strip())
        pos = end + 1
        if lines[0] != "ply" or lines[-1] == "end_header":
            break
    if not lines or lines[0] != "ply":
        raise InvalidParams(f"{path}: not a PLY file")
    if lines[-1] != "end_header":
        raise InvalidParams(f"{path}: PLY header has no end_header line")
    fmt, n_vertex, elements = None, 0, 0
    props: list[str] = []   # the vertex properties' types
    cols: dict[str, int] = {}
    for line in lines[1:-1]:
        words = line.split()
        if line.startswith("format"):
            fmt = line
        elif line.startswith("element"):
            elements += 1
            if elements > 1:
                continue
            # the body is read from its start, so the vertex element leads
            if not line.startswith("element vertex"):
                raise InvalidParams(f"{path}: the vertex element must come first, got {line!r}")
            if not words[-1].isdecimal():
                raise InvalidParams(f"{path}: bad vertex count in {line!r}")
            n_vertex = int(words[-1])
        elif line.startswith("property") and elements == 1:
            if len(words) != 3 or words[1] not in _PLY_TYPES:
                raise InvalidParams(f"{path}: only scalar vertex properties are "
                                    f"supported, got {line!r}")
            props.append(words[1])
            cols[words[2]] = len(props) - 1
    if fmt not in ("format ascii 1.0", "format binary_little_endian 1.0"):
        raise InvalidParams(f"{path}: only ASCII and binary little-endian PLY are "
                            f"supported, got {fmt!r}")
    if not {"x", "y", "z"} <= cols.keys():
        raise InvalidParams(f"{path}: vertex element lacks an x, y or z property")
    if fmt == "format ascii 1.0":
        body = raw[pos:].decode(errors="replace").splitlines()[:n_vertex]
        if len(body) < n_vertex:
            raise InvalidParams(f"{path}: header declares {n_vertex} vertices, "
                                f"body has {len(body)}")
        try:
            rows = [[float(v) for v in line.split()] for line in body]
        except ValueError as exc:
            raise InvalidParams(f"{path}: bad vertex row: {exc}") from exc
        if any(len(row) != len(props) for row in rows):
            raise InvalidParams(f"{path}: a vertex row does not hold {len(props)} values")
        table = np.array(rows, dtype=float).reshape(n_vertex, len(props)).T
    else:
        record = np.dtype([(f"p{k}", "<" + _PLY_TYPES[kind]) for k, kind in enumerate(props)])
        have = (len(raw) - pos) // record.itemsize
        if have < n_vertex:
            raise InvalidParams(f"{path}: header declares {n_vertex} vertices, body has {have}")
        data = np.frombuffer(raw, dtype=record, count=n_vertex, offset=pos)
        table = [data[f"p{k}"] for k in range(len(props))]
    return PointCloud3(np.stack([table[cols[c]] for c in "xyz"], axis=1))


def write_points_csv(path, points: np.ndarray, header: str | None = "x,y,z") -> None:
    lines = [] if header is None else [header]
    for row in np.atleast_2d(points):
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_points_csv(path) -> np.ndarray:
    """Read an x,y,z-per-line CSV; a leading non-numeric header is skipped."""
    rows = []
    for line in Path(path).read_text(errors="replace").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            rows.append([float(v) for v in line.split(",")])
        except ValueError as exc:
            if rows:
                raise InvalidParams(f"{path}: bad row {line!r}: {exc}") from exc
    if not rows:
        raise InvalidParams(f"{path}: no numeric rows")
    if any(len(row) != len(rows[0]) for row in rows):
        raise InvalidParams(f"{path}: rows differ in their number of values")
    return np.asarray(rows, dtype=float)


def write_depth_pgm(path, depth_mm: np.ndarray) -> None:
    """16-bit binary PGM, depth in 0.1 mm units, 0 = invalid."""
    d = np.asarray(depth_mm, dtype=float)
    scaled = np.clip(np.rint(d * DEPTH_SCALE), 0, 65535).astype(">u2")
    h, w = scaled.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n65535\n".encode("ascii"))
        f.write(scaled.tobytes())


def read_depth_pgm(path) -> np.ndarray:
    """Depth in mm from a 16-bit PGM of 0.1 mm units, 0 = invalid."""
    img, maxval = _read_pgm(path)
    if maxval <= 255:
        raise InvalidParams(f"{path}: a depth PGM must be 16-bit (0.1 mm units), "
                            f"got maxval {maxval}")
    return img.astype(float) / DEPTH_SCALE


def write_mask_pgm(path, mask: np.ndarray) -> None:
    """8-bit binary PGM, foreground 255, background 0."""
    m = (np.asarray(mask) != 0).astype(np.uint8) * 255
    h, w = m.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(m.tobytes())


def read_mask_pgm(path) -> np.ndarray:
    img, maxval = _read_pgm(path)
    return (img > maxval // 2).astype(np.uint8)


def _read_pgm(path) -> tuple[np.ndarray, int]:
    """The (h, w) raster of a binary PGM file, 16-bit when maxval > 255, and
    its maxval."""
    raw = Path(path).read_bytes()
    if not raw.startswith(b"P5"):
        raise InvalidParams(f"{path}: only binary (P5) PGM is supported")
    fields = []
    pos = 2
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        if not raw[start:pos].isdigit():
            raise InvalidParams(f"{path}: bad PGM header field {raw[start:pos]!r}")
        fields.append(int(raw[start:pos]))
    pos += 1  # single whitespace after maxval
    w, h, maxval = fields
    dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
    if len(raw) - pos < w * h * dtype.itemsize:
        raise InvalidParams(f"{path}: PGM raster has {max(len(raw) - pos, 0)} bytes, "
                            f"a {w} x {h} image needs {w * h * dtype.itemsize}")
    return np.frombuffer(raw, dtype=dtype, count=w * h, offset=pos).reshape(h, w), maxval
