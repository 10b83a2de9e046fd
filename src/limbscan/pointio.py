"""File I/O: ASCII PLY clouds, CSV point lists, PGM depth/mask images."""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidParams
from .geometry import PointCloud3

# depth PGM stores 0.1 mm units in 16 bits
DEPTH_SCALE = 10.0


def write_ply(path, cloud: PointCloud3) -> None:
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "end_header",
    ]
    # the repr of the nested list is every value's float repr, ", " between
    # values and "], [" between rows
    body = repr(cloud.points.tolist())[2:-2].replace("], [", "\n").replace(", ", " ")
    Path(path).write_text("\n".join(lines) + "\n" + body + "\n")


def read_ply(path) -> PointCloud3:
    """Read an ASCII PLY cloud: the x, y, z properties of its vertex element.
    Other properties, and other elements, are read past."""
    text = Path(path).read_text(errors="replace").splitlines()
    if not text or text[0].strip() != "ply":
        raise InvalidParams(f"{path}: not a PLY file")
    n_vertex = 0
    in_vertex = False
    props: list[str] = []
    i = 1
    while i < len(text):
        line = text[i].strip()
        i += 1
        if line.startswith("element"):
            in_vertex = line.startswith("element vertex")
            if in_vertex:
                count = line.split()[-1]
                if not count.isdecimal():
                    raise InvalidParams(f"{path}: bad vertex count in {line!r}")
                n_vertex = int(count)
        elif line.startswith("format") and line != "format ascii 1.0":
            raise InvalidParams(f"{path}: only ASCII PLY is supported, got {line!r}")
        elif line.startswith("property") and in_vertex:
            props.append(line.split()[-1])
        elif line == "end_header":
            break
    cols = {name: k for k, name in enumerate(props)}
    if not {"x", "y", "z"} <= cols.keys():
        raise InvalidParams(f"{path}: vertex element lacks an x, y or z property")
    body = text[i:i + n_vertex]
    if len(body) < n_vertex:
        raise InvalidParams(f"{path}: header declares {n_vertex} vertices, body has {len(body)}")
    try:
        rows = [[float(v) for v in line.split()] for line in body]
    except ValueError as exc:
        raise InvalidParams(f"{path}: bad vertex row: {exc}") from exc
    if any(len(row) != len(props) for row in rows):
        raise InvalidParams(f"{path}: a vertex row does not hold {len(props)} values")
    data = np.array(rows, dtype=float).reshape(n_vertex, len(props))
    return PointCloud3(data[:, [cols["x"], cols["y"], cols["z"]]])


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
    img, maxval = _read_pgm(path)
    if maxval > 255:
        return img.astype(float) / DEPTH_SCALE
    return img.astype(float)


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
