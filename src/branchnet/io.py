"""JSON serialization for measures and networks, plus SVG emission.

Measure files: {"version": 1, "n": ..., "m": ..., "atoms": [{"p": [...],
"w": [...]}]}.  Network files: {"version": 1, "n": ..., "m": ...,
"edges": [{"a": [...], "b": [...], "theta": [...]}]}.  Numbers are written
as decimal text with full precision (repr round-trips IEEE doubles), so
save followed by load is an exact identity up to ordering.
"""

from __future__ import annotations

import colorsys
import json
import math
from pathlib import Path

import numpy as np

from branchnet.chains import Chain0, Chain1, weight_norms

FORMAT_VERSION = 1


class SchemaError(ValueError):
    """Malformed or inconsistent input file; message carries the location."""


def _require(cond: bool, where: str, msg: str):
    if not cond:
        raise SchemaError(f"{where}: {msg}")


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _check_vector(v, length: int, where: str) -> tuple[float, ...]:
    _require(isinstance(v, list), where, f"expected a list, got {type(v).__name__}")
    _require(len(v) == length, where, f"expected length {length}, got {len(v)}")
    out = []
    for i, x in enumerate(v):
        _require(_is_number(x), f"{where}[{i}]", "expected a number")
        try:
            xf = float(x)
        except OverflowError:  # an integer beyond the float range
            raise SchemaError(f"{where}[{i}]: number out of range") from None
        _require(math.isfinite(xf), f"{where}[{i}]", "non-finite number")
        out.append(xf)
    return tuple(out)


def read_document(path, kind: str) -> dict:
    """Parse an input file's JSON; read errors carry the path."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError covers JSONDecodeError and over-long integers
        raise SchemaError(f"{path}: cannot read {kind} file: {exc}") from exc


def _check_header(doc, path) -> tuple[int, int]:
    _require(isinstance(doc, dict), str(path), "top level must be an object")
    for key in ("version", "n", "m"):
        _require(key in doc, str(path), f"missing field '{key}'")
    # bool is an int subclass and True == 1, so booleans are ruled out first
    version = doc["version"]
    _require(not isinstance(version, bool) and version == FORMAT_VERSION, f"{path}:version",
             f"unsupported version {version}")
    n, m = doc["n"], doc["m"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= 1, f"{path}:n", "n must be a positive integer")
    _require(isinstance(m, int) and not isinstance(m, bool) and m >= 1, f"{path}:m", "m must be a positive integer")
    return n, m


def _all(items: list, cls) -> bool:
    """Whether every item is a cls: a set of exact types first, isinstance
    only for subclasses (np.float64 is a float)."""
    return {*map(type, items)} <= {cls} or all(isinstance(x, cls) for x in items)


def _field_arrays(records: list, fields: tuple[tuple[str, int], ...]) -> list[np.ndarray] | None:
    """One (k, d) float array per field (key, d) of the k records, each from
    one ``np.array``, which rounds a number as ``float`` does; None unless
    every record is an object with every key, every row a list of d numbers
    as ``_check_vector`` takes them, and every entry finite."""
    if not _all(records, dict):
        return None
    out = []
    for key, d in fields:
        rows = [rec.get(key) for rec in records]  # a missing key gives None, no list
        if not (_all(rows, list) and {*map(len, rows)} <= {d}):
            return None
        flat = [x for row in rows for x in row]
        if not ({*map(type, flat)} <= {int, float} or all(map(_is_number, flat))):
            return None
        try:
            X = np.array(rows, dtype=float).reshape(len(rows), d)
        except OverflowError:  # an integer beyond the float range
            return None
        if not np.isfinite(X).all():
            return None
        out.append(X)
    return out


def measure_from_document(doc, path) -> Chain0:
    """Measure from a parsed document; ``path`` prefixes error locations.
    Each field is converted as one array (``_field_arrays``); only a document
    it refuses is walked atom by atom, which locates the first error."""
    n, m = _check_header(doc, path)
    _require("atoms" in doc and isinstance(doc["atoms"], list), f"{path}:atoms", "missing atom list")
    arrays = _field_arrays(doc["atoms"], (("p", n), ("w", m)))
    if arrays is None:
        arrays = P, W = [], []
        for i, rec in enumerate(doc["atoms"]):
            where = f"{path}:atoms[{i}]"
            _require(isinstance(rec, dict), where, "expected an object")
            _require("p" in rec and "w" in rec, where, "atom needs fields 'p' and 'w'")
            P.append(_check_vector(rec["p"], n, f"{where}.p"))
            W.append(_check_vector(rec["w"], m, f"{where}.w"))
    return Chain0.from_arrays(n, m, *arrays)


def load_measure(path) -> Chain0:
    return measure_from_document(read_document(path, "measure"), path)


def save_measure(mu: Chain0, path) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "n": mu.n,
        "m": mu.m,
        "atoms": [{"p": p, "w": w} for p, w in zip(mu.P.tolist(), mu.W.tolist())],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def network_from_document(doc, path) -> Chain1:
    """Network from a parsed document; ``path`` prefixes error locations.
    Each field is converted as one array (``_field_arrays``) and the edges
    tested for degeneracy at once; only a document refused there is walked
    edge by edge, which locates the first error."""
    n, m = _check_header(doc, path)
    _require("edges" in doc and isinstance(doc["edges"], list), f"{path}:edges", "missing edge list")
    arrays = _field_arrays(doc["edges"], (("a", n), ("b", n), ("theta", m)))
    if arrays is None or (arrays[0] == arrays[1]).all(axis=1).any():
        arrays = A, B, Theta = [], [], []
        for i, rec in enumerate(doc["edges"]):
            where = f"{path}:edges[{i}]"
            _require(isinstance(rec, dict), where, "expected an object")
            for key in ("a", "b", "theta"):
                _require(key in rec, where, f"edge needs field '{key}'")
            a = _check_vector(rec["a"], n, f"{where}.a")
            b = _check_vector(rec["b"], n, f"{where}.b")
            Theta.append(_check_vector(rec["theta"], m, f"{where}.theta"))
            _require(a != b, where, "degenerate edge (a == b)")
            A.append(a)
            B.append(b)
    return Chain1.from_arrays(n, m, *arrays)


def load_network(path) -> Chain1:
    return network_from_document(read_document(path, "network"), path)


def save_network(T: Chain1, path) -> None:
    doc = {
        "version": FORMAT_VERSION,
        "n": T.n,
        "m": T.m,
        "edges": [{"a": a, "b": b, "theta": th} for a, b, th in zip(T.A.tolist(), T.B.tolist(), T.Theta.tolist())],
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


# ---------------------------------------------------------------------------
# SVG rendering (planar chains)

def _component_hue(j: int, m: int) -> float:
    return (j / max(m, 1)) % 1.0


def _blend_color(theta) -> str:
    th = np.abs(np.asarray(theta, dtype=float))
    total = float(th.sum())
    m = len(th)
    if total == 0:
        return "#888888"
    hue = float(sum(_component_hue(j, m) * th[j] for j in range(m)) / total)
    r, g, b = colorsys.hsv_to_rgb(hue, 0.85, 0.75)
    return f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}"


def emit_svg(
    T: Chain1,
    mu_minus: Chain0 | None = None,
    mu_plus: Chain0 | None = None,
    path="network.svg",
    project: bool = False,
) -> None:
    """Render a planar network on a 640-pixel square: stroke width
    proportional to |theta|_2^0.7, per-component hue blending, measures as
    discs scaled by weight norm.

    Chains with n > 2 require project=True (first two coordinates)."""
    if T.n != 2 and not project:
        raise ValueError(f"n={T.n}: SVG rendering is planar; pass project=True for a coordinate projection")

    def xy(p):
        return (p[0], p[1]) if len(p) >= 2 else (p[0], 0.0)

    pts = [xy(p) for p in T.A.tolist() + T.B.tolist()]
    for mu in (mu_minus, mu_plus):
        if mu is not None:
            pts += [xy(p) for p in mu.P.tolist()]
    if not pts:
        Path(path).write_text('<svg xmlns="http://www.w3.org/2000/svg" width="64" height="64"/>\n')
        return
    P = np.array(pts)
    lo, hi = P.min(axis=0), P.max(axis=0)
    span = float(np.max(hi - lo)) or 1.0
    pad = 0.05 * span
    width = 640
    scale = width / (span + 2 * pad)

    def to_px(p):
        q = (np.array(xy(p)) - lo + pad) * scale
        return float(q[0]), float(width - q[1])

    norms = weight_norms(T.Theta).tolist()
    wmax = max(norms) if norms else 1.0
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{width}">']
    for a, b, th, nrm in zip(T.A.tolist(), T.B.tolist(), T.Theta, norms):
        (x1, y1), (x2, y2) = to_px(a), to_px(b)
        sw = 1.0 + 6.0 * (nrm / wmax) ** 0.7 if wmax > 0 else 1.0
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
            f'stroke="{_blend_color(th)}" stroke-width="{sw:.2f}" stroke-linecap="round"/>'
        )
    for mu, color in ((mu_minus, "#1f77b4"), (mu_plus, "#d62728")):
        if mu is None:
            continue
        wnorms = weight_norms(mu.W).tolist()
        wm = max(wnorms, default=1.0) or 1.0
        for p, wn in zip(mu.P.tolist(), wnorms):
            x, y = to_px(p)
            r = 2.0 + 5.0 * wn / wm
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{r:.2f}" fill="{color}" fill-opacity="0.8"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")
