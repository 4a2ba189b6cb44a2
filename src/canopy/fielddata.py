"""Height/diameter field measurements and piecewise-linear model fitting.

Ships the MLIT (Ministry of Land, Infrastructure, Transport and Tourism)
street-tree girth tables as embedded reference data, converts girth to
diameter, loads measurement CSVs, and refits :class:`DiameterModel`
coefficients by per-segment ordinary least squares.
"""

import csv
import math
from functools import partial
from itertools import compress, islice, repeat
from operator import add, is_, itemgetter
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .errors import (
    CanopyError,
    DomainError,
    ParseError,
    Record,
    UnderdeterminedError,
    ValidationError,
)
from .growth import _MEMBERS, DiameterModel, DiameterSegment, WoodType, _member, default_diameter_models

__all__ = [
    "GIRTH_PI",
    "Measurement",
    "FitResult",
    "girth_to_diameter",
    "load_measurements",
    "fit_piecewise_linear",
    "reference_tables",
    "default_breakpoints",
]

# The published girth tables divide circumference by pi rounded to 3.14;
# keeping that convention reproduces their printed diameters exactly.
GIRTH_PI = 3.14


class Measurement(Record):
    """One height/girth/diameter observation for a wood type or its name.

    An unknown name raises UnknownSpeciesError.  Each value given must be
    positive and finite, and a girth or a diameter must be (else
    ValidationError); a girth alone fills ``diameter`` in through
    :func:`girth_to_diameter`, whose result is checked the same way.
    Embedded reference rows carry both (girth as surveyed, diameter as
    published).
    """

    wood: WoodType
    height: float
    girth: float | None = None
    diameter: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "wood", _member(WoodType, self.wood))
        if self.diameter is None and self.girth is not None and self.girth > 0.0:
            object.__setattr__(self, "diameter", girth_to_diameter(self.girth))
        for name in ("height", "girth", "diameter"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValidationError(f"{name} must be positive and finite, got {value}")
        if self.diameter is None:
            raise ValidationError("measurement needs a girth or a diameter")


class FitResult(Record):
    """Fitted diameter model with per-segment diagnostics."""

    model: DiameterModel
    per_segment_r2: tuple[float, ...]
    residual_rms: float


def girth_to_diameter(girth: float) -> float:
    """Trunk diameter from circumference, using the tables' pi of 3.14."""
    if not girth > 0.0:
        raise DomainError(f"girth must be positive, got {girth}")
    return girth / GIRTH_PI


def default_breakpoints(wood: WoodType | str) -> tuple[float, ...]:
    """Where each segment but the first of the built-in diameter model of
    a wood type (or its name) begins."""
    segments = default_diameter_models()[_member(WoodType, wood)].segments
    return tuple(seg.h_lo for seg in segments[1:])


# data rows read and checked together: enough that a chunk's per-row work
# runs in C, in its column checks, rather than in a Python loop
_CHUNK_ROWS = 4096


def _read_table(
    path: str | Path,
    parse: Callable[..., list | None],
    make: Callable[..., Record | None],
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> list:
    """The records of the data rows of a CSV file with a header row, read
    a chunk of ``_CHUNK_ROWS`` data rows at a time.

    ``parse`` gets a chunk's stripped cells as columns, one list for each
    ``required`` column, then each ``optional`` one, and returns the
    chunk's records, or None if a cell fails one of its checks.  A chunk
    that ``parse`` refuses, or that has a short row, is read again one row
    at a time: ``make`` gets a row's cells in the same order and returns
    its record, or None to leave the row out, and raises the first bad
    row's error.  An optional column missing from the header or the row
    reads as "".  ``#``-prefixed and blank lines are skipped, a leading
    byte-order mark is ignored, header names are stripped and lower-cased,
    and a repeated name means its first column.  An empty file has no rows.

    Raises:
        ParseError: If the header lacks a ``required`` column or names
            none of the ``optional`` ones, or a row is too short for a
            required column.
        CanopyError: Whatever ``make`` raises.  An error that a data row
            raises gets its 1-based number as ``row`` and a ``row N: `` prefix.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        lines = (
            line for line in csv.reader(handle)
            if "".join(line).strip() and not line[0].lstrip().startswith("#")
        )
        header = [cell.strip().lower() for cell in next(lines, ())]
        if not header:
            return []
        for name in required:
            if name not in header:
                raise ParseError(f"missing column {name!r} in header")
        if optional and not any(name in header for name in optional):
            raise ParseError(f"header needs a {' or '.join(optional)} column")
        # an optional column the header lacks points one past its end
        positions = [header.index(n) if n in header else len(header) for n in (*required, *optional)]
        width = max(positions) + 1
        records, first = [], 1
        while chunk := list(islice(lines, _CHUNK_ROWS)):
            shortest, longest = min(map(len, chunk)), max(map(len, chunk))
            got = None
            # read whole a column whose cell every row has, or (for an
            # optional column alone) no row has
            if all(pos < shortest for pos in positions[: len(required)]) and not any(
                shortest <= pos < longest for pos in positions
            ):
                got = parse(*[
                    list(map(str.strip, map(itemgetter(pos), chunk))) if pos < shortest
                    else [""] * len(chunk)
                    for pos in positions
                ])
            if got is None:
                got = []
                for row_number, line in enumerate(chunk, start=first):
                    try:
                        if len(line) < width:
                            for name, pos in zip(required, positions):
                                if pos >= len(line):
                                    raise ParseError(f"missing {name} value")
                            line += [""] * (width - len(line))
                        record = make(*[line[pos].strip() for pos in positions])
                    except CanopyError as exc:
                        exc.row, exc.args = row_number, (f"row {row_number}: {exc}",)
                        raise
                    if record is not None:
                        got.append(record)
            records += got
            first += len(chunk)
        return records


def _number(text: str, column: str, kind: type = float):
    try:
        return kind(text)
    except ValueError:
        raise ParseError(f"bad number {text!r} in column {column}") from None


def _positive_finite(values: list[float]) -> bool:
    """Whether every value is positive and finite: a sum of floats is
    finite only if none is nan or infinite."""
    return math.isfinite(sum(values)) and min(values, default=1.0) > 0.0


def _measurement(wood: str, height: str, girth: str, diameter: str) -> Measurement:
    if bool(girth) == bool(diameter):
        raise ValidationError("exactly one of girth_cm/diameter_cm must be given")
    height_cm = _number(height, "height_cm")
    if girth:
        return Measurement(wood.lower(), height_cm, _number(girth, "girth_cm"))
    return Measurement(wood.lower(), height_cm, None, _number(diameter, "diameter_cm"))


def _measurements(
    keep: WoodType | None, wood: list, height: list, girth: list, diameter: list
) -> list[Measurement] | None:
    """A chunk's measurements of wood ``keep`` (all, if None), or None if a
    row of any wood would fail :func:`_measurement`."""
    given = list(map(bool, girth))
    # each row gives exactly one of girth and diameter, so g + d is that one
    if any(map(is_, given, map(bool, diameter))):
        return None
    try:
        woods = list(map(_MEMBERS[WoodType].__getitem__, map(str.lower, wood)))
        heights = list(map(float, height))
        sizes = list(map(float, map(add, girth, diameter)))
    except (KeyError, ValueError):
        return None
    # a girth so small that its diameter rounds to 0 fails as well
    girths = list(compress(sizes, given))
    if not (_positive_finite(heights) and _positive_finite(sizes)
            and min(girths, default=GIRTH_PI) / GIRTH_PI > 0.0):
        return None
    rows = zip(woods, heights, sizes, given)
    if keep is not None:
        rows = compress(rows, map(is_, woods, repeat(keep)))
    return [
        Measurement(w, h, size) if is_girth else Measurement(w, h, None, size)
        for w, h, size, is_girth in rows
    ]


def load_measurements(path: str | Path, wood: WoodType | str | None = None) -> list[Measurement]:
    """Load measurements from a CSV file: every row is checked, and the
    rows of ``wood`` (a wood type or its name; every row, if None) are
    returned.

    Expected header: ``wood,height_cm,girth_cm,diameter_cm`` (the two
    trailing columns may be reduced to whichever one the file uses).
    Wood names are case-insensitive; ``#``-prefixed lines and blank lines
    are skipped; exactly one of girth/diameter must be non-empty per row.
    Each row returned is a :class:`Measurement`, which checks its values
    and converts girth to diameter.  An empty file yields an empty list.

    Raises:
        ParseError: Malformed header, short row or unparseable number.
        UnknownSpeciesError: Unknown wood name, in the file or as ``wood``.
        ValidationError: Non-finite or nonpositive values, or both or
            neither of girth/diameter present.
        Each with ``row N: `` and ``row`` set if a data row raised it.
    """
    keep = None if wood is None else _member(WoodType, wood)

    def make(*cells: str) -> Measurement | None:
        record = _measurement(*cells)
        return record if keep is None or record.wood is keep else None

    return _read_table(
        path, partial(_measurements, keep), make, ("wood", "height_cm"), ("girth_cm", "diameter_cm")
    )


def _ols(points: Sequence[tuple[float, float]]) -> tuple[float, float, float, float]:
    """Slope, intercept, r^2 and residual sum of squares for one segment.

    Least squares on the centred points, with every sum taken by
    :func:`math.fsum`, so no cancellation enters from the raw products.
    """
    n = len(points)
    h_mean = math.fsum(h for h, _ in points) / n
    d_mean = math.fsum(d for _, d in points) / n
    dh = [h - h_mean for h, _ in points]
    dd = [d - d_mean for _, d in points]
    slope = math.fsum(x * y for x, y in zip(dh, dd)) / math.fsum(x * x for x in dh)
    intercept = d_mean - slope * h_mean
    ss_res = math.fsum((d - (slope * h + intercept)) ** 2 for h, d in points)
    ss_tot = math.fsum(y * y for y in dd)
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2, ss_res


def fit_piecewise_linear(
    points: Iterable[tuple[float, float]],
    breakpoints: Sequence[float],
    *,
    wood: WoodType | None = None,
) -> FitResult:
    """Fit one line per breakpoint segment by ordinary least squares.

    Segments are fit independently, with no continuity constraint at the
    breakpoints (the built-in models are themselves discontinuous there).
    A point lying exactly on a breakpoint contributes to both adjacent
    segments, matching how the built-in coefficients interpolate the
    reference rows at 250 and 300 cm; evaluation of the fitted model
    remains half-open.

    Args:
        points: (height_cm, diameter_cm) pairs.
        breakpoints: Strictly increasing, positive, finite segment
            boundaries.
        wood: Optional wood tag recorded on the fitted model.

    Raises:
        UnderdeterminedError: If a segment holds fewer than two distinct
            heights.
        ValidationError: Bad breakpoints, or a fitted segment violating
            the model invariants (nonpositive slope / negative diameter).
    """
    pts = [(float(h), float(d)) for h, d in points]
    if any(h < 0.0 for h, _ in pts):
        raise ValidationError("heights must be nonnegative")
    bps = [float(b) for b in breakpoints]
    if not all(map(math.isfinite, bps)):
        raise ValidationError(f"breakpoints must be finite, got {bps}")
    if any(b <= 0.0 for b in bps) or sorted(set(bps)) != bps:
        raise ValidationError("breakpoints must be positive and strictly increasing")

    edges: list[tuple[float, float | None]] = []
    lower = 0.0
    for b in bps:
        edges.append((lower, b))
        lower = b
    edges.append((lower, None))

    segments = []
    r2s = []
    ss_res_total = []
    n_assigned = 0
    for lo, hi in edges:
        # boundary rows belong to both neighbouring segments
        selected = [
            (h, d) for h, d in pts if h >= lo and (hi is None or h <= hi)
        ]
        if len(selected) < 2 or len({h for h, _ in selected}) < 2:
            upper = "inf" if hi is None else f"{hi:g}"
            raise UnderdeterminedError(
                f"segment [{lo:g}, {upper}) needs two distinct heights, "
                f"has {len(selected)} point(s)"
            )
        slope, intercept, r2, ss_res = _ols(selected)
        segments.append(DiameterSegment(lo, hi, slope, intercept))
        r2s.append(r2)
        ss_res_total.append(ss_res)
        n_assigned += len(selected)

    model = DiameterModel(wood=wood, segments=tuple(segments))
    rms = math.sqrt(math.fsum(ss_res_total) / n_assigned)
    return FitResult(model=model, per_segment_r2=tuple(r2s), residual_rms=rms)


# MLIT girth tables: (height_cm, girth_cm, published_diameter_cm).
_EVERGREEN_ROWS = (
    (250, 11, 3.503185), (300, 16, 5.095541), (350, 20, 6.369427),
    (400, 37, 11.78344), (450, 36, 11.46497), (500, 35, 11.1465),
    (550, 52, 16.56051), (600, 64, 20.38217), (650, 70, 22.29299),
    (700, 83, 26.43312), (800, 95, 30.25478), (850, 100, 31.84713),
    (1000, 120, 38.21656), (1100, 150, 47.7707),
)
_DECIDUOUS_ROWS = (
    (200, 10, 3.184713), (250, 11, 3.503185), (300, 13, 4.140127),
    (350, 18, 5.732484), (400, 22, 7.006369), (450, 26, 8.280255),
    (500, 32, 10.19108), (550, 35, 11.1465), (600, 43, 13.69427),
    (650, 55, 17.51592), (700, 54, 17.19745), (800, 83, 26.43312),
    (900, 83, 26.43312), (1000, 107, 34.07643), (1100, 135, 42.99363),
)
_CONIFER_ROWS = (
    (250, 13, 4.140127), (300, 15, 4.77707), (350, 19, 6.050955),
    (400, 23, 7.324841), (450, 26, 8.280255), (500, 33, 10.50955),
    (550, 40, 12.73885), (600, 43, 13.69427), (700, 53, 16.87898),
    (800, 60, 19.10828), (900, 80, 25.47771), (1100, 100, 31.84713),
)


def reference_tables() -> dict[WoodType, tuple[Measurement, ...]]:
    """Embedded MLIT height/girth/diameter tables (14, 15 and 12 rows)."""
    rows = {
        WoodType.EVERGREEN: _EVERGREEN_ROWS,
        WoodType.DECIDUOUS: _DECIDUOUS_ROWS,
        WoodType.CONIFER: _CONIFER_ROWS,
    }
    return {
        wood: tuple(
            Measurement(wood=wood, height=float(h), girth=float(g), diameter=d)
            for h, g, d in table
        )
        for wood, table in rows.items()
    }
