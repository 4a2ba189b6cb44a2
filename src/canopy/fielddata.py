"""Height/diameter field measurements and piecewise-linear model fitting.

Ships the MLIT (Ministry of Land, Infrastructure, Transport and Tourism)
street-tree girth tables as embedded reference data, converts girth to
diameter, loads measurement CSVs, and refits :class:`DiameterModel`
coefficients by per-segment ordinary least squares.
"""

import csv
import math
from bisect import bisect_left, bisect_right
from functools import partial
from itertools import chain, compress, islice, repeat, starmap
from operator import add, is_, itemgetter, mul, sub
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

    _domains = {"height": "(0, inf)", "girth": "(0, inf) or None",
                "diameter": "(0, inf) or None"}

    def __post_init__(self):
        object.__setattr__(self, "wood", _member(WoodType, self.wood))
        if self.diameter is None:
            if self.girth is None:
                raise ValidationError("measurement needs a girth or a diameter")
            object.__setattr__(self, "diameter", girth_to_diameter(self.girth))
            if not self.diameter > 0.0:  # girth 5e-324 gives 5e-324 / 3.14 = 0.0
                raise ValidationError(f"diameter must lie in (0, inf), got {self.diameter}")


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
    parse: Callable[..., list],
    row: Callable[..., object],
    required: Sequence[str],
    optional: Sequence[str] = (),
) -> list:
    """The records of the data rows of a CSV file with a header row, read
    a chunk of ``_CHUNK_ROWS`` data rows at a time.

    ``parse`` gets a chunk's stripped cells as columns, one list for each
    ``required`` column, then each ``optional`` one (a cell the header or
    the row lacks reads as ""), and returns the chunk's records or raises
    KeyError or ValueError.  Only then does ``row`` get each row's cells
    in turn: it returns the row's record, which the chunk keeps (None
    leaves the row out), or raises.
    ``#``-prefixed and blank lines are skipped, a leading byte-order mark
    is ignored, header names are stripped and lower-cased, and a repeated
    name means its first column.  An empty file has no rows.

    Raises:
        ParseError: If the file is not UTF-8 text or holds a field past
            the csv module's size limit, the header lacks a ``required``
            column or names none of the ``optional`` ones, or a row is
            too short for a required column.
        CanopyError: Whatever ``row`` raises.  An error that a data row
            raises gets its 1-based number as ``row`` and a ``row N: `` prefix.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        lines = (
            line for line in csv.reader(handle)
            if "".join(line).strip() and not line[0].lstrip().startswith("#")
        )
        try:
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

            def columns(rows: list[list[str]]) -> list[list[str]]:
                shortest, longest = min(map(len, rows)), max(map(len, rows))
                for name, pos in zip(required, positions):
                    if pos >= shortest:
                        raise ParseError(f"missing {name} value")
                return [
                    list(map(str.strip, map(itemgetter(pos), rows))) if pos < shortest
                    else [""] * len(rows) if pos >= longest
                    else [line[pos].strip() if pos < len(line) else "" for line in rows]
                    for pos in positions
                ]

            records, first = [], 1
            while chunk := list(islice(lines, _CHUNK_ROWS)):
                try:
                    records += parse(*columns(chunk))
                except (KeyError, ValueError):
                    for number, line in enumerate(chunk, start=first):
                        try:
                            record = row(*[column[0] for column in columns([line])])
                        except CanopyError as exc:
                            exc.row, exc.args = number, (f"row {number}: {exc}",)
                            raise exc from None
                        if record is not None:
                            records.append(record)
                first += len(chunk)
            return records
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ParseError(f"cannot read {path}: {exc}") from None


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
) -> list[tuple]:
    """A chunk's checked (wood, height, girth, diameter) rows of wood ``keep``
    (all, if None), or KeyError or ValueError if a row might fail :func:`_measurement`."""
    given = list(map(bool, girth))
    woods = list(map(_MEMBERS[WoodType].__getitem__, map(str.lower, wood)))
    heights = list(map(float, height))
    # a row gives one of girth and diameter (checked below), so g + d is that one
    sizes = list(map(float, map(add, girth, diameter)))
    # a girth so small that its diameter rounds to 0 fails as well
    girths = list(compress(sizes, given))
    if any(map(is_, given, map(bool, diameter))) or not (
        _positive_finite(heights) and _positive_finite(sizes)
        and min(girths, default=GIRTH_PI) / GIRTH_PI > 0.0
    ):
        raise ValueError
    rows = zip(woods, heights, sizes, given)
    if keep is not None:
        rows = compress(rows, map(is_, woods, repeat(keep)))
    # girth_to_diameter's division, as a Measurement given a girth makes it
    return [
        (w, h, size, size / GIRTH_PI) if is_girth else (w, h, None, size)
        for w, h, size, is_girth in rows
    ]


def _survey(path: str | Path, wood: WoodType | str | None) -> list[tuple]:
    """The checked (wood, height, girth, diameter) values of the rows of
    ``wood`` in a measurement CSV, as :func:`load_measurements` reads it."""
    keep = None if wood is None else _member(WoodType, wood)

    def kept(*cells: str) -> tuple | None:  # the row rule, which checks a row of any wood
        m = _measurement(*cells)
        return (m.wood, m.height, m.girth, m.diameter) if keep in (None, m.wood) else None
    columns = ("wood", "height_cm"), ("girth_cm", "diameter_cm")
    return _read_table(path, partial(_measurements, keep), kept, *columns)


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
    return list(starmap(Measurement, _survey(path, wood)))


def _ols(heights: Sequence[float], diameters: Sequence[float]) -> tuple[float, float, float, float]:
    """Slope, intercept, r^2 and residual sum of squares for one segment.

    Least squares on the centred points, with every sum taken by
    :func:`math.fsum`, so no cancellation enters from the raw products and
    the order of the points does not matter.
    """
    n = len(heights)
    h_mean = math.fsum(heights) / n
    d_mean = math.fsum(diameters) / n
    dh = list(map(sub, heights, repeat(h_mean)))
    dd = list(map(sub, diameters, repeat(d_mean)))
    slope = math.fsum(map(mul, dh, dd)) / math.fsum(map(mul, dh, dh))
    intercept = d_mean - slope * h_mean
    # each residual is d - (slope * h + intercept), squared
    fitted = map(add, map(mul, repeat(slope), heights), repeat(intercept))
    ss_res = math.fsum(map(pow, map(sub, diameters, fitted), repeat(2)))
    ss_tot = math.fsum(map(mul, dd, dd))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res == 0.0 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return slope, intercept, r2, ss_res


def _breakpoints(breakpoints: Iterable[float]) -> list[float]:
    """The breakpoints as floats, if finite, positive and strictly
    increasing (else ValidationError)."""
    bps = [float(b) for b in breakpoints]
    if not all(map(math.isfinite, bps)):
        raise ValidationError(f"breakpoints must be finite, got {bps}")
    if any(b <= 0.0 for b in bps) or sorted(set(bps)) != bps:
        raise ValidationError("breakpoints must be positive and strictly increasing")
    return bps


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
        DomainError: If a least-squares sum or square leaves the float range.
        UnderdeterminedError: If a segment holds fewer than two distinct
            heights.
        ValidationError: A non-finite height or diameter, a negative
            height, bad breakpoints, or a fitted segment violating the
            model invariants (nonpositive slope / negative diameter).
    """
    # sorted by height, each segment's points are one slice
    pts = sorted(((float(h), float(d)) for h, d in points), key=itemgetter(0))
    if not all(map(math.isfinite, chain.from_iterable(pts))):
        raise ValidationError("heights and diameters must be finite")
    heights, diameters = (list(map(itemgetter(i), pts)) for i in (0, 1))
    if heights and heights[0] < 0.0:
        raise ValidationError("heights must be nonnegative")
    bps = _breakpoints(breakpoints)

    segments, r2s, ss_res_total, n_assigned = [], [], [], 0
    try:
        for lo, hi in zip([0.0, *bps], [*bps, None]):
            # boundary rows belong to both neighbouring segments
            first = bisect_left(heights, lo)
            last = len(heights) if hi is None else bisect_right(heights, hi)
            if last - first < 2 or heights[first] == heights[last - 1]:
                upper = "inf" if hi is None else f"{hi:g}"
                raise UnderdeterminedError(
                    f"segment [{lo:g}, {upper}) needs two distinct heights, "
                    f"has {last - first} point(s)"
                )
            slope, intercept, r2, ss_res = _ols(heights[first:last], diameters[first:last])
            segments.append(DiameterSegment(lo, hi, slope, intercept))
            r2s.append(r2)
            ss_res_total.append(ss_res)
            n_assigned += last - first
        model = DiameterModel(wood=wood, segments=tuple(segments))
        rms = math.sqrt(math.fsum(ss_res_total) / n_assigned)
    except CanopyError:
        raise
    except (ArithmeticError, ValueError):
        # a product, square or sum past the float range, or squares that underflow to 0
        raise DomainError("the points' least-squares sums leave the float range") from None
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
