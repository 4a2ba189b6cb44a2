"""The three workloads: their seeded inputs, operations and checks.

Each workload hands out rounds: fixed-size lists of operations drawn from
a seeded stream, so the same seed gives the same inputs and every run is
made of whole rounds.  ``run`` performs one operation (the timed part) and
``check`` compares its output with the oracle, returning the problems
found.  Only the constructors and ``run`` call ``canopy``; the checks read
its outputs.
"""

import contextlib
import csv
import io
import json
import math
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

import oracle

TOL = 1e-8  # relative agreement of absorption figures with the oracle
FIT_TOL = 1e-9  # relative agreement of least-squares coefficients
PRINTED = 0.5e-6 * (1.0 + 1e-9)  # half a unit in the last place of "%.6f"
FORMATS = ("table", "csv", "json")
BREAKPOINTS = {"evergreen": (250.0, 300.0), "deciduous": (300.0,), "conifer": (300.0,)}

# The conifer growth branch is singular at t = 1, and the program's adaptive
# Simpson misses 1e-8 relative on first pieces shorter than [1, 2.689]
# (horizons in (2, 3.689)).  The sweep keeps that fault visible through one
# fixed operation per round and draws its random conifer horizons elsewhere.
CONIFER_GAP = (2.0, 3.7)
KNOWN_FAULT = dict(wood="conifer", size="tall", cap=False, horizon=2.05,
                   p=oracle.DEFAULT_P["tall"], factors=oracle.DEFAULT_FACTORS)


@dataclass
class Op:
    kind: str
    args: dict
    known_fault: bool = False
    key: int = 0  # identifies a repeated command (cli workload)


def _expect(problems, name, got, want, rel=TOL, floor=0.0):
    if not (isinstance(got, (int, float)) and not isinstance(got, bool)
            and math.isfinite(got) and abs(got - want) <= rel * abs(want) + floor):
        problems.append(f"{name}: {got!r}, oracle {want!r}")


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def parse_json(text: str):
    """Parse strict JSON: NaN and Infinity tokens are refused."""
    return json.loads(text, parse_constant=_reject_constant)


def _random_factors(rng):
    return (rng.uniform(1.2, 2.2), rng.uniform(0.15, 0.4),
            rng.uniform(0.3, 0.6), rng.uniform(0.45, 0.55))


def check_absorption(case, p, c, horizon, segments, creditable, total, problems):
    """Segments [(t_lo, t_hi, label, value)], survivor and total of one
    report against the oracle.  Each segment is integrated by the oracle
    over the reported bounds, once those bounds match the oracle's cuts."""
    expected = oracle.per_tree(case, p, c, horizon)
    if len(segments) != len(expected.pieces):
        problems.append(f"{len(segments)} segments, oracle {len(expected.pieces)}")
        return
    for i, (piece, (t_lo, t_hi, label, value)) in enumerate(zip(expected.pieces, segments)):
        for end, got, want in (("start", t_lo, piece.lo), ("end", t_hi, piece.hi)):
            _expect(problems, f"segment {i} {end}", got, want, TOL, TOL)
        if ("capped height" in label) != piece.on_cap:
            problems.append(f"segment {i} branch {label!r}, oracle on_cap={piece.on_cap}")
        if isinstance(t_lo, float) and isinstance(t_hi, float):
            want = oracle.piece_value(case, piece, p, c, t_lo, t_hi)
            _expect(problems, f"segment {i} value", value, want)
    _expect(problems, "creditable", creditable, expected.survivor)
    _expect(problems, "total", total, expected.total)
    values = [s[3] for s in segments]
    if all(isinstance(v, float) for v in values):
        _expect(problems, "total vs segments + creditable", total,
                math.fsum(values + [creditable]), 1e-12)


class Sweep:
    """In-process expected_absorption over a stratified random grid: each
    round covers the nine species in five horizon bands, with p, the carbon
    factors and the cap mode drawn per call, plus the fixed known fault."""

    name = "sweep"
    nominal_round_s = 0.45

    def __init__(self, canopy, workdir: Path, seed: int):
        self.canopy = canopy
        self.models = canopy.default_diameter_models()

    def make_round(self, rng: random.Random, index: int) -> list:
        ops = [Op("absorption", dict(KNOWN_FAULT), known_fault=True)]
        for wood in oracle.WOODS:
            for size in oracle.SIZES:
                start = 1.0 if wood == "conifer" else 0.0
                # an odd number of bands puts the median inside the middle one
                bands = [(start, start + 3.0), (start + 3.0, 20.0), (20.0, 60.0),
                         (60.0, 150.0), (150.0, 500.0)]
                if wood == "conifer" and size != "shrub":
                    bands[0] = (start, CONIFER_GAP[0]) if index % 2 else (CONIFER_GAP[1], start + 3.0)
                for band, (lo, hi) in enumerate(bands):
                    horizon = lo + (hi - lo) * (1.0 - rng.random())  # in (lo, hi]
                    ops.append(Op("absorption", dict(
                        wood=wood, size=size, cap=(index + band) % 2 == 1,
                        horizon=horizon, p=rng.uniform(0.005, 0.06),
                        factors=_random_factors(rng),
                    )))
        return ops

    def run(self, op: Op):
        a = op.args
        cp = self.canopy
        spec = cp.species(a["wood"], a["size"], continuous_cap=a["cap"])
        constant = cp.carbon_constant(cp.CarbonFactors(*a["factors"]))
        return cp.expected_absorption(
            spec, self.models[spec.wood], cp.RemovalModel(a["p"]), constant, a["horizon"]
        )

    def check(self, op: Op, report) -> list:
        a = op.args
        problems = []
        if report.horizon != a["horizon"] or report.p != a["p"]:
            problems.append("report does not echo its horizon and p")
        check_absorption(
            oracle.Case(a["wood"], a["size"], a["cap"]), a["p"],
            oracle.carbon_constant(*a["factors"]), a["horizon"],
            [(s.t_lo, s.t_hi, s.label, s.value) for s in report.segments],
            report.creditable, report.expected_total, problems,
        )
        return problems


# ---------------------------------------------------------------- inputs


def write_inventory(path: Path, rng: random.Random, n: int) -> list:
    """Inventory CSV of n cohorts, the first nine covering all nine species
    so that every inventory costs nine reports; returns [(label, wood,
    size, count)]."""
    species = [(wood, size) for wood in oracle.WOODS for size in oracle.SIZES]
    rng.shuffle(species)
    species += [(rng.choice(oracle.WOODS), rng.choice(oracle.SIZES)) for _ in range(n - 9)]
    rows = [(f"c{i:05d}", wood, size, rng.randint(1, 200))
            for i, (wood, size) in enumerate(species[:n])]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# seeded planting inventory\nlabel,wood,size,count\n")
        for i, (label, wood, size, count) in enumerate(rows):
            handle.write(f"{label},{wood.upper() if i % 7 == 0 else wood},{size},{count}\n")
    return rows


def write_measurements(path: Path, rng: random.Random, n: int) -> list:
    """Measurement CSV of n rows around the built-in diameter rules, a third
    of them as girth; returns [(wood, height, diameter)] as the program
    should read them.  Rows cycle through the woods and, within a wood,
    through its diameter segments, so every segment gets a fair share of
    points and every fitted line keeps a positive slope."""
    rows = []
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("wood,height_cm,girth_cm,diameter_cm\n")
        for i in range(n):
            wood = oracle.WOODS[i % 3]
            rules = oracle.DIAMETER_RULES[wood]
            lo, hi, slope, intercept = rules[(i // 3) % len(rules)]
            h_text = f"{rng.uniform(max(lo, 60.0), 1500.0 if hi is None else hi):.3f}"
            h = float(h_text)
            d = slope * h + intercept + 1.5 + rng.gauss(0.0, 0.2)
            if rng.random() < 1.0 / 3.0:
                g_text = f"{d * oracle.GIRTH_PI:.4f}"
                handle.write(f"{wood},{h_text},{g_text},\n")
                rows.append((wood, h, float(g_text) / oracle.GIRTH_PI))
            else:
                d_text = f"{d:.4f}"
                handle.write(f"{wood},{h_text},,{d_text}\n")
                rows.append((wood, h, float(d_text)))
            if i % 5000 == 4999:
                handle.write("\n# survey block boundary\n")
    return rows


def portfolio_args(rng: random.Random, path: Path, fmt: str, index: int, horizon,
                   emissions: float) -> tuple:
    """argv and parameters of one portfolio command; emissions are drawn
    up to about the gross credit, so some projects fall short."""
    params = dict(
        horizon=rng.uniform(*horizon), p_tall=rng.uniform(0.01, 0.05),
        p_ms=rng.uniform(0.01, 0.05), factors=_random_factors(rng),
        emissions=rng.uniform(0.0, emissions), steward=rng.uniform(0.0, 10.0),
        mode=("survivor_only", "include_in_process")[index % 2], cap=index % 3 == 1,
    )
    bef, rtsr, bd, cf = params["factors"]
    argv = ["portfolio", str(path), "--format", fmt,
            "--horizon", repr(params["horizon"]), "--p-tall", repr(params["p_tall"]),
            "--p-medium-shrub", repr(params["p_ms"]), "--bef", repr(bef), "--rtsr", repr(rtsr),
            "--bd", repr(bd), "--cf", repr(cf), "--emissions", repr(params["emissions"]),
            "--steward-years", repr(params["steward"]), "--credit-mode", params["mode"]]
    if params["cap"]:
        argv.append("--continuous-cap")
    return argv, params


def expected_portfolio(rows, params) -> dict:
    """Oracle per-tree values, credits, shares, gross and net."""
    c = oracle.carbon_constant(*params["factors"])
    per_tree = {}
    for wood in oracle.WOODS:
        for size in oracle.SIZES:
            p = params["p_tall"] if size == "tall" else params["p_ms"]
            per_tree[(wood, size)] = oracle.per_tree(
                oracle.Case(wood, size, params["cap"]), p, c, params["horizon"])
    cohorts = []
    for label, wood, size, count in rows:
        tree = per_tree[(wood, size)]
        basis = tree.survivor if params["mode"] == "survivor_only" else tree.total
        credit = count * basis
        share = credit * params["steward"] / params["horizon"]
        cohorts.append((label, count, tree.total, tree.survivor, credit, share))
    gross = math.fsum(r[4] for r in cohorts)
    return dict(cohorts=cohorts, gross=gross, shares=math.fsum(r[5] for r in cohorts),
                net=gross - params["emissions"])


def check_portfolio(text: str, fmt: str, rows, params, problems):
    want = expected_portfolio(rows, params)
    scale = want["gross"] + params["emissions"]
    if fmt == "json":
        data = parse_json(text)
        for key, value in (("horizon_years", params["horizon"]), ("credit_mode", params["mode"]),
                           ("steward_years", params["steward"]),
                           ("project_emissions", params["emissions"])):
            if data.get(key) != value:
                problems.append(f"{key}: {data.get(key)!r}, expected {value!r}")
        got = data["per_cohort"]
        if len(got) != len(want["cohorts"]):
            problems.append(f"{len(got)} cohorts, inventory has {len(want['cohorts'])}")
            return
        fields = ("per_tree_total", "per_tree_creditable", "cohort_credit", "steward_share")
        for r, (label, count, *values) in zip(got, want["cohorts"]):
            if r["label"] == label and r["count"] == count and all(
                abs(r[key] - value) <= TOL * value for key, value in zip(fields, values)
            ):
                continue  # the common case, without building messages
            problems.append(f"cohort {label}: {r!r}, oracle {[label, count, *values]!r}")
            if len(problems) > 20:
                return
        _expect(problems, "gross_credit", data["gross_credit"], want["gross"])
        _expect(problems, "net_credit", data["net_credit"], want["net"], 0.0, TOL * scale)
        if abs(want["net"]) > TOL * scale and data["shortfall"] != (want["net"] < 0.0):
            problems.append(f"shortfall {data['shortfall']!r} with oracle net {want['net']!r}")
        return
    table = _read_rows(text, fmt)
    header = ["label", "count", "per_tree_total", "per_tree_creditable", "cohort_credit",
              "steward_share"]
    if not table or table[0] != header:
        problems.append(f"header {table[:1]!r}")
        return
    body = table[1:]
    if len(body) != len(want["cohorts"]) + 2:
        problems.append(f"{len(body)} rows, expected {len(want['cohorts']) + 2}")
        return
    for cells, (label, count, *values) in zip(body, want["cohorts"]):
        if cells[:2] == [label, str(count)] and len(cells) == 6 and all(
            abs(float(text_value) - value) <= PRINTED + TOL * value
            for text_value, value in zip(cells[2:], values)
        ):
            continue
        problems.append(f"cohort row {cells!r}, oracle {[label, count, *values]!r}")
        if len(problems) > 20:
            return
    total, net = body[-2], body[-1]
    if fmt == "csv":
        total = [total[0], total[4], total[5]]
        net = [net[0], net[4]]
    if total[0] != "TOTAL" or net[0] != "NET":
        problems.append(f"summary rows {total!r}, {net!r}")
        return
    _expect_printed(problems, "TOTAL credit", total[1], want["gross"])
    _expect_printed(problems, "TOTAL shares", total[2], want["shares"])
    _expect_printed(problems, "NET", net[1], want["net"])


def _expect_printed(problems, name, text, want):
    try:
        got = float(text)
    except ValueError:
        problems.append(f"{name}: unreadable {text!r}")
        return
    if not abs(got - want) <= PRINTED + TOL * abs(want):
        problems.append(f"{name}: printed {text}, oracle {want!r}")


def _read_rows(text: str, fmt: str) -> list:
    """Rows of a csv or table rendering, without the table's rule line."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    lines = text.splitlines()
    return [line.split() for i, line in enumerate(lines) if i != 1]


def expected_fit(rows, wood) -> tuple:
    points = [(h, d) for w, h, d in rows if w == wood]
    segments, rms = oracle.piecewise_fit(points, BREAKPOINTS[wood])
    return len(points), segments, rms


def check_fit(text: str, fmt: str, rows, wood, problems, cache=None):
    key = (id(rows), wood)
    if cache is not None and key in cache:
        n, segments, rms = cache[key]
    else:
        n, segments, rms = expected_fit(rows, wood)
        if cache is not None:
            cache[key] = (n, segments, rms)
    if fmt == "json":
        data = parse_json(text)
        if data.get("wood") != wood or data.get("n_points") != n:
            problems.append(f"wood/n_points {data.get('wood')!r}, {data.get('n_points')!r}")
        if data.get("breakpoints") != list(BREAKPOINTS[wood]):
            problems.append(f"breakpoints {data.get('breakpoints')!r}")
        got = data.get("segments", [])
        if len(got) != len(segments):
            problems.append(f"{len(got)} fitted segments, oracle {len(segments)}")
            return
        for i, (g, (lo, hi, slope, intercept, r2)) in enumerate(zip(got, segments)):
            if g["h_lo"] != lo or g["h_hi"] != hi:
                problems.append(f"segment {i} bounds {g['h_lo']!r}, {g['h_hi']!r}")
            _expect(problems, f"segment {i} slope", g["slope"], slope, FIT_TOL)
            _expect(problems, f"segment {i} intercept", g["intercept"], intercept, FIT_TOL,
                    FIT_TOL * abs(slope) * 1500.0)
            _expect(problems, f"segment {i} r_squared", g["r_squared"], r2, 0.0, FIT_TOL)
        _expect(problems, "residual_rms_cm", data.get("residual_rms_cm"), rms, FIT_TOL)
        return
    table = _read_rows(text, fmt)
    if fmt == "table":
        if not table or table[-1][:1] != ["residual_rms_cm"]:
            problems.append("missing residual_rms_cm line")
            return
        _expect_printed(problems, "residual_rms_cm", table[-1][1], rms)
        table = table[:-1]
    if not table or table[0] != ["h_lo", "h_hi", "slope", "intercept", "r_squared"]:
        problems.append(f"header {table[:1]!r}")
        return
    if len(table) - 1 != len(segments):
        problems.append(f"{len(table) - 1} fitted rows, oracle {len(segments)}")
        return
    for i, (cells, (lo, hi, slope, intercept, r2)) in enumerate(zip(table[1:], segments)):
        if (cells[1] == "inf") != (hi is None):
            problems.append(f"segment {i} upper bound {cells[1]!r}")
        for name, text_value, value in zip(("h_lo", "slope", "intercept", "r_squared"),
                                           [cells[0], *cells[2:]], (lo, slope, intercept, r2)):
            _expect_printed(problems, f"segment {i} {name}", text_value, value)


class Ingest:
    """In-process ``canopy.cli.main`` over large seeded files: portfolio
    commands over 5,000-cohort inventories and fit commands over
    30,000-row measurement files, in all three formats.  The two sizes
    make both commands cost about the same, so the median falls inside
    one cluster of latencies rather than in a gap between two."""

    name = "ingest"
    nominal_round_s = 1.5
    files = 3
    cohorts = 5000
    measurements = 30000

    def __init__(self, canopy, workdir: Path, seed: int):
        import canopy.cli  # noqa: F401  (imported before tracing wraps it)
        self.canopy = canopy
        rng = random.Random(f"ingest-files:{seed}")
        self.inventories, self.measurement_files = [], []
        for i in range(self.files):
            path = workdir / f"inventory{i}.csv"
            self.inventories.append((path, write_inventory(path, rng, self.cohorts)))
            path = workdir / f"measurements{i}.csv"
            self.measurement_files.append((path, write_measurements(path, rng, self.measurements)))
        self._fits = {}

    def make_round(self, rng: random.Random, index: int) -> list:
        inv_path, inv_rows = self.inventories[index % self.files]
        m_path, m_rows = self.measurement_files[index % self.files]
        ops = []
        for k, fmt in enumerate(FORMATS):
            argv, params = portfolio_args(rng, inv_path, fmt, index * 3 + k, (60.0, 140.0), 1e6)
            ops.append(Op("portfolio", dict(argv=argv, fmt=fmt, rows=inv_rows, params=params)))
            wood = oracle.WOODS[(index + k) % 3]
            ops.append(Op("fit", dict(argv=["fit", str(m_path), "--wood", wood, "--format", fmt],
                                      fmt=fmt, rows=m_rows, wood=wood)))
        return ops

    def run(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.canopy.cli.main(op.args["argv"])
        return code, out.getvalue(), err.getvalue()

    def check(self, op: Op, result) -> list:
        code, text, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        problems = []
        a = op.args
        try:
            if op.kind == "portfolio":
                check_portfolio(text, a["fmt"], a["rows"], a["params"], problems)
            else:
                check_fit(text, a["fmt"], a["rows"], a["wood"], problems, self._fits)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    @staticmethod
    def output_bytes(result) -> int:
        return len(result[1].encode())


class Cli:
    """Cold ``python -m canopy`` processes, one at a time.  A round draws
    one command of each subcommand with small inputs and JSON output and
    runs each twice, so every output must repeat byte for byte."""

    name = "cli"
    nominal_round_s = 3.0

    def __init__(self, workdir: Path, seed: int, python: str, env: dict,
                 child: str | None = None):
        self.python, self.env = python, env
        self.child = child  # bootstrap script that traces the child's layers
        rng = random.Random(f"cli-files:{seed}")
        self.inventories, self.measurement_files = [], []
        for i in range(2):
            path = workdir / f"small_inventory{i}.csv"
            self.inventories.append((path, write_inventory(path, rng, 24)))
            path = workdir / f"small_measurements{i}.csv"
            self.measurement_files.append((path, write_measurements(path, rng, 90)))
        self._first = {}
        self._keys = 0

    def _report_command(self, rng, command, band) -> Op:
        wood, size = rng.choice(oracle.WOODS), rng.choice(oracle.SIZES)
        start = 1.0 if wood == "conifer" else 0.0
        lo, hi = ((start + CONIFER_GAP[1] - 1.0, 30.0), (30.0, 150.0))[band]
        horizon = rng.uniform(lo, hi)
        p = rng.uniform(0.01, 0.05)
        factors = _random_factors(rng)
        cap = rng.random() < 0.5
        argv = [command, "--wood", wood, "--size", size, "--format", "json",
                "--horizon", repr(horizon),
                "--p-tall" if size == "tall" else "--p-medium-shrub", repr(p),
                "--bef", repr(factors[0]), "--rtsr", repr(factors[1]),
                "--bd", repr(factors[2]), "--cf", repr(factors[3])]
        if cap:
            argv.append("--continuous-cap")
        return Op(command, dict(argv=argv, wood=wood, size=size, horizon=horizon,
                                p=p, factors=factors, cap=cap))

    def make_round(self, rng: random.Random, index: int) -> list:
        k = index % 2
        ops = [self._report_command(rng, "estimate", k),
               self._report_command(rng, "breakdown", 1 - k)]
        path, rows = self.inventories[k]
        argv, params = portfolio_args(rng, path, "json", index, (80.0, 120.0), 5e3)
        ops.append(Op("portfolio", dict(argv=argv, rows=rows, params=params)))
        stock = rng.uniform(1e3, 1e7)
        census = dict(stock=stock, lifespan=rng.uniform(10.0, 80.0),
                      window=rng.uniform(1.0, 30.0), storm=rng.uniform(0.0, 0.05) * stock)
        argv = ["derive-p", "--stock", repr(census["stock"]), "--lifespan",
                repr(census["lifespan"]), "--horizon", repr(census["window"]),
                "--storm-felled", repr(census["storm"]), "--format", "json"]
        ops.append(Op("derive-p", dict(argv=argv, **census)))
        path, rows = self.measurement_files[k]
        wood = rng.choice(oracle.WOODS)
        ops.append(Op("fit", dict(argv=["fit", str(path), "--wood", wood, "--format", "json"],
                                  rows=rows, wood=wood)))
        for op in ops:
            self._keys += 1
            op.key = self._keys
        return ops + ops

    def run(self, op: Op, trace_path: Path | None = None):
        if trace_path is None:
            cmd = [self.python, "-m", "canopy", *op.args["argv"]]
        else:
            cmd = [self.python, self.child, str(trace_path), *op.args["argv"]]
        proc = subprocess.run(cmd, env=self.env, capture_output=True, timeout=60)
        return proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")

    def check(self, op: Op, result) -> list:
        code, raw, err = result
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        if op.key in self._first:
            if raw != self._first.pop(op.key):
                return ["output differs from the first run of the same command"]
            return []  # checked against the oracle on its first run
        self._first[op.key] = raw
        problems = []
        a = op.args
        try:
            text = raw.decode()
            if op.kind in ("estimate", "breakdown"):
                self._check_report(op.kind, parse_json(text), a, problems)
            elif op.kind == "portfolio":
                check_portfolio(text, "json", a["rows"], a["params"], problems)
            elif op.kind == "derive-p":
                self._check_derive(parse_json(text), a, problems)
            else:
                check_fit(text, "json", a["rows"], a["wood"], problems)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems

    @staticmethod
    def _check_report(kind, data, a, problems):
        case = oracle.Case(a["wood"], a["size"], a["cap"])
        c = oracle.carbon_constant(*a["factors"])
        horizon, p = a["horizon"], a["p"]
        for key, value in (("wood", a["wood"]), ("size", a["size"]),
                           ("horizon_years", horizon), ("p", p)):
            if data.get(key) != value:
                problems.append(f"{key}: {data.get(key)!r}, expected {value!r}")
        if kind == "estimate":
            expected = oracle.per_tree(case, p, c, horizon)
            h = oracle.height(case, horizon)
            _, _, slope, intercept = oracle.rule_for(case.wood, h)
            _expect(problems, "carbon_constant", data["carbon_constant"], c, 1e-12)
            _expect(problems, "survival_rate", data["survival_rate"],
                    math.exp(horizon * math.log1p(-p)), 1e-12)
            _expect(problems, "height_cm", data["height_cm"], h, 1e-12)
            _expect(problems, "diameter_cm", data["diameter_cm"], slope * h + intercept, 1e-11)
            _expect(problems, "creditable_t", data["creditable_t"], expected.survivor)
            _expect(problems, "expected_total_t", data["expected_total_t"], expected.total)
            return
        segments = [(s["t_start"], s["t_end"], s["rule"], s["in_process_t"])
                    for s in data["segments"]]
        check_absorption(case, p, c, horizon, segments, data["creditable_t"],
                         data["expected_total_t"], problems)

    @staticmethod
    def _check_derive(data, a, problems):
        p = oracle.removal_probability(a["stock"], a["lifespan"], a["window"], a["storm"])
        for key, value in (("standing_stock", a["stock"]), ("assumed_lifespan_years", a["lifespan"]),
                           ("census_horizon_years", a["window"]), ("storm_felled", a["storm"])):
            if data.get(key) != value:
                problems.append(f"{key}: {data.get(key)!r}, expected {value!r}")
        _expect(problems, "p", data["p"], p, 1e-10)
        _expect(problems, "removal_fraction", data["removal_fraction"],
                -math.expm1(a["window"] * math.log1p(-p)), 1e-10)
        _expect(problems, "expected_lifespan_years", data["expected_lifespan_years"],
                -1.0 / math.log1p(-p), 1e-10)

    @staticmethod
    def output_bytes(result) -> int:
        return len(result[1])


WORKLOADS = {"sweep": Sweep, "ingest": Ingest, "cli": Cli}
