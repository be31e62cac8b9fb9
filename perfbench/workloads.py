"""Seeded job decks for the three benchmark workloads, with output checks.

A deck is the list of CLI jobs one pass of a workload runs.  Its shape
(which subcommands, how many of each, which sizes) is fixed per workload so
that decks from different seeds cost about the same; the seed draws the
sizes inside narrow strata, the metric entries, scale factors, point ids,
classes and the order.  Every job carries the exit code it must end with and
a check of its stdout that does not call the library: expected values come
from closed forms or from small restatements of the documented rules.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Q = Fraction
Check = Callable[[str], Optional[str]]  # stdout -> problem, or None when correct


@dataclass(frozen=True)
class Job:
    kind: str
    argv: Tuple[str, ...]  # arguments after `python -m cremlat`
    expect_exit: int
    key: str  # argv with every input file replaced by its content hash
    check: Optional[Check] = None


class Deck:
    """Collects jobs and writes their input files under one folder."""

    def __init__(self, folder: Path) -> None:
        folder.mkdir(parents=True, exist_ok=True)
        self.folder = folder
        self.jobs: List[Job] = []

    def file(self, name: str, text: str) -> Path:
        path = self.folder / name
        path.write_text(text, encoding="utf-8", newline="")
        return path

    def add(self, kind: str, argv: Sequence, expect_exit: int = 0, check: Optional[Check] = None) -> None:
        parts = [
            "@" + hashlib.sha256(a.read_bytes()).hexdigest() if isinstance(a, Path) else a
            for a in argv
        ]
        key = hashlib.sha256(json.dumps(parts).encode()).hexdigest()[:32]
        self.jobs.append(Job(kind, tuple(str(a) for a in argv), expect_exit, key, check))


def rat(value) -> str:
    q = Q(value)
    return f"{q.numerator}/{q.denominator}"


def twist_closed_form(n: int, m: int) -> int:
    return 9 * (n * n + m * m + n * m) + 1


# ---------------------------------------------------------------------------
# twist-tables: flat-growth and halphen-table


def check_flat_growth(kmax: int) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.split("\n")
        if lines[0] != "m,n,degree,lower,upper" or lines[-2:] != ["# certificate: PASS", ""]:
            return "flat-growth: bad header or certificate line"
        rows = [line.split(",") for line in lines[1:-2]]
        span = range(-kmax, kmax + 1)
        want = {(m, n) for m in span for n in span if abs(m) + abs(n) <= kmax}
        if len(rows) != len(want) or {(int(r[0]), int(r[1])) for r in rows} != want:
            return "flat-growth: rows do not cover |m| + |n| <= kmax once each"
        for m, n, degree, lower, upper in rows:
            if int(degree) != twist_closed_form(int(n), int(m)):
                return f"flat-growth: degree {degree} at ({m}, {n}) is not 9(n^2+m^2+nm)+1"
            if int(lower) > int(upper):
                return f"flat-growth: lower {lower} > upper {upper} at ({m}, {n})"
        return None

    return check


def check_halphen_table(nmax: int) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.split("\n")
        if lines[0] != "n,m,lattice_degree,closed_form,match" or lines[-1] != "":
            return "halphen-table: bad header"
        rows = lines[1:-1]
        if len(rows) != (2 * nmax + 1) ** 2:
            return f"halphen-table: {len(rows)} rows for nmax {nmax}"
        for row in rows:
            n, m, lattice, closed, match = row.split(",")
            want = twist_closed_form(int(n), int(m))
            if match != "true" or int(lattice) != want or int(closed) != want:
                return f"halphen-table: row {row!r} does not match {want}"
        return None

    return check


def twist_tables(seed: int, folder: Path) -> List[Job]:
    rng = random.Random(f"twist-tables:{seed}")
    deck = Deck(folder)
    for kmax in range(4, 13):
        deck.add("flat-growth", ["flat-growth", "--kmax", str(kmax)], check=check_flat_growth(kmax))
    # strata keep every halphen-table job clear of the flat-growth median (kmax 7)
    for low in (10, 16, 22, 29):
        nmax = rng.randint(low, low + 3)
        deck.add("halphen-table", ["halphen-table", "--nmax", str(nmax)], check=check_halphen_table(nmax))
    rng.shuffle(deck.jobs)
    return deck.jobs


# ---------------------------------------------------------------------------
# metric files for delta


def metric_csv(labels: Sequence[str], matrix: Sequence[Sequence[Q]]) -> str:
    lines = [",".join(labels)]
    lines += [",".join(rat(x) for x in row) for row in matrix]
    return "\n".join(lines) + "\n"


def star_metric(n: int, rng: random.Random) -> Tuple[List[List[Q]], Q]:
    """d(i, j) = w_i + w_j - e_ij with w in [50, 100] and e in [0, 40].

    Any two-step path exceeds a direct distance by 2 w_k - e_ik - e_kj +
    e_ij >= 20, so the triangle law holds strictly.  The w's cancel in every
    four-point defect, so delta <= max e.  Denominators are mixed.
    """
    dens = (1, 2, 3, 4, 5, 6)
    weights = []
    for _ in range(n):
        den = rng.choice(dens)
        weights.append(Q(rng.randint(50 * den, 100 * den), den))
    matrix = [[Q(0)] * n for _ in range(n)]
    worst = Q(0)
    for i in range(n):
        for j in range(i):
            den = rng.choice(dens)
            e = Q(rng.randint(0, 40 * den), den)
            worst = max(worst, e)
            matrix[i][j] = matrix[j][i] = weights[i] + weights[j] - e
    return matrix, worst


def grid_metric(k: int, scale: Q, rng: random.Random) -> Tuple[List[str], List[List[Q]]]:
    """k x k grid graph distances times `scale`, vertices in seeded order."""
    cells = [(r, c) for r in range(k) for c in range(k)]
    rng.shuffle(cells)
    labels = [f"g{r}_{c}" for r, c in cells]
    matrix = [[scale * (abs(r - r2) + abs(c - c2)) for r2, c2 in cells] for r, c in cells]
    return labels, matrix


def delta_stdout(points: int, delta: Q) -> str:
    return f"points,delta,delta_real\n{points},{rat(delta)},{format(float(delta), '.12g')}\n"


def check_exact(want: str) -> Check:
    def check(out: str) -> Optional[str]:
        return None if out == want else f"expected {want!r}, got {out[:200]!r}"

    return check


def check_delta_bounded(points: int, most: Q) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.split("\n")
        if len(lines) != 3 or lines[0] != "points,delta,delta_real" or lines[2] != "":
            return f"delta: unexpected output {out[:200]!r}"
        count, delta, real = lines[1].split(",")
        value = Q(delta)
        if int(count) != points or not 0 <= value <= most or real != format(float(value), ".12g"):
            return f"delta: row {lines[1]!r} is not a delta in [0, {most}] for {points} points"
        return None

    return check


def add_star(deck: Deck, name: str, n: int, rng: random.Random) -> None:
    matrix, worst = star_metric(n, rng)
    path = deck.file(name, metric_csv([f"p{i}" for i in range(n)], matrix))
    deck.add("delta-star", ["delta", path], check=check_delta_bounded(n, worst))


def add_grid(deck: Deck, name: str, k: int, scale: Q, rng: random.Random) -> None:
    labels, matrix = grid_metric(k, scale, rng)
    path = deck.file(name, metric_csv(labels, matrix))
    # a k x k grid has delta exactly k - 1 (opposite corners and edge midpoints)
    deck.add("delta-grid", ["delta", path], check=check_exact(delta_stdout(k * k, scale * (k - 1))))


def random_scale(rng: random.Random) -> Q:
    return Q(rng.randint(1, 24), rng.choice((1, 2, 3, 5, 7, 12)))


def metric_delta(seed: int, folder: Path) -> List[Job]:
    rng = random.Random(f"metric-delta:{seed}")
    deck = Deck(folder)
    for n in range(24, 97, 8):
        add_star(deck, f"star{n}.csv", n, rng)
    for k in range(5, 10):
        add_grid(deck, f"grid{k}.csv", k, random_scale(rng), rng)
    rng.shuffle(deck.jobs)
    return deck.jobs


# ---------------------------------------------------------------------------
# small-records: characteristics, classes, run configs, tiny metrics


def twist_sides(n: int, m: int) -> Tuple[int, List[int], List[int]]:
    """Degree, base and inverse multiplicities (points 0..8) of the (n, m) twist.

    The translation t_a(d) = d - (K.d) a + (a.d - (K.d)(a.a)/2) K of the
    rank-10 lattice, with a = n(e1 - e0) + m(e2 - e0), applied to the line.
    """

    def pair(x, y):
        return x[0] * y[0] - sum(x[i] * y[i] for i in range(1, 10))

    canonical = (-3,) + (1,) * 9
    line = (1,) + (0,) * 9

    def translate(a):
        kd = pair(canonical, line)
        coefficient = pair(a, line) - kd * pair(a, a) // 2
        return [line[i] - kd * a[i] + coefficient * canonical[i] for i in range(10)]

    a = (0, -n - m, n, m, 0, 0, 0, 0, 0, 0)
    forward = translate(a)
    backward = translate(tuple(-x for x in a))
    return forward[0], [-c for c in backward[1:]], [-c for c in forward[1:]]


def char_record(degree: int, base: Sequence[Tuple[int, int]], inverse: Sequence[Tuple[int, int]]) -> dict:
    return {
        "degree": degree,
        "base": [{"point": p, "mult": m} for p, m in base if m],
        "inverse_base": [{"point": q, "mult": m} for q, m in inverse if m],
    }


def pattern_record(degree: int, mults: Sequence[int], ids: Sequence[int]) -> dict:
    """A characteristic with the same multiset on both sides, inverse ids 20.."""
    return char_record(degree, list(zip(ids, mults)), [(20 + i, m) for i, m in enumerate(mults)])


def jonquieres_mults(degree: int) -> List[int]:
    return [degree - 1] + [1] * (2 * degree - 2)


# (degree, base multiset) of maps that are not pencil-preserving
OTHER_PATTERNS = (
    (4, [2, 2, 2, 1, 1, 1]),
    (5, [2, 2, 2, 2, 2, 2]),
    (6, [3, 3, 2, 2, 2, 2, 1]),
    (8, [3, 3, 3, 3, 3, 3, 3]),
    (17, [6, 6, 6, 6, 6, 6, 6, 6]),
)


def check_twist_length(n: int, m: int, n_base: int) -> Check:
    def check(out: str) -> Optional[str]:
        lines = out.split("\n")
        if len(lines) != 3 or lines[0] != "degree,n_base,lower_md,lower_deg,upper,decomposition":
            return f"length: unexpected output {out[:200]!r}"
        degree, count, lower_md, lower_deg, upper, chain = lines[1].split(",")
        steps = [int(d) for d in chain.split(">")]
        ok = (
            int(degree) == twist_closed_form(n, m)
            and int(count) == n_base
            and steps[0] == int(degree)
            and steps[-1] == 1
            and all(a > b for a, b in zip(steps, steps[1:]))
            and int(upper) == len(steps) - 1
            and int(lower_md) <= int(upper)
            and (lower_deg == "" or int(lower_deg) <= int(upper))
        )
        return None if ok else f"length: row {lines[1]!r} inconsistent for twist ({n}, {m})"

    return check


def jonquieres_length_stdout(degree: int) -> str:
    # one distinct multiplicity (degree 2) or two: lower_md 1; the degree bound
    # ceil(sqrt(ceil(d/5))) is 1 up to degree 5 and undefined past 9 base points
    lower_deg = "1" if 2 * degree - 1 <= 9 else ""
    return (
        "degree,n_base,lower_md,lower_deg,upper,decomposition\n"
        f"{degree},{2 * degree - 1},1,{lower_deg},1,{degree}>1\n"
    )


@dataclass
class Config:
    parents: Dict[int, Optional[int]]
    collinear: List[List[int]]
    conics: List[List[int]]

    def record(self) -> dict:
        points = [{"id": p} if q is None else {"id": p, "parent": q} for p, q in self.parents.items()]
        return {"points": points, "collinear": self.collinear, "conics": self.conics}

    def proper(self) -> List[int]:
        return [p for p, q in self.parents.items() if q is None]

    def children(self, p: int) -> List[int]:
        return [q for q, parent in self.parents.items() if parent == p]


def random_config(rng: random.Random, count: int) -> Config:
    parents: Dict[int, Optional[int]] = {}
    for p in range(count):
        parents[p] = rng.randrange(p) if p >= 2 and rng.random() < 0.25 else None
    config = Config(parents, [], [])
    proper = config.proper()
    if len(proper) >= 4 and rng.random() < 0.6:
        config.collinear.append(sorted(rng.sample(proper, rng.randint(3, min(5, len(proper))))))
    if len(proper) >= 6 and rng.random() < 0.5:
        config.conics.append(sorted(rng.sample(proper, 6)))
    return config


def in_e_member(degree: Q, mults: Dict[int, Q], config: Config) -> bool:
    """The four documented membership conditions, over the documented curves."""
    if any(v < 0 for v in mults.values()) or 3 * degree < sum(mults.values()):
        return False
    for p in mults:
        kids = config.children(p)
        if kids and mults[p] < sum(mults.get(q, 0) for q in kids):
            return False
    heavy = sorted((mults.get(p, Q(0)) for p in config.proper()), reverse=True)
    if degree < sum(heavy[:2]) or 2 * degree < sum(heavy[:5]):
        return False
    for curve_degree, sets in ((1, config.collinear), (2, config.conics)):
        if any(curve_degree * degree < sum(mults.get(p, 0) for p in s) for s in sets):
            return False
    return True


def random_class(rng: random.Random, points: Sequence[int]) -> Tuple[Q, Dict[int, Q]]:
    degree = Q(rng.randint(2, 12), rng.choice((1, 1, 2)))
    support = rng.sample(list(points), rng.randint(1, len(points)))
    mults = {}
    for p in support:
        value = Q(rng.randint(-1, 8), rng.choice((1, 1, 2, 3))) * degree / 8
        if value:
            mults[p] = value
    return degree, mults


def add_in_e(deck: Deck, name: str, rng: random.Random, member: bool, with_config: bool) -> None:
    while True:
        if with_config:
            config = random_config(rng, rng.randint(4, 8))
            points = list(config.parents)
        else:
            points = rng.sample(range(20), rng.randint(1, 8))
        degree, mults = random_class(rng, points)
        if not with_config:
            config = Config({p: None for p in mults}, [], [])
        if mults and in_e_member(degree, mults, config) == member:
            break
    entries = [{"point": p, "mult": rat(v)} for p, v in sorted(mults.items())]
    record = {"degree": rat(degree), "mults": entries}
    argv: List = ["in-e", deck.file(f"{name}.json", json.dumps(record))]
    if with_config:
        argv += ["--config", deck.file(f"{name}-config.json", json.dumps({"configuration": config.record()}))]
    want = "true" if member else "false"

    def check(out: str) -> Optional[str]:
        lines = out.split("\n")
        if len(lines) != 3 or not lines[0].startswith("member,") or lines[1].split(",")[0] != want:
            return f"in-e: expected member={want}, got {out[:200]!r}"
        return None

    deck.add("in-e", argv, expect_exit=0 if member else 2, check=check)


def almost_general(base: Sequence[int], config: Config) -> bool:
    points = set(base)
    for p in points:
        q = config.parents[p]
        while q is not None:
            if q not in points:
                return False
            q = config.parents[q]
    if any(len(points & set(s)) >= 4 for s in config.collinear):
        return False
    if any(len(points & set(s)) >= 7 for s in config.conics):
        return False
    return all(len([q for q in config.children(p) if q in points]) < 2 for p in points)


def classification(degree: int, mults: Sequence[int], base: Sequence[int], config: Config) -> str:
    if degree <= 2 or sorted(mults) == sorted(jonquieres_mults(degree)):
        return "jonquieres_adjacent"
    general = almost_general(base, config)
    if len(base) <= 8 and general:
        return "general_adjacent"
    if len(base) == 9 and general:
        return "quasi_adjacent_only"
    return "unclassified"


def add_classify(deck: Deck, name: str, rng: random.Random) -> None:
    config = random_config(rng, 9)
    config.parents.update({9 + i: rng.randrange(9) for i in range(rng.randint(0, 2))})
    points = list(config.parents)
    records, rows = [], ["label,degree,n_base,classification"]
    for i in range(rng.randint(3, 5)):
        choice = rng.randrange(3)
        if choice == 0:
            degree = rng.randint(2, 5)
            mults = jonquieres_mults(degree)
        elif choice == 1:
            degree, mults = rng.choice(OTHER_PATTERNS)
        else:
            n, m = rng.choice(((1, 0), (0, 1), (-1, 1), (1, -1), (0, -1), (-1, 0)))
            degree, base_mults, _ = twist_sides(n, m)
            mults = [x for x in base_mults if x]
        base = rng.sample(points, len(mults))
        label = f"map{i}"
        record = pattern_record(degree, mults, base)
        record["label"] = label
        records.append(record)
        rows.append(f"{label},{degree},{len(mults)},{classification(degree, mults, base, config)}")
    run_config = {"configuration": config.record(), "characteristics": records}
    path = deck.file(f"{name}.json", json.dumps(run_config))
    deck.add("classify", ["classify", "--config", path], check=check_exact("\n".join(rows) + "\n"))


def add_malformed(deck: Deck, rng: random.Random) -> None:
    # each must exit 1 with a one-line message and empty stdout
    deck.add("bad-csv-div0", ["delta", deck.file("bad-div0.csv", "a,b\n0,1/0\n1/0,0\n")], expect_exit=1)
    listed = json.dumps([{"degree": "1/1", "mults": []}])
    deck.add("bad-json-list", ["in-e", deck.file("bad-list.json", listed)], expect_exit=1)
    huge = json.dumps(pattern_record(2, [1, 1, 1], [0, 1, 2])).replace('"degree": 2', '"degree": 1e999')
    deck.add("bad-degree-1e999", ["length", deck.file("bad-huge.json", huge)], expect_exit=1)
    command = rng.choice(("in-e", "length"))
    if command == "length":
        whole = json.dumps(pattern_record(4, [2, 2, 2, 1, 1, 1], range(6)))
    else:
        whole = json.dumps({"degree": "2/1", "mults": [{"point": 1, "mult": "1/1"}]})
    cut = rng.randint(len(whole) // 4, len(whole) - 2)
    deck.add("bad-json-truncated", [command, deck.file("bad-truncated.json", whole[:cut])], expect_exit=1)


def small_records(seed: int, folder: Path) -> List[Job]:
    rng = random.Random(f"small-records:{seed}")
    deck = Deck(folder)
    twists = [(n, m) for n in range(-3, 4) for m in range(-3, 4) if 1 <= abs(n) + abs(m) <= 3]
    for i, (n, m) in enumerate(rng.sample(twists, 3)):
        degree, base, inverse = twist_sides(n, m)
        record = char_record(degree, list(enumerate(base)), list(enumerate(inverse)))
        deck.add("length-twist", ["length", deck.file(f"twist{i}.json", json.dumps(record))],
                 check=check_twist_length(n, m, sum(1 for x in base if x)))
    for i, degree in enumerate([2] + rng.sample(range(3, 9), 4)):
        ids = rng.sample(range(20), 2 * degree - 1)
        path = deck.file(f"jonq{i}.json", json.dumps(pattern_record(degree, jonquieres_mults(degree), ids)))
        deck.add("length-jonquieres", ["length", path], check=check_exact(jonquieres_length_stdout(degree)))
    for i in range(12):
        add_in_e(deck, f"class{i}", rng, member=i % 2 == 0, with_config=i >= 6)
    for i in range(4):
        add_classify(deck, f"run{i}", rng)
    add_grid(deck, "grid2.csv", 2, random_scale(rng), rng)
    add_grid(deck, "grid3.csv", 3, random_scale(rng), rng)
    n = rng.randint(4, 12)
    scale = random_scale(rng)
    path_metric = [[scale * abs(i - j) for j in range(n)] for i in range(n)]
    path = deck.file("path.csv", metric_csv([f"v{i}" for i in range(n)], path_metric))
    deck.add("delta-path", ["delta", path], check=check_exact(delta_stdout(n, Q(0))))
    for i in range(4):
        add_star(deck, f"star{i}.csv", rng.randint(5, 12), rng)
    add_malformed(deck, rng)
    rng.shuffle(deck.jobs)
    return deck.jobs


WORKLOADS = {
    "twist-tables": twist_tables,
    "metric-delta": metric_delta,
    "small-records": small_records,
}
