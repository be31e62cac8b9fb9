"""Frozen CLI output of the commands that print lattice twists, length bounds and deltas.

`flat-growth --kmax K` is pinned by the sha256 of its stdout for every K in
1..20 and `halphen-table --nmax N` for every N in 1..32; `length` is pinned
by its data row for quadratic towers 1..12 and for three lattice twists;
`delta` is pinned by the sha256 of its stdout on seeded stars with mixed
denominators (8 to 104 points), rational-scaled grids of 6x6 to 10x10, stars
and the 6x6 grid times 2**70, seeded trees of 96 and 128 points, a 128-point
tree plus two unit chords, 4-cycles whose largest entry is 2**e - 1 or 2**e
for e = 14, 30, 61, 62 (across e = 14, 30 and 62 the packed rows' fields
gain a byte, as twice the peak passes int16, int32 and int64), and the
104-point star with each distance d made d (2**70 + 1) + 1, whose entries
pass 2**62 with gcd 1; every metric runs on Python int rows, and the other
pins past 96 points were taken when numpy arrays held those metrics, so the
rows reproduce the arrays' output;
`in-e` is pinned by the sha256 of its exit code and stdout on one class per
curve-witness kind and on seeded classes, members and not, with and without
`--config`; `classify` is pinned the same way on seeded run configurations
that reach all four verdicts.
Any change to the lattice arithmetic, the greedy search, the lower bounds,
the metric reader, the four-point scan, the membership conditions, the
classification or the table layout that alters a byte of output fails here.
"""

import csv
import hashlib
import io
import json
import random
from fractions import Fraction as Q

import pytest

from cremlat.cli import main
from cremlat.cremona import compose_disjoint, standard_quadratic
from cremlat.halphen import twist_characteristic
from cremlat.serialize import characteristic_to_record

FLAT_GROWTH_SHA256 = {
    1: "385f8f42f04c05ba8a35072501b2400fff3f55486aaae5bcbe4d6108c02b96ab",
    2: "2f9f489c803aad9812f1b9f0dabe283196dcae3935dc42501c9400265672213d",
    3: "b633bd00c257c7426f9cdd5eb49a660107088c86a8828c875052d220fa68465b",
    4: "3c79bccedbf0ff6697963dd13a9f3b8d586b3bf4693b73b6e78842bb6682e951",
    5: "d4e20f5f205ea7a9f382859e69f5be666080230454d990322d6a5a06f2b08b62",
    6: "0e38e2b1adece4eccfc12608d6d7a7a4ff0db4007680ebfe2967256e6c75d53d",
    7: "c3d2155dad743fdc420436c4f141168018a98e4ff83fdc623f3eb47bc8e098ac",
    8: "69ee93712c0c9691cb6fc0a77385587efbaf00630627d4ca12cb98ed4b50bf79",
    9: "63a3442d7a9c9ea63de7cff8008b30c57751598d85046008c0b9b7684eef0c93",
    10: "4dc649305712e54a75b3433cacbcf82e1994735d69d74b75003ba3f1f8476c22",
    11: "788436f1676a4061806addf79e0973d39bbb4751c31b136007a48258fb55cb5b",
    12: "5499a2f2e3c7ea2a56dae5a743ed09de5ce3f272007a03c13f280ff5a8706c67",
    13: "8dedb0a2171c61a3db158d6e9ea404a2fb1d2edc7691f0f7dfde8b5cb0836497",
    14: "381c58beb596a504e69148127f2e19fe2c0756c9cbb189ce4d7f857229268dd3",
    15: "2d31ee68ca407313914a80a6ce549ddcc2229f499aabee5da88bb1f7a682e510",
    16: "bc1070fbf40fe0114ca5a153d50c16422d5744a48121d040f53b5dc5886a02c1",
    17: "135c5fb7be36c94c7473e4793a67c0b41af05019735628dec9e5d52cdf5fb89b",
    18: "b8277c21f22126490a46296c8d9fbf5c96ad6dc5dc7f8705bffec1c925d027aa",
    19: "1e17daa2f390af9718bad8c2c867d33ba303f635ea92fc3d0a6b41f202bd35a1",
    20: "b935d62b336237b5f07565681634b28355296f5f4b8066d1ec90b49136e8dcfd",
}

HALPHEN_TABLE_SHA256 = {
    1: "3bde58a635cf9f99dcf1e27f52df597377d08b69dc0473949f1463c5832c4a77",
    2: "20face3e0795b9eb567eea11587b841e3f4e011e5b4bdd80e11a0c096cb8ea49",
    3: "4e05d17b814d05e6759aaeb43ffd6573d6e2c2056c9eccdef335f332f6b96051",
    4: "639afe6d24ca6d23d93b6107f3e9ec46d95e82b983df165bfee03236bf8610df",
    5: "090a0763b94bb6525e1f0f8313658889f4b9e5eb4f6aab1b34f238820d54b690",
    6: "2b1b9c91ba58201246e2ded6b5e7213334e3952274ba0727f3a14a4b4c224840",
    7: "d259e44724b16ebc09d47bfdbf83c86592f888be13d3a2dff43a9f6dff2c71b2",
    8: "8a1f6207c5baf93ad44d79f637e3a4c6b15e9901aa45c69a79bf60598e2cd72b",
    9: "9de14203f0d59cbd856e1179fcec7d7fda11bc2c2acb0140efa4b94690bc8aa8",
    10: "b11ae1acd102a376a65af02f09d2552a4bdf4ebd0fb42163957283c59ca983ac",
    11: "46c71661a709c184f7228748a105370c4e0b7ac4a1dd2883bb4c25cfe88a0460",
    12: "e3cbac4a1c888fd6cd78560c8e34430eb7c2b7c90d8c9db77e35360ff9d91c66",
    13: "aa6bd83e4e8a0b65b74de1c0852630754c4fbe0bddaf88d6642db309fdcb73fb",
    14: "33e3efb586d85416bb27562a7f2d6f8894a5ecc9b625fa626c3f981437f0ddce",
    15: "c60326bcfdb95bb0d67ef0614c1f34da2ab0603dd9797eb8acc1f9186d42795d",
    16: "47438812184723e23ad9ff40d02c7ec26a111d115b62b92a1b7d5ac76fc44cec",
    17: "3c3104b96646218e8978e064f1bc5fac40dcf24fab1a8ad3fb60320e561de036",
    18: "304136d32ce2b05163c5fa96dcdba2e6e78340ac945641056efe83e33586e079",
    19: "ea6c9cfe1a9e78ac54bec75879c30264a7ddd143e79664f1f5edbd7d06522aff",
    20: "820a8a17c268f5f0baa73920c6cdf84bfa68450da75c3ec4af5dca3997218197",
    21: "bf83b11f467238fd9ff141a999b54f2ca9cdd17823a191f4c9df7744f002e1d6",
    22: "f62daf086229b2c703dd1b328f617ace0d519f59bbf148c298174a29968b0005",
    23: "973c3e4da506b62e841c8e4faf89d47bffa42b5c89a4732cb285e62dc0f777fa",
    24: "486c17440cbd988c3abfbc54af58e0df5175e52e7a746abcd5f572b080f50db0",
    25: "fd0024856e81967f400b12abdc3f487ffed45fc70207207ade866f6b38fa961c",
    26: "637af5368fd9138063274d3b96dfc99748cb1435f6fe368af6e5c4851e112431",
    27: "01a49aa71e07e9d25f9d33be7c72772833d4dd4f71219504721b5e46e94d66f9",
    28: "13d2919f1169d6c60e3f5bf2d487eb2f92937c6dd7cbed30100d6b53e82cc2a6",
    29: "57b5004ede9dfdba633effb7103012ee3954189d68acacbbe368cd7fd5c1f1fd",
    30: "a3972d8b76145b22d92a532ba7627762555071d5cdff2e965582b642409d381d",
    31: "bb37faa21351b894eb8b937d489057c38b8e239e03e325a6b968e4383d2d4b41",
    32: "6cc1343e672c165d0a375cefacb9026a104955381d1e4a8108a187a2b7e30ed6",
}

TOWER_LENGTH_ROWS = {
    1: "2,3,1,1,1,2>1",
    2: "4,6,1,1,2,4>2>1",
    3: "8,9,2,2,3,8>4>2>1",
    4: "16,12,2,,4,16>8>4>2>1",
    5: "32,15,2,,5,32>16>8>4>2>1",
    6: "64,18,2,,6,64>32>16>8>4>2>1",
    7: "128,21,3,,7,128>64>32>16>8>4>2>1",
    8: "256,24,3,,8,256>128>64>32>16>8>4>2>1",
    9: "512,27,3,,9,512>256>128>64>32>16>8>4>2>1",
    10: "1024,30,3,,10,1024>512>256>128>64>32>16>8>4>2>1",
    11: "2048,33,3,,11,2048>1024>512>256>128>64>32>16>8>4>2>1",
    12: "4096,36,3,,12,4096>2048>1024>512>256>128>64>32>16>8>4>2>1",
}

# keyed by the (n, m) arguments of twist_characteristic
TWIST_LENGTH_ROWS = {
    (1, 0): "10,8,1,2,2,10>4>1",
    (1, 1): "28,9,2,3,4,28>19>10>4>1",
    (2, -3): "64,9,2,4,6,64>46>28>19>10>4>1",
}

LENGTH_HEADER = "degree,n_base,lower_md,lower_deg,upper,decomposition"


def stdout_of(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0, argv
    return out


def quadratic_tower(n):
    result = standard_quadratic(base_ids=(0, 1, 2), inverse_ids=(1000, 1001, 1002))
    for s in range(1, n):
        nxt = standard_quadratic(
            base_ids=(3 * s, 3 * s + 1, 3 * s + 2),
            inverse_ids=(1000 + 3 * s, 1001 + 3 * s, 1002 + 3 * s),
        )
        result = compose_disjoint(nxt, result)
    return result


def length_row(capsys, tmp_path, char):
    path = tmp_path / "char.json"
    path.write_text(json.dumps(characteristic_to_record(char)), encoding="utf-8")
    header, row = stdout_of(capsys, ["length", str(path)]).splitlines()
    assert header == LENGTH_HEADER
    return row


def test_flat_growth_digests(capsys):
    digests = {
        k: hashlib.sha256(stdout_of(capsys, ["flat-growth", "--kmax", str(k)]).encode()).hexdigest()
        for k in FLAT_GROWTH_SHA256
    }
    assert digests == FLAT_GROWTH_SHA256


def test_halphen_table_digests(capsys):
    digests = {
        n: hashlib.sha256(
            stdout_of(capsys, ["halphen-table", "--nmax", str(n)]).encode()
        ).hexdigest()
        for n in HALPHEN_TABLE_SHA256
    }
    assert digests == HALPHEN_TABLE_SHA256


def test_length_rows(capsys, tmp_path):
    towers = {n: length_row(capsys, tmp_path, quadratic_tower(n)) for n in TOWER_LENGTH_ROWS}
    assert towers == TOWER_LENGTH_ROWS
    twists = {nm: length_row(capsys, tmp_path, twist_characteristic(*nm)) for nm in TWIST_LENGTH_ROWS}
    assert twists == TWIST_LENGTH_ROWS


# keyed by metric name; see delta_metrics
DELTA_SHA256 = {
    "star8": "04cb97b0d55cafb27cc580a8e218897f3c4457df0993d613010c7cd62102934c",
    "star24": "61af1a15011b7132b12b01fb45253c887de613f0f58ec6923d7173780bfe8da1",
    "star40": "05c1582a22513698d911c1996dac991cb9ec9e923d047ff69727f897e174da10",
    "grid6": "73229f72a397cb583fc34097cc05296d2e5c9218420c1a27758e23170245c0f8",
    "star8x2**70": "58366aff3357849b07360acf6dff98125ddb7a6557fdcd9f132e08964427ef15",
    "star24x2**70": "717d0137e5abd32461a05468ad43f5ab26cbff6eb325d047f64c29d16e6cf82b",
    "star40x2**70": "bbe5c0574da8586ed0adeb92dba5d0e0452c7b9e91e12360ce29cfb0bd8dd076",
    "grid6x2**70": "419d4087d73db98cddcf7ae75676566b089dc2380badb3644d655104361b4efb",
    "cycle2**14-1": "c06c4a8121fff9c60f525cfde406b6b3ef45fa2b94f42268ca913e98f7f1f4db",
    "cycle2**14": "c06c4a8121fff9c60f525cfde406b6b3ef45fa2b94f42268ca913e98f7f1f4db",
    "cycle2**30-1": "e2159b0a12b0c79cb01b89feb58d341095b404ccf0bbca928cf2051383b4b899",
    "cycle2**30": "e2159b0a12b0c79cb01b89feb58d341095b404ccf0bbca928cf2051383b4b899",
    "cycle2**61-1": "056ca13e027627416db8d66cf99b2caf0da47cc3a0d14beec5e1384b82b373e2",
    "cycle2**61": "056ca13e027627416db8d66cf99b2caf0da47cc3a0d14beec5e1384b82b373e2",
    "cycle2**62-1": "971853f85b2dabeb44b545193428430d3265cff832beaf277f137e321540606f",
    "cycle2**62": "971853f85b2dabeb44b545193428430d3265cff832beaf277f137e321540606f",
    "star48": "81b60264cbdec02235702314f62ee391e8cb8d506ef2af800e7b86642513d9fb",
    "star48x2**70": "43e90a2a5a27fd7b49a33e05f8759d870453b4aa40b5853c1ae6eb11226849cd",
    "star64": "b82049350ca050ae42b43293ac29d61c9db4ab6f94597a046339d2d74787457d",
    "star64x2**70": "6085ffb11f6c0b90210bd3336a91d1b9f4bcd29062dd5019cfb18460ef261eb9",
    "star72": "4abe19ef27d2b4b4a7eb2f722d90e08ccc55f3cc104c0df74b1cce5510908bdb",
    "star72x2**70": "d7e0257b550d862b40595dde922c76ced92f6677d85c184016e51bea33d24b2a",
    "grid8": "b115e9ccc44af7d8fb52128b0df14400590fb1349589e13efd5ceae9da7aef06",
    "grid9": "81607730f89d5e7bde5b519009fc45557b6d39061a71a01221f41c6cb72048eb",
    "star104": "c6d0797039aa0ed8857b8eb23a4e094f476a0cc50913525f2cc551215961c26c",
    "star104x2**70": "8da31a6c2f885c1ee827399dea23aa36a8d7b5e692e3efb03b43c5e254c1b658",
    "grid10": "5f86591482f9b838f0f967372a71a83c7ed180472fc63a27e743fb0da30f0f27",
    "tree96": "867d8df3b57ac57327491017a8d79dc170ce6c6222ff6b3885a5c85d3128c079",
    "star104x(2**70+1)+1": "f497b24f64951e7ee32cfeed3ea1aec5af38832b925a5aebbed8c971b78eb36b",
    "tree128": "1e7372087395612fa6728bdaeba00e251009b3b7a82a68ea76baff0c76d11405",
    "tree128+2chords": "f410386fc9a6fb1fe76f49fc5e718f7eca6401ab9b63d94b1c5e408153dcdcb5",
}


def star_matrix(n):
    """Seeded star metric w_i + w_j - e_ij with mixed denominators: weights in
    [50, 100] and defects in [0, 40], so every triangle holds."""
    rng = random.Random(f"frozen-delta-star:{n}")
    dens = (1, 2, 3, 5, 7, 12)
    weights = [Q(rng.randint(50 * d, 100 * d), d) for d in (rng.choice(dens) for _ in range(n))]
    matrix = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = rng.choice(dens)
            matrix[i][j] = matrix[j][i] = weights[i] + weights[j] - Q(rng.randint(0, 40 * d), d)
    return [f"p{i}" for i in range(n)], matrix


def grid_matrix(k, scale):
    cells = [(r, c) for r in range(k) for c in range(k)]
    labels = [f"g{r}_{c}" for r, c in cells]
    return labels, [[scale * (abs(r - r2) + abs(c - c2)) for r2, c2 in cells] for r, c in cells]


def tree_matrix(n):
    """Seeded tree metric with mixed-denominator edge lengths in [1, 20]: every
    defect is 0."""
    rng = random.Random(f"frozen-delta-tree:{n}")
    dens = (1, 2, 3, 5, 7, 12)
    matrix = [[Q(0)]]
    for v in range(1, n):
        d = rng.choice(dens)
        length = Q(rng.randint(d, 20 * d), d)
        row = [x + length for x in matrix[rng.randrange(v)]]
        for u, x in enumerate(row):
            matrix[u].append(x)
        matrix.append(row + [Q(0)])
    return [f"t{i}" for i in range(n)], matrix


def chord_tree_matrix(n, chords):
    """``tree_matrix(n)`` plus ``chords`` unit-length edges between seeded
    pairs, as shortest paths: a near-tree."""
    labels, matrix = tree_matrix(n)
    rng = random.Random(f"frozen-delta-chords:{n}:{chords}")
    for _ in range(chords):
        a, b = rng.sample(range(n), 2)
        # a shortest path uses the new edge at most once
        matrix = [[min(x, row[a] + 1 + matrix[b][j], row[b] + 1 + matrix[a][j]) for j, x in enumerate(row)]
                  for row in matrix]
    return labels, matrix


def cycle_matrix(peak):
    """A 4-cycle with diagonals ``peak`` and coprime sides summing to it; delta is the short side."""
    short = (peak - 1) // 2
    long = peak - short
    return list("abcd"), [[0, short, peak, long], [short, 0, long, peak],
                          [peak, long, 0, short], [long, peak, short, 0]]


def delta_metrics():
    metrics = {f"star{n}": star_matrix(n) for n in (8, 24, 40)}
    metrics["grid6"] = grid_matrix(6, Q(7, 12))
    for name, (labels, matrix) in list(metrics.items()):
        metrics[f"{name}x2**70"] = labels, [[x * 2**70 for x in row] for row in matrix]
    for e in (14, 30, 61, 62):
        metrics[f"cycle2**{e}-1"] = cycle_matrix(2**e - 1)
        metrics[f"cycle2**{e}"] = cycle_matrix(2**e)
    # appended last, so the cells drawn for the metrics above stay the same
    for n in (48, 64, 72):
        metrics[f"star{n}"] = labels, matrix = star_matrix(n)
        metrics[f"star{n}x2**70"] = labels, [[x * 2**70 for x in row] for row in matrix]
    for k in (8, 9):
        metrics[f"grid{k}"] = grid_matrix(k, Q(7, 12))
    metrics["star104"] = labels, matrix = star_matrix(104)
    metrics["star104x2**70"] = labels, [[x * 2**70 for x in row] for row in matrix]
    metrics["grid10"] = grid_matrix(10, Q(7, 12))
    metrics["tree96"] = tree_matrix(96)
    # gcd 1 with entries past 2**62: no common factor divides it back to int64
    labels, matrix = star_matrix(104)
    metrics["star104x(2**70+1)+1"] = labels, [[x * (2**70 + 1) + 1 if x else x for x in row] for row in matrix]
    metrics["tree128"] = tree_matrix(128)
    metrics["tree128+2chords"] = chord_tree_matrix(128, 2)
    return metrics


def metric_text(labels, matrix, rng):
    """CSV of the metric with cells in the forms a file may hold: integers,
    reduced and unreduced fractions, some padded with spaces."""
    rows = [labels]
    for row in matrix:
        cells = []
        for x in row:
            x = Q(x)
            k = rng.choice((1, 1, 2, 3))
            text = str(x.numerator) if x.denominator == 1 and k == 1 else f"{x.numerator * k}/{x.denominator * k}"
            cells.append(rng.choice(("", " ")) + text)
        rows.append(cells)
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerows(rows)
    return buffer.getvalue()


def test_delta_digests(capsys, tmp_path):
    rng = random.Random("frozen-delta-cells")
    path = tmp_path / "metric.csv"
    digests = {}
    for name, (labels, matrix) in delta_metrics().items():
        path.write_text(metric_text(labels, matrix, rng), encoding="utf-8")
        digests[name] = hashlib.sha256(stdout_of(capsys, ["delta", str(path)]).encode()).hexdigest()
    assert digests == DELTA_SHA256


def run_digest(capsys, argv):
    """sha256 of the exit code and stdout of one run."""
    code = main(argv)
    out = capsys.readouterr().out
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest(), code, out


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def class_record(degree, mults):
    return {
        "degree": f"{degree.numerator}/{degree.denominator}",
        "mults": [{"point": p, "mult": f"{v.numerator}/{v.denominator}"} for p, v in sorted(mults.items())],
    }


def config_record(parents, collinear=(), conics=()):
    points = [{"id": p} if q is None else {"id": p, "parent": q} for p, q in parents.items()]
    return {"configuration": {"points": points, "collinear": [list(s) for s in collinear],
                              "conics": [list(s) for s in conics]}}


NINE = {p: None for p in range(9)}

# one class per witness kind, plus negative and excess points; (class, config or None)
IN_E_CASES = {
    "member-generic": (class_record(Q(2), {1: Q(1), 2: Q(1), 3: Q(1)}), None),
    "member-config": (class_record(Q(3), {0: Q(1), 1: Q(1, 2), 4: Q(1, 3)}),
                      config_record({0: None, 1: 0, 2: None, 3: None, 4: None}, [(0, 2, 3)])),
    "pair_line": (class_record(Q(1), {0: Q(3, 5), 1: Q(3, 5)}), None),
    "declared_line": (class_record(Q(1), {p: Q(1, 2) for p in range(3)}),
                      config_record(NINE, collinear=[(0, 1, 2)])),
    "five_conic": (class_record(Q(1), {p: Q(5, 12) for p in range(6)}), None),
    "declared_conic": (class_record(Q(1), {p: Q(3, 10) for p in range(7)}),
                       config_record(NINE, conics=[tuple(range(7))])),
    "negative": (class_record(Q(1), {0: Q(-1, 2)}), None),
    "excess": (class_record(Q(1), {0: Q(1, 4), 1: Q(1, 2)}),
               config_record({0: None, 1: 0, 2: None, 3: None, 4: None})),
    "two-negative-two-excess": (class_record(Q(2), {0: Q(1, 8), 1: Q(1, 4), 2: Q(1, 8), 3: Q(1, 4),
                                                    4: Q(-1, 8), 5: Q(-1, 4)}),
                                config_record({0: None, 1: 0, 2: None, 3: 2, 4: None, 5: None})),
}

IN_E_SHA256 = {
    "member-generic": "70e7e3fa3d32e6b57cd829591b9d98d65c2bd688f8ac31a4f93fc3a78469c3ff",
    "member-config": "4ada4528b6cb34ba8d4bfa91354925dd1fb0ae04d70ebc01ce8a99dc73aa1cc3",
    "pair_line": "cc87ce08eb1bc5145ef73b768ce42337896956b6704de35a95952102407e2214",
    "declared_line": "ca584c6910ed7ff45632044d3df686251c464d1d0bded11f280307d12f133aef",
    "five_conic": "98c5414a40de71f5baab54542b916ec6566226b20acbe9d14cbb60afa5e45b25",
    "declared_conic": "160e389f82b90e86f004c79f72028e7da7fcad7e216a2c6f42d5236d328b3e78",
    "negative": "d3e6d4af664e7841baf026a1e4321a3243a049c4ba8775e539eb05f09ebef491",
    "excess": "f00d8c789d9c6998e777e695b1f074bd711b8d806c4d27c359af8ac64d25a127",
    "two-negative-two-excess": "24172452bb10a56c314ac2c8e8cbb211f9791235db4e0efacfff7e3f7d33be6c",
}

# keyed by whether the runs pass --config; the sha256 of the runs' digests, in order
IN_E_SEEDED_SHA256 = {
    False: "ccdcb57b88afac3a89d72d24f0bfc674b6610c7e69232e5e30052c7cc561e88e",
    True: "0b72435a4093584198dbf534ed33bac6092e5ff5866ff8481156afe054eaffd9",
}


def seeded_in_e_runs(with_config):
    """Twenty seeded classes over at most eight points, with multiplicities a
    signed fraction of the degree, so members and non-members both occur."""
    rng = random.Random(f"frozen-in-e:{with_config}")
    runs = []
    for _ in range(20):
        count = rng.randint(2, 8)
        parents = {p: (rng.randrange(p) if p >= 2 and rng.random() < 0.3 else None) for p in range(count)}
        degree = Q(rng.randint(1, 12), rng.choice((1, 2, 3)))
        support = rng.sample(range(count), rng.randint(1, count))
        mults = {p: Q(rng.randint(-1, 8), rng.choice((1, 2, 3))) * degree / 8 for p in support}
        proper = [p for p, q in parents.items() if q is None]
        collinear = [sorted(rng.sample(proper, 3))] if len(proper) >= 4 and rng.random() < 0.5 else []
        conics = [sorted(rng.sample(proper, 6))] if len(proper) >= 6 and rng.random() < 0.5 else []
        runs.append((class_record(degree, mults),
                     config_record(parents, collinear, conics) if with_config else None))
    return runs


def in_e_run(capsys, tmp_path, cls, config):
    argv = ["in-e", write_json(tmp_path, "class.json", cls)]
    if config is not None:
        argv += ["--config", write_json(tmp_path, "config.json", config)]
    digest, code, out = run_digest(capsys, argv)
    header, row = out.splitlines()
    assert header.startswith("member,") and code == (0 if row.startswith("true,") else 2), out
    return digest, code, row


def test_in_e_digests(capsys, tmp_path):
    digests, kinds = {}, set()
    for name, (cls, config) in IN_E_CASES.items():
        digests[name], _, row = in_e_run(capsys, tmp_path, cls, config)
        kinds.add(row.split(",")[8])
    assert kinds == {"", "pair_line", "declared_line", "five_conic", "declared_conic"}
    assert digests == IN_E_SHA256


@pytest.mark.parametrize("with_config", [False, True])
def test_in_e_seeded_digests(capsys, tmp_path, with_config):
    runs = [in_e_run(capsys, tmp_path, cls, config) for cls, config in seeded_in_e_runs(with_config)]
    assert {code for _, code, _ in runs} == {0, 2}  # members and non-members
    digest = hashlib.sha256("".join(d for d, _, _ in runs).encode()).hexdigest()
    assert digest == IN_E_SEEDED_SHA256[with_config]


# (degree, base multiset) of maps: pencil-preserving, not, and a nine-point twist
CLASSIFY_PATTERNS = (
    (2, [1, 1, 1]),
    (3, [2, 1, 1, 1, 1]),
    (5, [4, 1, 1, 1, 1, 1, 1, 1, 1]),
    (4, [2, 2, 2, 1, 1, 1]),
    (6, [3, 3, 2, 2, 2, 2, 1]),
    (8, [3, 3, 3, 3, 3, 3, 3]),
    (17, [6, 6, 6, 6, 6, 6, 6, 6]),
    (28, [12, 12, 9, 9, 9, 9, 9, 9, 3]),
)

# keyed by the index of the run configuration in seeded_run_configs()
CLASSIFY_SHA256 = {
    0: "7d7dec618208cd8e458c7a0f5b8fc983f0829795e864fbf1759b377caece3611",
    1: "3e89a6ef23526d933b088bc1d36dcf3d7c35563c0d8d805aba3fb4eb715992e6",
    2: "901d6d81e5d94612f34be6787926f1094b5fdb1bef6256b2a7e0134f648bd06f",
    3: "459c33428c8e2ad48ecc2d71d8d0d17cc5e62170c5279fdada218e74b7e11e84",
    4: "8330775d7a8aa8842d9f69763af508aac1af6b9a8c6502e61a9472ede7e2c1e1",
    5: "27bd47d54df554c07fce3b8b783928704d32acf3b1e4186d257a5ba6f330f461",
}


def seeded_run_configs():
    """Six seeded run configurations: nine proper points, up to three points
    infinitely near them, a declared line and conic, and six maps each."""
    rng = random.Random("frozen-classify")
    configs = []
    for _ in range(6):
        parents = dict(NINE)
        parents.update({9 + i: rng.randrange(9 + i) for i in range(rng.randint(0, 3))})
        collinear = [sorted(rng.sample(range(9), rng.randint(3, 5)))]
        conics = [sorted(rng.sample(range(9), 7))] if rng.random() < 0.5 else []
        characteristics = []
        for i in range(6):
            degree, mults = rng.choice(CLASSIFY_PATTERNS)
            base = rng.sample(sorted(parents), len(mults))
            characteristics.append({
                "label": f"map{i}",
                "degree": degree,
                "base": [{"point": p, "mult": m} for p, m in zip(base, mults)],
                "inverse_base": [{"point": 100 + j, "mult": m} for j, m in enumerate(mults)],
            })
        record = config_record(parents, collinear, conics)
        record["characteristics"] = characteristics
        configs.append(record)
    return configs


def test_classify_digests(capsys, tmp_path):
    digests, verdicts = {}, set()
    for i, record in enumerate(seeded_run_configs()):
        digest, code, out = run_digest(capsys, ["classify", "--config", write_json(tmp_path, "run.json", record)])
        assert code == 0, out
        digests[i] = digest
        verdicts |= {row.rsplit(",", 1)[1] for row in out.splitlines()[1:]}
    assert verdicts == {"jonquieres_adjacent", "general_adjacent", "quasi_adjacent_only", "unclassified"}
    assert digests == CLASSIFY_SHA256
