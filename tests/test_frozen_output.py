"""Frozen CLI output of the commands that print lattice twists and length bounds.

`flat-growth --kmax K` is pinned by the sha256 of its stdout for every K in
1..20 and `halphen-table --nmax N` for every N in 1..32; `length` is pinned
by its data row for quadratic towers 1..12 and for three lattice twists.
Any change to the lattice arithmetic, the greedy search, the lower bounds or
the table layout that alters a byte of output fails here.
"""

import hashlib
import json

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
