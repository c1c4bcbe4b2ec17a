"""sha256 pins of CLI output on the shared fixture systems.

Each digest was recorded with the code before a refactor of the path that
prints it: the JSON, fraction and label helpers, then the integer multinv
clouds, chunked distances and integer torus check, then the sorted-sweep
distances, then the first-block SEP search and the Minkowski-sum IFS
offsets, then the carried powers of the converge clouds.  Equal digests show the refactored code prints the same bytes,
floats included.
"""

import hashlib
import json

import pytest

from radixtile import cli

from conftest import gauss_system


@pytest.fixture
def gauss2_full():
    return gauss_system(2)


PINNED = {
    "neighbours_dot_base10": (
        "base10",
        ["neighbours", "--dot"],
        None,
        "6e2a1926189eac14464789a100a95d0ca62a0a1e82b93d0dee14246ee0a72c14",
    ),
    "neighbours_dot_twin": (
        "twin_two",
        ["neighbours", "--dot"],
        None,
        "766b4386f7230672fe712d94932948f9e12d342a9386d9af979679f362e29761",
    ),
    "neighbours_dot_m3i": (
        "m3i_048",
        ["neighbours", "--dot"],
        None,
        "93ce4dffbf3f697165b5e38a532fcc5f2ba7f472391f8934259c98143260adc1",
    ),
    "triple_dot_base3": (
        "base3_full",
        ["triple-graph", "--dot"],
        None,
        "614b574408386c1808bd155395aaa7eb61614f21132f6967ecf18f2a5efeddb6",
    ),
    "triple_dot_twin": (
        "twin_two",
        ["triple-graph", "--dot"],
        None,
        "d7f6705a73e549405c7000752ec92d3f0a63ec80b5c6038474885a469e564544",
    ),
    "triple_dot_m3i": (
        "m3i_048",
        ["triple-graph", "--dot"],
        None,
        "5662006a8f9000da7bfcab77e63aa1958ef913cae4b1e50704b092b9b369dfb5",
    ),
    "enumerate_base10": (
        "base10",
        ["enumerate-equiv"],
        {"x": {"pre": [[3], [1]], "cycle": [[0]]}},
        "9fd5e087c0fcd6b2f7323325f15d946f910d54805cbc59facea8f2c6802ed328",
    ),
    "enumerate_twin": (
        "twin_two",
        ["enumerate-equiv"],
        {"x": {"pre": [[1, 1]], "cycle": [[0, 0]]}},
        "650604fcb4b7d81df53c327c565eed1e9ecb919199bcc2f55edb09fba6e47e05",
    ),
    "enumerate_m3i": (
        "m3i_048",
        ["enumerate-equiv"],
        {"x": {"pre": [[4, 0]], "cycle": [[8, 0], [0, 0]]}},
        "fabc87c38734cc6629e29ca5817080425ef7e5d7a70472d29aae2040303f8096",
    ),
    "intersect_m3i": (
        "m3i_048",
        ["intersect"],
        {"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}},
        "e407a7b7fc3f4b5044ebaee5cad2522b6f2dd0a2008612cf740eecada7af6f59",
    ),
    "intersect_multi_m3i": (
        "m3i_048",
        ["intersect", "--multi"],
        {"alphas": [{"pre": [[-4, 0]], "cycle": [[0, 0]]}, {"pre": [], "cycle": [[4, 0], [-8, 0]]}]},
        "2cfbc21b1373c9df683c1024c92d5a87d59924d11b7c528ca7807db7deb348cb",
    ),
    "eval_base10": (
        "base10",
        ["eval"],
        {"pre": [[1], [7]], "cycle": [[3], [9]]},
        "927bc5fb3e404f2b6c4d1812b4fce030afe39f2d53774305f3557344783b1c93",
    ),
    "eval_twin": (
        "twin_two",
        ["eval"],
        {"pre": [[1, 0]], "cycle": [[0, 1], [1, 1], [0, 0]]},
        "c7cf785d24bc876f34d992a73a773329e7b0c5631aa562bd322c9d5051be7c95",
    ),
    "eval_m3i": (
        "m3i_048",
        ["eval"],
        {"pre": [[8, 0]], "cycle": [[4, 0], [0, 0]]},
        "cf033b49d733af54a6cce098c4da4cbf6b2ee2adc142780a2934db867bb52dbe",
    ),
    "levelset_m3i": (
        "m3i_048",
        ["levelset", "--lam", "1/2"],
        {},
        "3087d63d9878c1ccfd19c6f4971f39ce395f61560e986671ebac474eef334265",
    ),
    "levelset_m3i_third": (
        "m3i_048",
        ["levelset", "--lam", "1/3"],
        {"alpha_prefix": [[4, 0]]},
        "62eb6042a9a9535f83541364b00a510db0cef8cf0c384b7623b7014e028a1177",
    ),
    "union_components_m3i": (
        "m3i_048",
        ["union-components"],
        {"alpha": {"pre": [], "cycle": [[0, 0]]}, "limit": 4},
        "ce46887921dd660daa02cf75e6abb51365e98a379bac9780c773fbd7b3c7ad42",
    ),
    "cloud_base10": (
        "base10",
        ["multinv", "cloud"],
        {"restrict": [[0], [2], [7]], "k": 3},
        "736360bf483b6dfec05ea3c8d24ec6e193b91c122e53cc85f4150d1cd8f5ad01",
    ),
    "cloud_base3": (
        "base3_full",
        ["multinv", "cloud"],
        {"restrict": [[0], [2]], "k": 4},
        "93cbb13f2ba17d99c23c0a9e11a5029d7c2254eee74179dc15639dfd55fe820a",
    ),
    "cloud_twin": (
        "twin_two",
        ["multinv", "cloud"],
        {"restrict": [[0, 0], [1, 1], [0, 1]], "k": 3},
        "ed693aa3cc36ecb2bb923e8f6b87aecee14d05ef4235a740785240383d2f7ad0",
    ),
    "converge_base3": (
        "base3_full",
        ["multinv", "converge"],
        {"restrict": [[0], [2]], "kmax": 6},
        "893ac1656071f120f5f5e9a5451804f26114ef0557c60990f85b2a1c358250e7",
    ),
    "converge_csv_base3": (
        "base3_full",
        ["--format", "csv", "multinv", "converge"],
        {"restrict": [[0], [2]], "kmax": 8},
        "fb30a5f9f11491b88d4981449a66a74f8d7b78c7b1bbe232d261db7eac55f736",
    ),
    # recorded before the converge clouds came from one carried power and the bound column from unreduced pairs
    "converge_csv_base3_zero_k2000": (
        "base3_full",
        ["--format", "csv", "multinv", "converge"],
        {"restrict": [[0]], "kmax": 2000},
        "9b7a650c41cd04ca543e20ab2c8dc78c44686cff9b038dc4c295a53e62651563",
    ),
    "converge_csv_base3_k14": (
        "base3_full",
        ["--format", "csv", "multinv", "converge"],
        {"restrict": [[0], [2]], "kmax": 14},
        "4d2838f4161793cd36e4dbb3a814f5c81ee9f30789de1b517bf66868d2d86790",
    ),
    "converge_base3_k12": (
        "base3_full",
        ["multinv", "converge"],
        {"restrict": [[0], [2]], "kmax": 12},
        "38698e65eccdbea23c7dbb96385c53f712f9c158f28b04248f4a6419cf20992c",
    ),
    "converge_base3_k14": (
        "base3_full",
        ["multinv", "converge"],
        {"restrict": [[0], [2]], "kmax": 14},
        "4e0d98b75abc2cd21e3907b2255675c726ccadf76fd20c17734b882d8bb5a773",
    ),
    # 1024- and 2048-point clouds at the last rows: several 64-point sweep blocks
    "converge_twin_k10": (
        "twin_two",
        ["multinv", "converge"],
        {"restrict": [[0, 0], [1, 1]], "kmax": 10},
        "a3e081baed9edcf8bfedcf5f4bbe582f40fcf2707d5d85b298b0c225f02d664d",
    ),
    "converge_csv_gauss2": (
        "gauss2_full",
        ["--format", "csv", "multinv", "converge"],
        {"restrict": [[0, 0], [1, 0], [4, 0]], "kmax": 6},
        "ce3e8a67723101c5a1eb6d5ca01f5926d02576daa6596250c8e9cd6dd3392069",
    ),
    "converge_twin": (
        "twin_two",
        ["multinv", "converge"],
        {"restrict": [[0, 0], [1, 1]], "kmax": 5},
        "5561e906d4af46051afd9bf8860a76959ca46d5518956a9fffa5654280317cd8",
    ),
    "converge_csv_twin": (
        "twin_two",
        ["--format", "csv", "multinv", "converge"],
        {"restrict": [[0, 0], [1, 0], [0, 1]], "kmax": 4},
        "ce483fc2b9c5e0a455d6708f4c724827f403427a91af915d5da36a148d04fd14",
    ),
    "check_torus_base3": (
        "base3_full",
        ["multinv", "check"],
        {"restrict": [[0], [2]], "torus_k": 4},
        "7b5c4e4ff86d64fcaff387d8d3f837a275693826c913444196ecb8c339a52b30",
    ),
    "check_torus_twin": (
        "twin_two",
        ["multinv", "check"],
        {"restrict": [[0, 0], [1, 0]], "torus_k": 3},
        "7b5c4e4ff86d64fcaff387d8d3f837a275693826c913444196ecb8c339a52b30",
    ),
    "check_torus_last_digit": (
        "base3_full",
        ["multinv", "check"],
        {"automaton": {"n_digits": 3, "transitions": [[2, 2, 1], [2, 2, 1], [2, 2, 1]], "accepting": [1]}, "torus_k": 3},
        "2f6066e6430293191dcce0e05c3bd13ba3351c3d1ec429a79e99673415f2ebf4",
    ),
    "dims_box_empirical_m3i": (
        "m3i_048",
        ["dims", "box"],
        {"alpha": {"pre": [[-4, 0], [-8, 0]], "cycle": [[0, 0], [8, 0]]}, "empirical_depth": 4},
        "3af02ffe71f281c67a02d020abcb4e630eebec85707282da70a3df6952c193eb",
    ),
    "dims_box_empirical_base10": (
        "base10",
        ["dims", "box"],
        {"alpha": {"pre": [[3]], "cycle": [[0], [5]]}, "strict": False, "empirical_depth": 3},
        "671330cf2afa86ac51e51d40a062778cc85f7e8255efc5879bde3128de4c60f2",
    ),
    # blocks 7 and 6: IFSs of 144 and 72 maps
    "intersect_m3i_block7": (
        "m3i_048",
        ["intersect"],
        {"alpha": {"pre": [], "cycle": [[x, 0] for x in (0, 0, 4, 4, 4, 4, 8)]}},
        "baee2304197c10de98704f9f647e127167cc6781487286a9adeb1ba468d94823",
    ),
    "intersect_m3i_block6": (
        "m3i_048",
        ["intersect"],
        {"alpha": {"pre": [], "cycle": [[x, 0] for x in (4, 4, 4, 0, 0, 8)]}},
        "f2fc38d5a9fd88dde6ff2a725eb878f12830965ee29e634ee085e1ee095d1db1",
    ),
    "sep_sets_translated_none_m3i": (
        "m3i_048",
        ["sep"],
        {"kind": "sets-translated", "pre": [[[0, 0], [4, 0], [8, 0]]], "cycle": [[[0, 0], [8, 0]], [[4, 0]]]},
        "78457add7ee041f3d6a15e1a91ae396ed25418ac3da202b3841bf267feb04702",
    ),
    "dims_hausdorff_base10": (
        "base10",
        ["dims", "hausdorff"],
        {"alpha": {"pre": [[-7]], "cycle": [[2], [0]]}, "strict": False},
        "b3beb6814831a9adf7a8e835b7dc9d6988a6f3ef68b44d39f5d26ca1837535bb",
    ),
}


def _output(request, tmp_path, capsys, name):
    fixture, argv, payload, _ = PINNED[name]
    sys = request.getfixturevalue(fixture)
    path = tmp_path / f"{fixture}.json"
    descriptor = {"matrix": [list(r) for r in sys.matrix], "digits": [list(d) for d in sys.digits]}
    path.write_text(json.dumps(descriptor))
    extra = [] if payload is None else ["-p", json.dumps(payload)]
    code = cli.main([*argv, str(path), *extra])
    assert code == 0
    return capsys.readouterr().out.encode()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_cli_output(request, tmp_path, capsys, name):
    out = _output(request, tmp_path, capsys, name)
    assert hashlib.sha256(out).hexdigest() == PINNED[name][3]
