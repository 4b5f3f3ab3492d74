"""tools/templates.py: one line per seed, stable across runs."""

import hashlib
import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "templates.py"


def _load():
    spec = importlib.util.spec_from_file_location("templates", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_line_per_seed_and_repeatable(capsys):
    templates = _load()
    args = ["--problem", "conic", "--seeds", "3..5"]
    assert templates.main(args) == 0
    first = capsys.readouterr().out.splitlines()
    assert templates.main(args) == 0
    assert capsys.readouterr().out.splitlines() == first
    assert len(first) == 3
    for seed, line in zip(range(3, 6), first):
        assert re.fullmatch(rf"{seed} 4 0,3( [0-9a-f]{{64}}){{5}}", line), line
    # every seed of a problem builds the same template from different draws
    assert len({line.split()[3] for line in first}) == 1
    assert len({line.split()[4] for line in first}) == 3


def test_offline_decisions_in_clear(capsys):
    templates = _load()
    assert templates.main(["--problem", "five_point", "--seeds", "0..1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [["0", "10", "0,9"], ["1", "10", "0,9"]]


# tools/templates.py lines for seeds 0..4: k, the deletion pair, the
# template hash, then each specialization's stack and determinant hashes.
# A change to the exact offline path that moves any of them shows here.
GOLDEN = {
    "five_point": [
        "0 10 0,9 e748204b1a51d31735b3e79f63c5d36f166c901d2187f095aa78ba8232faaebd"
        " 64b469dee2c09389f537418a4c3c982fed52f36868d59291c24c551b857cee9a"
        " c6e8a31bef1ccedba67360ea9c95ce4cab5885174c11d9dd5785508682c82d96"
        " 59f23a3e3c52709b79e412aa99904aaa2f3df862a81c0d53722f17addb3dd196"
        " cae5e9e18fcc856b9815f8e0e22729f6fd07e3e51bc07ac2fd27f64fa3057f60",
        "1 10 0,9 e748204b1a51d31735b3e79f63c5d36f166c901d2187f095aa78ba8232faaebd"
        " 41d36d6f7e6e4659baf4db78d9c300da6019c1a3dc44720aebf6776c988f7d3a"
        " 9955532270895016edbf25851b5c343410d3a2e8f87b5a4d7c2031005447314b"
        " a19ba218ba587e506881ce931e09abe5f1dc37886235427ba0de8c0b43877df3"
        " 0c6bfbbe9ced97fcc20e00d4f9286356e63a7722e2a5cc3c1080cf1f33691d4e",
        "2 10 0,9 e748204b1a51d31735b3e79f63c5d36f166c901d2187f095aa78ba8232faaebd"
        " db2d984ea37f6739346e5af6c4b3d87b745e128a9642c64d1dd37218f5f435a7"
        " aedad2123132c834c2344bbf32072ff2d42331ba894c16f8006fb7f0e6030dcd"
        " 080cc8c42608f82a0354c62df3583d9114a6be0559199d76336241f61e61be9a"
        " 9de6f5690838a266dd040b78b0b54d839df49cf6b6fd5773590f91ef45eea6cf",
        "3 10 0,9 e748204b1a51d31735b3e79f63c5d36f166c901d2187f095aa78ba8232faaebd"
        " 51d68fbfc2e78e8ee52444693f0b5417107e72d145d5e5eaea955cd796b37399"
        " a88c485b3dea682a4c347e98162d620a0fdb03049e06d46049741cc4074fd5df"
        " 77107c32d33bc84bb9b9682396c6f534a5d0aed9a1ff46c257bd61d8c3bb7524"
        " 1ca26c77389abd387544726d6bac06dab487c12108a405a35d3e9705eea20912",
        "4 10 0,9 e748204b1a51d31735b3e79f63c5d36f166c901d2187f095aa78ba8232faaebd"
        " a12540f7be3ac9e1b2ac5e2aac5f93500bb9b4a958049378a3fe355b127e055a"
        " a25d6a38984ac152519c4ce80ebbeb7b99ad26a91502b64121b93803369f6bf8"
        " 697794a08d7d861c8289dca6982c3253f046050df920cfdffa6d9db8be0e08a1"
        " fb985bc2ad436bd05666f7a3f34a617377bd434db141fc39b20cce353f3a3b8b",
    ],
    "conic": [
        "0 4 0,3 133decf17b397bb255dcdfb67028a6c235d435b56d716ee8facde8117da59bcc"
        " 2db9876b659b19c140067f47042f883d8ea5693997b564d7dbc0bdde82ce273c"
        " dac185c7d3b86fdb95cbac86e86fca7d3eaa4f95dafb498e6496d212edb777fe"
        " 3ef39c98f514a2cbbfdd2ca90d86525842e0089d3f7b7c1ecca15229e78a2b04"
        " 382dd35a14f71e63e54d8cdea33137d1301fabab70507d45a27001ada9ef4417",
        "1 4 0,3 133decf17b397bb255dcdfb67028a6c235d435b56d716ee8facde8117da59bcc"
        " 91de1a4db1b78aa9dfc38382c7052abf075fff70a6f3b02b5bd49072b8ac9594"
        " 37ca810eb4e5a965f64438f3c22b21d60d0b3457767fdf4c0822a55a2a6ca374"
        " ce9ac9beefa2aa832cbd14c0976c83d03d9224592f535347a6b6a26e2a9ed974"
        " b868088c17e2d099b4195c1ce2597f08d79e2ca865d9857eafedbbebf084eed6",
        "2 4 0,3 133decf17b397bb255dcdfb67028a6c235d435b56d716ee8facde8117da59bcc"
        " c86b25d8a5d83d90f94229f58c090dfeaa93d40bdeaafdf0a60e17d1cb31c4d7"
        " e7e360161b15c38b651115f2b89481a68149f42f292c4a9b1078b1742cf81552"
        " f4a341b64db5db28abc3edbb89169d35fc489be71f651c558163831a0a803d7e"
        " 4df70c7a49fcbea2626e5fe2608906a99cf3d8ccfb25794038830ac384fd5cb8",
        "3 4 0,3 133decf17b397bb255dcdfb67028a6c235d435b56d716ee8facde8117da59bcc"
        " 7f29eff88cd549047743ecaf99198fb65a11df752ddd1208ffe145a3abdc4cd8"
        " 6c254133bb902ce2fd66a73938fae0865d5b38f57730af1e2976c0c14f14d3fc"
        " f5c0482122dada379a5f463bd826540ff333ee40f70df1b4251db5abdbdcb22c"
        " 3089e68b1420382850c70942e54d8c94c9e13a80da9f29482ea088906ffd1535",
        "4 4 0,3 133decf17b397bb255dcdfb67028a6c235d435b56d716ee8facde8117da59bcc"
        " 93bc1a9bd865039ba4c7c65c496913ce1029dcfc8fb0e223833896ab72500f76"
        " 11aaae125cd08f3694c1ae0463b5bf09b9cf03cc2a2e93f92004e09eac69d153"
        " 54bc3b60f738bc2c9ac41802434339c2e844e5b28581ecaf1d83ab22b7fe1378"
        " c674e698e533aa4cc1a5a69b99095354b73afb1c2639b279eb8643792b8437b8",
    ],
}


@pytest.mark.parametrize("pid", sorted(GOLDEN))
def test_golden_lines(pid, capsys):
    templates = _load()
    assert templates.main(["--problem", pid, "--seeds", "0..4"]) == 0
    assert capsys.readouterr().out.splitlines() == GOLDEN[pid]


# sha256 of the whole tools/templates.py stdout for seeds 0..49: the golden
# lines above show which field moved, these pin every seed of the range
RANGE_SHA256 = {
    "five_point": "fa2310f7f0ee101ba003683e8afb6cc62c1da22b5d6213f22bb64a50046f95af",
    "conic": "cf7a73a6a34eb0c6e5c804d761ebafd1252a1de12dc81dda13462fe901614133",
}


@pytest.mark.parametrize("pid", sorted(RANGE_SHA256))
def test_seed_range_hash(pid, capsys):
    templates = _load()
    assert templates.main(["--problem", pid, "--seeds", "0..49"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == RANGE_SHA256[pid]
