"""Golden bytes: the stdout and exit code of the CLI on fixed fans.

Each entry of GOLDEN is the sha256 of ``"<exit code>\\n"`` followed by the
command's stdout, recorded on a reference commit.  Geometry changes that are
meant to be pure speedups must leave every digest as it is.  Run this file
as a script to print the digests of the current code:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from tropicon import cli
from tropicon.fanjson import fan_to_text, load_fan
from tropicon.tropical import skeleton

# hexagon x heptagon: the product of two lattice polygons in R^4
HEXAGON = [[2, 0], [1, 2], [-1, 2], [-2, 0], [-1, -2], [1, -2]]
HEPTAGON = [[3, 0], [2, 2], [0, 3], [-2, 2], [-3, 0], [-1, -3], [2, -2]]
HEX_HEPT = [p + q for p in HEXAGON for q in HEPTAGON]

# six triangles around a rational centre in the plane z = 1/2 of R^3, plus
# one unbounded strip beyond an edge of the hexagon
_RING = [["2", "0"], ["1", "3/2"], ["-1", "3/2"], ["-2", "0"], ["-1", "-3/2"],
         ["1", "-3/2"]]
RATIONAL_COMPLEX = {
    "ambient_dim": 3,
    "vertices": [["1/3", "1/4", "1/2"]] + [p + ["1/2"] for p in _RING],
    "rays": [[1, 1, 0]],
    "lineality": [],
    "cells": [{"v": [0, 1 + i, 1 + (i + 1) % 6], "r": []} for i in range(6)]
    + [{"v": [1, 2], "r": [0]}],
    "weights": [1] * 7,
}

# the first cell shares no ridge with the other two
DISCONNECTED = {
    "ambient_dim": 3, "vertices": [], "lineality": [],
    "rays": [[-1, 0, 0], [0, -1, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]],
    "cells": [{"v": [], "r": [0, 1]}, {"v": [], "r": [2, 3]}, {"v": [], "r": [2, 4]}],
    "weights": [1, 1, 1],
}

# fan name -> gen argv (the points file is written first), or a fan object
FANS = {
    "two-planes": ["gen", "two-planes"],
    "tropical-plane": ["gen", "tropical-plane"],
    "u34": ["gen", "bergman-uniform", "3", "4"],
    "u45": ["gen", "bergman-uniform", "4", "5"],
    "u46": ["gen", "bergman-uniform", "4", "6"],
    "mk4": ["gen", "bergman-graphic", "0-1,0-2,0-3,1-2,1-3,2-3"],
    "cube3": ["gen", "normal-fan-cube", "3"],
    "hex-hept": ["gen", "normal-fan", "{points}"],
    "rational": RATIONAL_COMPLEX,
    "disconnected": DISCONNECTED,
}
COMMANDS = {
    "check": ["check", "{fan}", "--mincut"],
    "balance": ["balance", "{fan}"],
    "dot": ["dot", "{fan}"],
    "quotient": ["quotient", "{fan}"],
    "star": ["star", "{fan}", "--face", "r0"],
}
SLICED = ("tropical-plane", "u34", "cube3", "rational")


def _run(argv: list[str]) -> str:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(argv)
    text = f"{rc}\n" + out.getvalue()
    return hashlib.sha256(text.encode()).hexdigest()


def _slice_args(rng: random.Random, n: int) -> list[str]:
    h = ",".join(str(rng.randint(-3, 3) or 1) for _ in range(n))
    return ["--h", h, "--c", f"{rng.randint(-4, 4)}/{rng.randint(1, 3)}"]


def fan_digests(name: str, work: Path) -> dict[str, str]:
    """Digests of gen, every command, every skeleton and the seeded slices
    of one fan; the fan file and points file go to `work`."""
    spec = FANS[name]
    path = work / f"{name}.json"
    out: dict[str, str] = {}
    if isinstance(spec, dict):
        path.write_text(json.dumps(spec))
    else:
        points = work / "points.json"
        points.write_text(json.dumps(HEX_HEPT))
        argv = [a.format(points=points) for a in spec]
        out[f"{name} gen"] = _run(argv)
        assert cli.main(argv + ["-o", str(path)]) == 0
    for command, argv in COMMANDS.items():
        out[f"{name} {command}"] = _run([a.format(fan=path) for a in argv])
    fan = load_fan(str(path))
    for k in range(fan.lineality_dim, fan.dim):
        text = fan_to_text(skeleton(fan, k))
        out[f"{name} skeleton {k}"] = hashlib.sha256(text.encode()).hexdigest()
    if name in SLICED:
        rng = random.Random(name)
        for i in range(3):
            argv = ["slice", str(path)] + _slice_args(rng, fan.ambient_dim)
            out[f"{name} slice {i}"] = _run(argv)
    return out


GOLDEN = {
    'two-planes gen': 'efc3820db67a9da647650dd66c353c30611ccf385114b223a046477b902e3ea4',
    'two-planes check': '6b8355927c0fdd8fb83a63cf60e51628463a48abc5314d48f04cb1f1bd4dc233',
    'two-planes balance': '5896a59cd85dce5b82391f45c029c94103a8b0f3d711fe958cec294a1d265a9c',
    'two-planes dot': 'a70b7827d019f52e75fa7fab018bdef396b19afa16812dd3594bea8824040502',
    'two-planes quotient': 'efc3820db67a9da647650dd66c353c30611ccf385114b223a046477b902e3ea4',
    'two-planes star': 'a04001552edc073071dd6d5315e28f89243ee2cffbe12009ed0a094d1ee85b5b',
    'two-planes skeleton 0': '7f67a4ad3084d6c101f70ba42443ba67bc416034fc011ec9e5083bc970c99e67',
    'two-planes skeleton 1': '09a5c9ac51c90872fbff0e1acefe6d5fa198f2445e16be6db64275424d5a1c42',
    'tropical-plane gen': 'b5760cdc5cefa8b51a60fbe60f0e652f0052f0d4f4a3180facf5d8b9b23ccac9',
    'tropical-plane check': '1d8d08029c081f88016071cb4fdb69212f887744222d4b977178708b9f233647',
    'tropical-plane balance': '8c2547efee484baa2e09681d1f0dd957b97d589ee9cdc8f81ea8d20391c3e6f6',
    'tropical-plane dot': 'ab54b58efed8c415604875b05776c460e7ead3d17493a8e7255a40be07127b31',
    'tropical-plane quotient': 'b5760cdc5cefa8b51a60fbe60f0e652f0052f0d4f4a3180facf5d8b9b23ccac9',
    'tropical-plane star': '94348f598b5cbef95ae00dd66a231c5a0cb907cf2ca9ef72f34a360b1aea7fd3',
    'tropical-plane skeleton 0': '609b1cc31d4f0129cfc8e8c0d4e657090e129ac4c66f0875774bc19ed296ce9e',
    'tropical-plane skeleton 1': 'd0baab3e962a2997611fa406ba9a3ccf017300912b2773074b70084903ff1058',
    'tropical-plane slice 0': '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865',
    'tropical-plane slice 1': 'bc15239aa726ba674fc201e99b90045287e383485b32e6f4f145bbd9a6549c1f',
    'tropical-plane slice 2': '8fba305628d07d93c99b69cc2469da3a14d17cb1ce9ec38ad931690bd79cd438',
    'u34 gen': '23a8c1d4944dda6084f0bdc21889fc9f306c809ac1f2c634e75813f6627d4ef3',
    'u34 check': '75eb9b383ddaedf62f2b1cd560fbc534a91627ce85e1c36fe8a2b2dc24f96c9e',
    'u34 balance': '94b48f3c513a6bed4ec3358b085850b601eddce024fdeab6482b4aea9fac4eab',
    'u34 dot': 'a434bd565ad7777c7a41dde25942680edfe6db0253115edd80784906f1af1004',
    'u34 quotient': '7cced24be1091844b4c46e3b1a706e94e2d1a527fcd8ea90dc338ddc20d769ab',
    'u34 star': '94348f598b5cbef95ae00dd66a231c5a0cb907cf2ca9ef72f34a360b1aea7fd3',
    'u34 skeleton 1': '97ca9986020626af98881b58ae1b3242af46342fdbb08cbc212ca8aca0dea925',
    'u34 skeleton 2': '758f254782cc3ed37ff88c99f92540fc354fdfe8614a20cdbd96389cccfc60a0',
    'u34 slice 0': 'a36518c97361294b1fc34cec3044bc1ff8743fda536dfdab94d4b67e526f9408',
    'u34 slice 1': '64963e5b9654256bc487e60a8cb7ec8d31c61f8969a8447e03f03c664f8f9337',
    'u34 slice 2': '1e3746cb4d2172fe223a9a45083dbdddf4ca42ac818970a95bc6f96275cfd7db',
    'u45 gen': 'd2b3f547136472acc2c0e8e7d8e92f3815cbbaeed51724466e14895ef95d0983',
    'u45 check': '348d8e37b84fc14d17c7730ab2b11ed3e91b8ab503e2395766b96b81051932f9',
    'u45 balance': '99e5cac7d0d3634f5c25ea37ae808d229d2b763b438dee2d651bbd428941c200',
    'u45 dot': '2036425d0d56edeeee1d574ff07de63601b3d264bfc4de270ebd03372404bda1',
    'u45 quotient': 'cfdd64b3228e7cd3bc284e1bbfe520108c42b7e2b57c992aed9b8a235d69ec1f',
    'u45 star': '7cced24be1091844b4c46e3b1a706e94e2d1a527fcd8ea90dc338ddc20d769ab',
    'u45 skeleton 1': '6b93b85402313c05055ffd5246eaaf102653d2ed291a102944973e53e2b157a9',
    'u45 skeleton 2': '2e475e5ffa635522687e336949f401cce013c846a01843680d5d3719ea750e2b',
    'u45 skeleton 3': '1718c0696a54ba36d2fcd599059dd2cdd50401af81d1915a238b92b48528aeca',
    'u46 gen': '8cbbbe93800e118042c2a76612e94f85a4e357e17e723cde22ecafcf8b3cc5b4',
    'u46 check': '3bff367b6cec45590d34232ff97bbc6c20908245cd7c9c1a0372c129aff69482',
    'u46 balance': 'd49fe62f4a44f82c75abea93b4d3b085baf17305203b4bea49bdd96b43eb6a7e',
    'u46 dot': 'ba89691b150641e4583cb7b5415558cc9a5406c89b5787dc835fa00c0fc3e874',
    'u46 quotient': '0a1e1fe5311d31377acdd7f4667ddcb05c8824ee768b9c824c803115049c0668',
    'u46 star': '83112af1fb4df7d574c3562484a74d850c74e028c51d6c40c70eaa42d3ab5bdc',
    'u46 skeleton 1': 'c24c8ee609f5f530071ac1c2284fb8219e10bd0aae091ef57284c792867cd2ea',
    'u46 skeleton 2': '89f17b951878c42673e715d1c341f64717334b52025344a77067ea18d312a521',
    'u46 skeleton 3': '282a6bea8866c04f949e2d8764916ebe02944a830d5517aa7e389f0e8e3ddb3c',
    'mk4 gen': 'f1d816d53415fa3dd0f3b7add7f3c133cb605268da74d6f7e81039e77c0fb0d9',
    'mk4 check': 'e7f318336d80b7cf8e91fbad5e6c995a6e403522dacb5f309fab036a86822203',
    'mk4 balance': 'ab4c5195647aba353ce888abca04c050564b322036fc35e2162b86f5b03cd8c2',
    'mk4 dot': '0512ae5541e7aebc0c45ee650daeb8e525abc8fde65280b5e4c1f8c884acef03',
    'mk4 quotient': '277b18b6b6377351e7f1e58235f1678aea01a3735d839ccc46064d488fd2defd',
    'mk4 star': 'dc49282dace5fe13d7f4ee16c754f13b5acf0bd6e187d415648b9c6914dbdab5',
    'mk4 skeleton 1': 'c24c8ee609f5f530071ac1c2284fb8219e10bd0aae091ef57284c792867cd2ea',
    'mk4 skeleton 2': 'b01b293dcf21304b4afb861d96ba7d380a62a61bc9e654c386719aff66d40d95',
    'cube3 gen': '5d8ef2c4bcb05da12c2a0cf45c8049f975dccbe9d76501ba39c5cb31b7258d84',
    'cube3 check': '7bf5cf1034bd9e5532efb194b45e4a5e507048918daa5eb74254f12578bdee9b',
    'cube3 balance': 'ca2eb5e82a0dbc93458ba0ae64d9b78d8f240cafe2cab287f0da5aeede0751d6',
    'cube3 dot': '7604810b14a0abcef7b5a21d3ab146bc43e67c1b49a4c37675780dab01272cbd',
    'cube3 quotient': '5d8ef2c4bcb05da12c2a0cf45c8049f975dccbe9d76501ba39c5cb31b7258d84',
    'cube3 star': '578292cefeaa2fb4baa9efcecff6417f7f095d2c72ddee1a6fd5622464e3d04d',
    'cube3 skeleton 0': '609b1cc31d4f0129cfc8e8c0d4e657090e129ac4c66f0875774bc19ed296ce9e',
    'cube3 skeleton 1': 'a6dae6dee715366f1e7085d5bf88dfc6d9b273f49e771cc8224e3467639fdaa8',
    'cube3 skeleton 2': '71809db30cd65f240ba72ebb388ff3ab313a1660db95e1942fd86c1140086d6f',
    'cube3 slice 0': '9516cb42403c63983e8db53f59effbc13e5d48ed4a5699011c4364e7e49a196e',
    'cube3 slice 1': 'e494c97d81f6de37fc117fb6df959d7498f4c4eb133415f4a96d83a0a37c1f18',
    'cube3 slice 2': '71657a0de5044b2d77ec761f90e71028fd8fef9732af1c0535928f86dc41c7bf',
    'hex-hept gen': '292eb4807843636906a6b169f3b567385a72a62b316b02f079bbb0d02c1aba42',
    'hex-hept check': 'b5f554e53b195a8f62421e1c1fdd019774968256f71a8a246cb6d0bf23d9f4d5',
    'hex-hept balance': '9f346ff2d742970af4e1a718a8ea6a3367d34a4f08c5a4695abf5c1b69865e38',
    'hex-hept dot': '6c27b7a0d48d7e7aaf8c022e095218417a6710846499708f78528b21c9a8a072',
    'hex-hept quotient': '292eb4807843636906a6b169f3b567385a72a62b316b02f079bbb0d02c1aba42',
    'hex-hept star': '75ee5eaaf7defe3438ad796ac4e3df0dba7581c6214701f9538b9326cd6d1710',
    'hex-hept skeleton 0': '065b50fba0fbb05a8dd810f5c6708ff0463ba65b28b76790a8b0aeccd2a8aa93',
    'hex-hept skeleton 1': '23a052fa010a163a6c7de3757a66b73efd2430d596708d7229d8321eb4a0d66a',
    'hex-hept skeleton 2': 'd8035ee217e303b985a6405edcba1f5ca20891c69ae145bde088a70344fa384e',
    'hex-hept skeleton 3': 'f3e2c8c44f82a73e55e4ff0be352b0bf3c485bd57102d323ad58ce6b57d415b9',
    'rational check': '4c5b42c2b5556438f84260c956c8d903cdf53372900e85c7404acde0e7bd5bd0',
    'rational balance': '7b476eeb2d716568db2e8c079f2c541baa58a7d28a50c5f2ebce80f566e5975d',
    'rational dot': '99cfafdf8200c5a0a9bfdf94a161d35cdfb21b705a0da2568d5fe7820bdd957f',
    'rational quotient': '4445a1ac24ff480299099eef57b529ff2273affc7adcdb781ba3c213cd8a2155',
    'rational star': '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865',
    'rational skeleton 0': '5010f5dff591dd2be93d2f295d38aa82dafa7316b6911ff5279929066b6e560e',
    'rational skeleton 1': 'bd6b491e80e44e44a6507efbe87aafd40772afb52b3ae986ef67be6e66c6c97a',
    'rational slice 0': '05dfef7ba6fd1cbed8fa80193e3d933310fd252a42d2d854f475e1d615e70076',
    'rational slice 1': '4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865',
    'rational slice 2': '61021f07b7286a17a30486f273ba7a656049159d4a6a0d7f70f8790753b8e36f',
    'disconnected check': '880ef57b8eff8b849a93b6b20f2e4656769a6decf03debc79c2f4df3ca6b93e1',
    'disconnected balance': '450c9432a119fd570405075739525a3501adc5d17bdc11c0ece5091e2d6eec30',
    'disconnected dot': '291628c9efbbeeeb1543e3df22730fb116c147b347a091146b4fc58ba7328b0d',
    'disconnected quotient': '97cd1da68aec8a883ab23cbf92bc1ddebf60a2ae026c6c9c2ef94b9b81c7d72d',
    'disconnected star': '672fd97dad8fb4231935fd494c0791462428dbd8a7edba7222dd154fbcf49fd8',
    'disconnected skeleton 0': '609b1cc31d4f0129cfc8e8c0d4e657090e129ac4c66f0875774bc19ed296ce9e',
    'disconnected skeleton 1': '94848d3d5a61dad60a6fc3b57015fb945e08cdc269c7dac436bb2bdfce96bfb7',
}


@pytest.mark.parametrize("name", list(FANS))
def test_golden_bytes(tmp_path, name):
    got = fan_digests(name, tmp_path)
    want = {key: value for key, value in GOLDEN.items()
            if key.split()[0] == name}
    assert got == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for fan_name in FANS:
            for key, digest in fan_digests(fan_name, Path(tmp)).items():
                sys.stdout.write(f"    {key!r}: {digest!r},\n")
