"""The compiled backend's generated source, pinned design by design.

Each case is one design of ``tests/test_opt_oracle.py`` (the extended
catalog, soc2-soc5 and RTL-fuzz seeds 0-13), plain or scan-instrumented,
unfused or fused by :func:`repro.opt.run_opt`: 108 cases. A case's
digest covers three texts: the plain tier's ``generate()``, and the fast
tier's ``generate()`` and ``generate_axi()`` from one generator, as
:class:`~repro.sim.compiler.CompiledSimulation` calls them. Before
hashing, comment-only lines are dropped and each run of consecutive
``<temp> = None`` commit sentinels is sorted, so a refactor of the code
generator may move comments and sentinels but no generated statement.

A deliberate change to the generated code re-pins with
``PYTHONPATH=src:. python tests/test_codegen_pin.py``, which prints the
table.
"""

import hashlib
import re

import pytest

from repro.opt import run_opt
from repro.sim.compiler import _CodeGen
from tests.test_opt_oracle import NAMES, _build

VARIANTS = ("plain", "scan")
FUSIONS = ("unfused", "fused")

PINNED = {
    "gpio/plain/unfused": "c28aa3e645ea71843934052303b65bfd",
    "gpio/plain/fused": "aca5a3d68b4e903ea9358d3afe5ca261",
    "gpio/scan/unfused": "744cdb8a91eaef8c0c78bd75e666253c",
    "gpio/scan/fused": "ef551e9b5e50ec44ecca2c9d72e9c0fb",
    "gpio_wb/plain/unfused": "3efe2cca3ed727840e27c05db73d8d5c",
    "gpio_wb/plain/fused": "78a9c89f57844b78bae61178aa8bca90",
    "gpio_wb/scan/unfused": "7efb5ebe1f195f1999eb13c46473305c",
    "gpio_wb/scan/fused": "459c3ad788a34c9b71066bc163d14baa",
    "timer/plain/unfused": "e126ff93af7b2ca07eb1429226024d76",
    "timer/plain/fused": "40a427d708ac2f1ca6c12227b8952b8c",
    "timer/scan/unfused": "2b9f080a362f1fb328d232ef14f5d533",
    "timer/scan/fused": "6b715b51589e8af72e256cb3c6a45cac",
    "uart/plain/unfused": "914209cd8b13fa33bd3dcaa86c9fd006",
    "uart/plain/fused": "914209cd8b13fa33bd3dcaa86c9fd006",
    "uart/scan/unfused": "33c5c444e770204f6ef5f71953391311",
    "uart/scan/fused": "ff2f9639a64055ce88f6c07c7bc03805",
    "aes128/plain/unfused": "d1bd82d0baad212af846eb8b996150e0",
    "aes128/plain/fused": "94d9d6d74a2b9f509f7df70fdc5ce216",
    "aes128/scan/unfused": "1d19cc2f4232ac7fd863c8339f91b558",
    "aes128/scan/fused": "aa784639566d52b9fe8dc69022cf0c50",
    "sha256/plain/unfused": "b79454019be02a67b22c0fd078724ef0",
    "sha256/plain/fused": "d8750c7057017a77885bdb69d6a4c02d",
    "sha256/scan/unfused": "b90b69f692df11688d5e29bda94246ab",
    "sha256/scan/fused": "7d7e584656308f7b42db1b62af1d6a5f",
    "intc/plain/unfused": "33926798ab085a18332fd0911dfb09da",
    "intc/plain/fused": "33926798ab085a18332fd0911dfb09da",
    "intc/scan/unfused": "754a0463cd47ba957fe38a6080e6a87a",
    "intc/scan/fused": "754a0463cd47ba957fe38a6080e6a87a",
    "dma/plain/unfused": "e209ac38cd6ad71f886d53b6743ff7ff",
    "dma/plain/fused": "e209ac38cd6ad71f886d53b6743ff7ff",
    "dma/scan/unfused": "e8c603e23bdd42a9ba31c66102502675",
    "dma/scan/fused": "b03602717708a999938c613cd714ea22",
    "wdt/plain/unfused": "59b49d3d26f17ba12dcf9ab82ca96ad1",
    "wdt/plain/fused": "90f8c2831f2860c228a0b4c160197d28",
    "wdt/scan/unfused": "0b2814ad0afb411c8fa80ad8ad2e1d18",
    "wdt/scan/fused": "f986c98aa772c9eb015f81767f806f1a",
    "soc2/plain/unfused": "be0f443e9d22ef98638db01e60dd5697",
    "soc2/plain/fused": "f4379f855ed6417e5302248a4264cbc4",
    "soc2/scan/unfused": "2e4bc39ca62ad3f6b5d6f6216300d134",
    "soc2/scan/fused": "e09e1a76837f86dc12964385569ad677",
    "soc3/plain/unfused": "ce0bcbb3ea17638cb09960bbd7ae9f45",
    "soc3/plain/fused": "53600c00713df2e16e4c5fadc6acafb5",
    "soc3/scan/unfused": "fa2133955562f69db9ce63b06e8dcf43",
    "soc3/scan/fused": "4b55f97652a02ebbf7d931b17960acf2",
    "soc4/plain/unfused": "53535bd69e40b78b83b6b2f36c475a31",
    "soc4/plain/fused": "81d70489c0f026bda97236e22f7e75ed",
    "soc4/scan/unfused": "9389a0fc3980b0620ec488703d5c860f",
    "soc4/scan/fused": "94a1aa275dd463244b829f9f07b37e0d",
    "soc5/plain/unfused": "1742193330212d333f0ac9b81b1ac420",
    "soc5/plain/fused": "bcea69922caba5bed7659893dec12f13",
    "soc5/scan/unfused": "0238520a72913ff0e5c2f1af14ca526d",
    "soc5/scan/fused": "81cd976db7434c4b83ec8f84d5084a28",
    "fuzz0/plain/unfused": "baeabbb623812e05d2d918801f9b81c1",
    "fuzz0/plain/fused": "94df5fd70f8fa0c2086de2ca159f8da2",
    "fuzz0/scan/unfused": "957a8a8ae6c4cc34c6fa152af01b0516",
    "fuzz0/scan/fused": "11cfac8b8d3e28fff412aa6ce988dd68",
    "fuzz1/plain/unfused": "5067358d8b38ed07514762b46ecf265d",
    "fuzz1/plain/fused": "5e3e51f593af94791a6bdd2e7a167559",
    "fuzz1/scan/unfused": "345bed19d5fb2a0e14ee18b06ad651fd",
    "fuzz1/scan/fused": "d4c89e35bbf24e511af9b4b3e91736e4",
    "fuzz2/plain/unfused": "4cac5c715598cb8726ead0e2329d8983",
    "fuzz2/plain/fused": "4ee1e6cdba76fb78e8c295884bf22c62",
    "fuzz2/scan/unfused": "c9db5cc326f4eb4de44805cf3880594e",
    "fuzz2/scan/fused": "2d0e8a124934a515da5938168def07c0",
    "fuzz3/plain/unfused": "dd6c4eeb6f3c41a17c4ffcafaeb50823",
    "fuzz3/plain/fused": "8ca2f604f430f25bb58a237086985074",
    "fuzz3/scan/unfused": "97fcfe44e55663035de6bf563578b5fa",
    "fuzz3/scan/fused": "d63d17858c71ee90141c38e717e96faa",
    "fuzz4/plain/unfused": "7f75d27f35175834b017844837b7bf3b",
    "fuzz4/plain/fused": "7f75d27f35175834b017844837b7bf3b",
    "fuzz4/scan/unfused": "8f1cc357947b82d0c6c379cbda0a130e",
    "fuzz4/scan/fused": "e3f74dc376a358e3893b971d1da60129",
    "fuzz5/plain/unfused": "99d410e2534b4e49896b21d6ce6a949f",
    "fuzz5/plain/fused": "8f9bd4d238c1e086c72b9726774d3032",
    "fuzz5/scan/unfused": "9c03ac7547c726e073220d6c950a7127",
    "fuzz5/scan/fused": "32151f4d8faa2a8ce7e15347570b26b3",
    "fuzz6/plain/unfused": "9a3e64fa3984d17bdfa47bc54ed6a7f5",
    "fuzz6/plain/fused": "13d9c6be4d4a2ad443728e1285c98700",
    "fuzz6/scan/unfused": "f77be6b5eeb6579d797910f851e5f8fe",
    "fuzz6/scan/fused": "14037288c5ac59a761641297d2c32153",
    "fuzz7/plain/unfused": "245262a2350e0382e26e29c520e5a4bd",
    "fuzz7/plain/fused": "6d2098e9f3349878b9b1282f818561fc",
    "fuzz7/scan/unfused": "0fcaf1d4c2b21f4b9d0b2eef3fc735f5",
    "fuzz7/scan/fused": "e7eb65dfec7610d9364aca977cab7656",
    "fuzz8/plain/unfused": "18d98ed1f93dae039f604dc66bd2e556",
    "fuzz8/plain/fused": "18d98ed1f93dae039f604dc66bd2e556",
    "fuzz8/scan/unfused": "9ede71ee4c9560172725aac5d23e86a4",
    "fuzz8/scan/fused": "15072732906fc49e51f4113797009987",
    "fuzz9/plain/unfused": "a73344af9f4fdf8bae549fbf62ff6c85",
    "fuzz9/plain/fused": "7959c0f870112ed70a97469ec7fb076c",
    "fuzz9/scan/unfused": "0545c15cc2f0104fa206c6ae682e5ceb",
    "fuzz9/scan/fused": "ad7f52484a1fad79ffc2977a2b423ec1",
    "fuzz10/plain/unfused": "57176ba072e974e00cc6d71748e3c0b8",
    "fuzz10/plain/fused": "57176ba072e974e00cc6d71748e3c0b8",
    "fuzz10/scan/unfused": "b47cab5fe319cf53b915ea9e635cb7ef",
    "fuzz10/scan/fused": "b47cab5fe319cf53b915ea9e635cb7ef",
    "fuzz11/plain/unfused": "80156ddd5370ebfa4977278df422b90b",
    "fuzz11/plain/fused": "d9d959379858bc7da6f81469f5e48010",
    "fuzz11/scan/unfused": "dddcf256b28116b29d223daeaa180fe7",
    "fuzz11/scan/fused": "79bd75270ddd5a601881297b34e892e0",
    "fuzz12/plain/unfused": "a3bc363419e3ebe77aa8fb0d294b4fca",
    "fuzz12/plain/fused": "6f7ef16a09bc7d642eea96ee7e75427e",
    "fuzz12/scan/unfused": "b88eec8e8e7bc4ac2b52f16eda6747b4",
    "fuzz12/scan/fused": "fce7281944b7653e9e4ad830dca1e4ce",
    "fuzz13/plain/unfused": "856eb7c63caced08df28138993ee4b4d",
    "fuzz13/plain/fused": "856eb7c63caced08df28138993ee4b4d",
    "fuzz13/scan/unfused": "2f39af5c3ebfd3e9e44031ae71ba01b7",
    "fuzz13/scan/fused": "2f39af5c3ebfd3e9e44031ae71ba01b7",
}

_SENTINEL = re.compile(r" *_[a-z]+\d+ = None")


def _normalise(source):
    """*source* without comment-only lines, sentinel runs sorted."""
    lines, run = [], []
    for line in source.splitlines():
        if line.lstrip().startswith("#"):
            continue
        if _SENTINEL.fullmatch(line):
            run.append(line)
            continue
        lines.extend(sorted(run))
        run = []
        lines.append(line)
    lines.extend(sorted(run))
    return "\n".join(lines)


def _digest(case):
    name, variant, fusion = case.split("/")
    design = _build(name, variant)
    if fusion == "fused":
        design = run_opt(design).design
    fast = _CodeGen(design, "clk", fast=True)
    texts = (_CodeGen(design, "clk").generate(), fast.generate(),
             fast.generate_axi())
    digest = hashlib.blake2b(digest_size=16)
    for text in texts:
        digest.update(b"\0" + _normalise(str(text)).encode("utf-8"))
    return digest.hexdigest()


CASES = [f"{name}/{variant}/{fusion}" for name in NAMES
         for variant in VARIANTS for fusion in FUSIONS]


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_generated_code_is_pinned(case):
    assert _digest(case) == PINNED[case]


if __name__ == "__main__":
    for case in CASES:
        print(f'    "{case}": "{_digest(case)}",')
