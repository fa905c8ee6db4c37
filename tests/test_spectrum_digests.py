"""Byte identity of ``spectrum --format json`` across the closed-form and
numeric routes.

Each entry is the SHA-256 of the stdout of ``spectrum --j J --precision P
--format json`` for P = 20, 34 and 50, recorded at commit 0391d8b, when
every Cardano and Ferrari solver still computed its roots' values by a
hand-written copy of their expression trees.  The spins cover every radical
spin (2j = 2 ... 17) and a few numeric ones (2j = 18, 21, 22, 33, 41, 60),
so the radical trees, their values and the Sturm route are pinned together.
"""

import contextlib
import hashlib
import io

import pytest

from countertwist.cli import main

PRECISIONS = (20, 34, 50)

DIGESTS = {
    "1": (
        "b6880deaa61401e105e490ba2cd04474e6b7d245483e4ae8b4989f63041d824b",
        "9db6aaf8357b667c66ab7dbfe2e81432a23482d67a0dcd88acdb1a8885b0b59e",
        "e9d2cdd10a4c25994d8ddb2ae110fd58ef1cc8aaf0ff3be7a5d9e9e63de635be",
    ),
    "3/2": (
        "c152725fad8093caae3e532748a5b4526042c1f5b99793288fcc2c64d09dd54e",
        "5e43def71e1bb51ed2a31e6a386fc16477cd5379825b6dc944b8b0d3bbed4cf8",
        "417b0e2fe97551c5e56d10a841627bf525dfae6d44a1a47b2e8d0ff381e60894",
    ),
    "2": (
        "c84197b7abe4645d8edccac474eb736bb2c44590091f6643c033ab20ab67d0db",
        "3cd100b557f6c5beb088dc2b494e2486419336f9593a30fe484fc901f82ca4dd",
        "1caf798c3bad1fef37cb0f4cddd68d11fe8303ed013d4e816aa74cdc247979d2",
    ),
    "5/2": (
        "699315f8936afaa9b34dbf61726ac91840ddcd2aec3879b829ea40a81cd3f56c",
        "30b8dd4ad05322a5965dc5503b33d2a9a00a6996c502d59889b77a7748550e03",
        "0e42ce3c81b3518ee67f96f5d8d33502c4506fb9d19ff128ae61802ba250d9fa",
    ),
    "3": (
        "081c59df5af7f1e31ec013a1d0cff32ba26e020a56b329c6b5e258a53917c451",
        "2b80f691397dcdc27cc56c3339d33f7a24969fd99ff4dc03b69ad0fb4d63e3c2",
        "af2ee42cf120a5cf973f5bd48c9a0716056e8b92773b8c8e7d03baef681239f8",
    ),
    "7/2": (
        "6acd96dd8f3e79e00e98c8ea9766043b767c3a0227a8d01726920e5fc5ce4279",
        "9bcaa02968933489859b2e4ba4a6052d0bce072003333310e0f3facf6a375d54",
        "aec46ff310134e3296c391e547c44cef5cc983ecd6e58f15091531a3f5151a3f",
    ),
    "4": (
        "d687a861e43b3a2b25349c94fe0a545adf919b16c507a1acf1a64c6fcacdb062",
        "8bccf091679f5c02673de07aa4045528143cd5158ae22a7d1bf50e4c48dfbac9",
        "89164587957280809e5fbcb22a17df5a3cc3f10a9d1883c4ef88776e90f2009d",
    ),
    "9/2": (
        "7915e4a47a0c78b9b3485586980ec09f5aad1a0333859d0d8c8a891f191c4f51",
        "f5f0a256c3645ca8113d94db80413723a7887e896973aab1556b62e43d16f8c0",
        "c9c8cc0449a65cb2994d51ec02e0adc3da5d82cb230075e48ea766461b53a911",
    ),
    "5": (
        "2306c1668def6d5e7a2163569116f7d88b12d8e4fef624d662f5731bacb93440",
        "4229df05c093f1d7a709e620fabb1367a76c63fa7671942199f436c9ff0b702a",
        "66647764170eefd2cf12874171f668c0e0902edcec97d33bab16c2c442f9b431",
    ),
    "11/2": (
        "5b88f40270d692d1806b584f6c978abf1842499f29a0cf96e06e6df3332662d3",
        "0bffafe577e1c755851438260282628094ade6e9e14759f84dbcc68ac1d9d34b",
        "d3ba02821aec72bb0ee765dfc72cc007909b373df3e767b77615744af3cd9c01",
    ),
    "6": (
        "b63c1fbdfba0bc4ce5a8b680315195af99ab36b48a7b66fbe09568e7f55bec19",
        "007d5cf00362f1be3b69d8e0fa4a59e744003ddf4d8333eeda086b68246c35ab",
        "d9c648c94884e68eed34eecc0bbd4c3347b73949166f25424ec0737f79298f10",
    ),
    "13/2": (
        "56c84b3805f3ba7f6640032c6ec66f3818e0c751e9c8abe4c6dc5b91183121fb",
        "17844a02749053360509f10facfb1a093d0311d9ec7c096db548ffdd579831d7",
        "a2e152430b834a03a7b33b02e1539caafd1817cc254cf6a6542e2a224dcdc7df",
    ),
    "7": (
        "0d590bfeb61c7511210f699cdeb679cc9377f5c764a9919de539ba1c29fc50a7",
        "8d3261bbacb4f5f48813ae8a2aa2c24f22e432e25013b00f1c5c7fa2f44153d7",
        "ff9d6dee02c1b7b67eac84395ce5acd3927b62929a9631e4874591856558c306",
    ),
    "15/2": (
        "5dc2c77449eaf681b6c62768997b06a3c3de36bb584b66324c942de61a687b99",
        "fded0bf474ca1c3a9ec18bc35940ca2940a597ff7283d4d8253a0983a8a0ea12",
        "272b3b79625e221222eeb27f43437393f07b5622ad5fa270d7a74d83b301cf5a",
    ),
    "8": (
        "8d10638e50d2b4bf75d571a41139ddd4830062985348e251f0681989c4474286",
        "f763e02374222b8c328e3d0ff816c4f8a01f1a2fc97ee9dd159a0535fbc6142f",
        "cb5b612b3603154f5f83275535453a6203ed1f075aaeb45eb22a7a20a3de1784",
    ),
    "17/2": (
        "ddaf98146018f43f845e57963509357c2f38a6432459c34663ba0fb16acc4d10",
        "7978c0bdf3ae674d7a5be32421761caa79e1096721923de57a2c407a8afa7d94",
        "56aa3bef69b6b79a33f5812c38c35b8a6429479d3dab2bcfb86217a93966551c",
    ),
    "9": (
        "b3b95b877abed8d63344b1d7c341a8b2cb8c0f3fd486c3ada2cf9ac2a1392577",
        "06a03e6c7b52bc9252b106b993f3054e1dadd46dd0dfecdd94b4771860c86115",
        "866c6f5340a5053ea9ef2cc4d6e8db5dfc874ed0ce39287f4000da277529d35b",
    ),
    "21/2": (
        "087c81d18516519a11ee0f37828acb4876d0fb4af7dcd0364ef0b5a42ba180ed",
        "642a0c16a73b5414e5152173bb6f143828eca14cebcfde3993fff0c9ea90b9f4",
        "3367503e523515bf078729260d949a6d91757491b4414dc44d9b4645d4cd7407",
    ),
    "11": (
        "49f35ae9cb57dfc819e4088dedd01ebc0305199de57d6a54fdf9c04278a2abdc",
        "bd294a52c8bcef88bdd0aab3810c4647d486d08b10c7db62ecaa1259a16bedcf",
        "de505e72e2c31c3ed5a1c0fd28831a0823f2c2e567cb8c66545aa20f69628c91",
    ),
    "33/2": (
        "e2c73afb77f5887bde666a4ac0889c7b1eef606ea22696357de97cf5f1787d77",
        "4ab018adc13268e82b698f406ac9451c381e535d7161741e24c46ac750af8ea8",
        "7b8cf9e7d248d953fc1db71e07e8acaa945418c43e78b5ba009d05bb45d2fabe",
    ),
    "41/2": (
        "01bb83fab244d55b1c76cf24f7c4262c7e99c96404b489178e00c4ff1557d8ef",
        "9914f76713cf55e354980c2aa637b52e9bd0f5e7472ccb2b2931537be732d1f2",
        "dee0f7a66ade4eb73fc58054c283ab2a24b87767413f6f87cdb1bac5967cb082",
    ),
    "30": (
        "e304f120943b0f5ea9bd24814a9081d7fd22a9ad86a1d3a64a26e04001c0f3a0",
        "b65db159ca61c1daf7f8b118f7a42fe4a45976b6c0038d3ec5a5ae332407a7b8",
        "fd69b5bfb5fdab91bf4f572651c90bcc7018bc22eb6bbbc49c058fd87dfa1af5",
    ),
}


@pytest.mark.parametrize("j", DIGESTS)
def test_spectrum_json_bytes_unchanged(j):
    for precision, digest in zip(PRECISIONS, DIGESTS[j]):
        buffer = io.StringIO()
        argv = ["spectrum", "--j", j, "--precision", str(precision), "--format", "json"]
        with contextlib.redirect_stdout(buffer):
            assert main(argv) == 0
        assert hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest() == digest, (
            precision
        )
