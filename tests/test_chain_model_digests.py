"""Byte identity of the outputs that read the chain model.

Each entry is the SHA-256 of the stdout of one in-process ``main([...])``
call, recorded at commit fec7f85, before the twin test, the palindromes,
the node polishing and the spectrum assembly all moved onto
``block_decompose`` and before ``SpectrumReport`` derived its degeneracy,
pairing and solvability lines.  Every call exits 0 with empty stderr.  The
evolve and verify runs take the propagator's twin and palindrome paths for
2j = 1 ... 12; the text spectra print the derived lines for 2j = 1 ... 24.
"""

import contextlib
import hashlib
import io

import pytest

from countertwist.cli import main

PRECISIONS = (20, 34)

EVOLVE = {  # evolve --j J --t-max 7/4 --steps 3 --precision P, P = 20, 34
    "1/2": (
        "ee1d86e171c5601f9bfc30f0f732dd1152766da71eaf997272c64c294a76c2d5",
        "43420e08d212eb6c46ee5a445af91f7415fac4a722d9d5885b1306b0c7bd7139",
    ),
    "1": (
        "f105f5b049da37753d4ff588c4d3e25ffbe51c26e4f141a9fca05a0391025fcc",
        "a90e18d3b2249adce8c75f2d039435c1e5330991a143966ca9824f7eb5829172",
    ),
    "3/2": (
        "4b1853454050fc11274d6e33ef65556b57b6300f89563003529649c7c1180be8",
        "c9042db27a0a16b91b667a3d0ecc3e3facd6a26fefd1e4f2914381b650e45a02",
    ),
    "2": (
        "d69b83e7733c8fdd2101ea0e1038b83d8961792fe14ed1c1c0176dc2d9ef1be5",
        "1a41beee4e4179c07f4e79aafccf8c5c19f6f5e603b86cbcc1373a2db95a420b",
    ),
    "5/2": (
        "7e6022193479eb3b439bce57ecfd5e7ba18af24038a14b8c5e10435c5729e8b0",
        "8bfd62ccc359bbfc347cdffc819735615082b628ccb18c2a4d76f44cc5b5d159",
    ),
    "3": (
        "4f2d1e9d70cea526dd8286da58963cfd7c66314280d15cc0bd93e729c1962e1b",
        "7ae03f8b8211e9dfdd2ea3ffbd5aaa2bd6cc7a41b0cfaff350d9bc3520fa7ab1",
    ),
    "7/2": (
        "62ce2b19a9ed263aa3e78595af3801b2205721bf9b37d3b35545668f1be10f74",
        "b0f0cb32fb36ec4188beb052b6ee155f8e971a01e4b80adafe77f29fbb135ee8",
    ),
    "4": (
        "77299c7d3ee81ca80fc0c6a60037da40a0ee469fa357f9a0ff748fa06a54bd29",
        "df1ce074a3bda7b18750199cdcb3f0f156f8638226390b67c9d254f0f02e377e",
    ),
    "9/2": (
        "04cbecd2312986bedce727c15c32d9e9f0e8a15c15a35bf11c51a638b5cbaf4f",
        "cc0e5e8bd560951eb05dd617fe2a091703e577b0d2ebcd9fb8f00a7d5aeb875c",
    ),
    "5": (
        "01d95989cf24ba09f11a12f30e3e2ffb489ab5503117b4e9a3ddcbbf29ca606f",
        "b1c10a1a7bf6217f64068bf05602b5155b7687749ccbe2e1ad96c1393e1ef004",
    ),
    "11/2": (
        "9d4813179c85c72f383e2b7999438aa959671f677e08e95331576e40759acd47",
        "ab17ab93ce06db4f55941e663943c941354e55527a1bd9009c52f5db004166c1",
    ),
    "6": (
        "1496af001b7d29c1dfe1911a39c1f9073f564a20111805189792ef46586870d8",
        "fa488d7e785e0cd67f37a7758ba99483ad4fa539b0768819664a40b623109e41",
    ),
}

VERIFY = {  # verify --j J --chi=-2/3 --precision P, P = 20, 34
    "1/2": (
        "337b58c7c2fda48bb8da0c7b59c25ec1206b9e9bc0293f7db3d9ee5ba17f2ab2",
        "9efd41ed72594e46a93a4fa30d98f463a001fca539ab33120f8f101bdd775ade",
    ),
    "1": (
        "0ed6c3670140a8e5d69272e07b7961891e081d34cf1632780f52f12bd458aca5",
        "e744f5065e43d82e86b91b5bfa62328a8235210445d5ab83228f72db70ba511e",
    ),
    "3/2": (
        "04039e266a8e66d231a3156280eb1ab8c374b7e89cfdbac26bfa99cdff991c52",
        "e19751424120ef8d0c15e810be0bee04bc8a7d52655b8b719f44f510b67d730d",
    ),
    "2": (
        "fc6017dd4acdda23d2dc97baba85ad2e849e2453887deeb8bd344999188455f0",
        "e40c69ee1a91b1b761b6e105f60759f8638beb2e625493640fd0ff13e54a8e7d",
    ),
    "5/2": (
        "fd4ac68211ddac32f7a9f6e3a52805ac95cd1a4506cb5562bcb7444a4d43d13e",
        "0f931b45edaf10023f60220c75a6dfdf5bc02b89d0bed7ba5c2de839f57d1615",
    ),
    "3": (
        "f7ebb5c5220aa4b5a31d696ae073e3bcd0b9ca989a1dc084d1f4a933ea025bf6",
        "9f84c732545e12ebebced682b306a6430af7c567c067aafce1d9572be583dbaf",
    ),
    "7/2": (
        "5be238b5af933bafc40ba73f6ac97adf0671696cdd05efd7b836b548f44ec602",
        "37007b3b7ed6b583954766a3666538a5e07d8ddb4a23b347cc3e1f1b18d5c9c7",
    ),
    "4": (
        "107e3488a364d1561d5011ff0e28cec8e0923374d8089bccf8b8e201a951ab96",
        "c420c96bf6477b63fd3410190826c225248b7d18416f35c62b7a27d38e188edd",
    ),
    "9/2": (
        "4f090f995bd05137bd557267fe80b9c42847e6b868e2fcb8013cd673db1a6b7e",
        "aa86572fa862a3ef1ffebcc5443eeef8cef5d93290642457ddb3e47a22199f0c",
    ),
    "5": (
        "4ec27612196d9298ae7879d1a43d8c83a6b1d9eebb4a4a0d43d836ed415d2b46",
        "6a0cce7c5f5748879a1e5498f84fdf4e727fd8be4244c1a9d132a8f843e1ed32",
    ),
    "11/2": (
        "1cac13255ac9296abea3de6ad4119d9ee197e468a81075867d2fa250213bac65",
        "011538a34d7ecd26ff16a88cb9bd3c89bafa745029871277636d133f20e768fb",
    ),
    "6": (
        "a04c1b2c681ef13bf6a833745992adfec4959d74e582ba99593fdc34207b61dc",
        "fa09b4a1bbac53c06e960c63f3202a5ee3802e0cfb9f612fb776fefc90d1c39f",
    ),
}

SPECTRUM_TEXT = {  # spectrum --j J --format text --precision 34
    "1/2": "83a3ce3602e68527265cde019f839df00f38c0353945951b016d779c8e865304",
    "1": "c4e2c23a5c23441776293eabd8fc0aa17ffa810785fc420b9bbfb88ac99e1b06",
    "3/2": "74bde3d16af83c7736e4db4f165c6f754aa1fc4a8d8aa82bfdcc6f8f31bad4d0",
    "2": "b798d57d71907154a41e53522ebddd6de8851ce5da61af6e57f30e54a59727a4",
    "5/2": "b0518a97dbe831f50670dfe08296e88b965451c1721df7ea5d683ca8a909dc6e",
    "3": "fe427a1b048e39090027855587cd928558ef055063092c5f0ca29e4e05eb25f3",
    "7/2": "1cb435d8a6a9c3073e4ceaa6e43b344cf4b08cd64f849a8977aa6386fabe13a7",
    "4": "35c6d128ac23bc800a8060a695eb7753cf7ec94f4e0a3ad0981dee18c0e67044",
    "9/2": "e1d27569b14bcdba6708cbdb48cc985f3b1492b107f601af9a7a5949c5d4ad0b",
    "5": "bf85d8ba35e369c7c5247ba1efeb2af5b9a96ae5ff4c4e2642e56a955cc412bd",
    "11/2": "e38c41bff178e5b412a392fd9222bbfad7e7352b7193179964436f70ee91de62",
    "6": "92216cc60f22fb8229f3f3a55076ac3fe5820d8f656c330e61b9e98dd69e6ccc",
    "13/2": "17b91f3d547dacaf797166f8c5a0bdcf2562678a9d5e242ff0d3e4b909c9163f",
    "7": "6840e03503077f8e7d6802b26689df7aabaaa7d675118a9e48e2661813ea296b",
    "15/2": "44434ef99703ad8cae4afb9dd7c61271021bd97a9783cae43c3ba5b84534585a",
    "8": "387d8612bcf6636bf7ed6b0f643793eae04a56c104d79d0175513b21c6f13c8a",
    "17/2": "f625681079511a99858da2b333689d5d0c9046673e37061c8438933b04e44415",
    "9": "87188214c0c7983d0519ba25f759f52e84bca97c2ed771552a19be9d08ba0a5e",
    "19/2": "21c5ab333cfe45d60886c67ddb684d994df6fe507a00769f1482909013f5b987",
    "10": "533d479d64cbe05d196d78ef871a81048f9fdd8e6ec62c873b1ba1e9b69d5141",
    "21/2": "8fd5ca1bfa40d0d355b80198d33dac87ac1cbf7e8fadf21291beb70763d14702",
    "11": "e09375fb26b79e6fe307456f4a9eb5344e7dd705103ab085fb2b561f39ca6f13",
    "23/2": "836d77d785aa5defd62017e263984ce8d5ef36610169551e4a86c0db961ea771",
    "12": "ed6c875665d043698314d1e1230670c31ebe456c9ccfdaea49cb9363d3b5a98d",
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest(), err.getvalue()


CASES = [
    (("evolve", "--j", j, "--t-max", "7/4", "--steps", "3", "--precision", str(p)), digest)
    for j, digests in EVOLVE.items()
    for p, digest in zip(PRECISIONS, digests)
] + [
    (("verify", "--j", j, "--chi=-2/3", "--precision", str(p)), digest)
    for j, digests in VERIFY.items()
    for p, digest in zip(PRECISIONS, digests)
] + [
    (("spectrum", "--j", j, "--format", "text", "--precision", "34"), digest)
    for j, digest in SPECTRUM_TEXT.items()
]


@pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(argv) for argv, _ in CASES])
def test_stdout_bytes_unchanged(argv, digest):
    assert _run(argv) == (0, digest, "")
