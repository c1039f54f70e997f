"""Every digest the tests pin, each defined once.

A pin is a sha256: of the file that a `stab3` command writes with
`--output FILE` (`file_digest`), or of an object's canonical JSON, sorted
keys and no spaces (`digest`).  A `verify` report is pinned twice: as a
whole file, and record by record, so a report that moved names the suites
that moved (`mismatch`).

    PYTHONPATH=src python tests/pins.py                  # re-record
    python tests/pins.py FILE COMMAND...                 # check FILE
    PYTHONPATH=src python tests/pins.py --brackets       # check the brackets

Re-recording runs every pinned command and computation on the current code
and prints the tables below in this file's layout, to paste over them; what
moved goes to stderr, one line per command, and a change that moves a
certificate on purpose lists those suites in CHANGES.md.  The second form
checks FILE, written by `stab3 COMMAND --output FILE`, prints `FILE: OK` or
what moved, and exits 1 if something did.  The third recomputes the p-fold
brackets of `BRACKET_SHA256` in this process (`verify` runs the bracket at
p = 5 only), prints `brackets: OK` or the (p, k) that moved, and exits 1 if
one did.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path


def digest(obj):
    """sha256 of obj's canonical JSON: sorted keys, no spaces, repr for the
    values JSON has no form for."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def suite_digests(path):
    """{suite: digest(record)} of the `verify` report at path, in report order."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    return {rec["name"]: digest(rec) for rec in report["checks"]}


def verify_prime(command):
    """p for the command `verify --prime p`, else None."""
    head, _, p = command.rpartition(" ")
    return int(p) if head == "verify --prime" else None


def suite_pins(p):
    """{suite: pinned digest(record)} of `verify --prime p`."""
    return {name: pin if isinstance(pin, str) else pin.get(p)
            for name, pin in SUITE_SHA256.items()}


def mismatch(command, path):
    """None if the file that `stab3 COMMAND --output FILE` wrote to path
    matches its pins, else a message that names what moved."""
    p = verify_prime(command)
    if p is not None:
        pinned, got = suite_pins(p), suite_digests(path)
        moved = [name for name in {**pinned, **got} if pinned.get(name) != got.get(name)]
        if moved:
            return f"stab3 {command}: suite records moved: {', '.join(moved)}"
    if file_digest(path) == FILE_SHA256[command]:
        return None
    if p is None:
        return f"stab3 {command}: the file moved"
    return (f"stab3 {command}: the file moved but no suite record did, "
            "so `meta`, the suite order or the formatting changed")


def run(command, path):
    """Run `stab3 COMMAND --output path` in this process."""
    from stab3.cli import main

    code = main([*command.split(), "--output", str(path)])
    if code:
        raise RuntimeError(f"stab3 {command} exited {code}")


def exterior_record(p):
    """The exterior engine's tables at p: dimensions, Euler characteristics,
    duality, and the product rows for t = 1..p."""
    from stab3.cohomology import ExteriorCohomology
    from stab3.greek import classify_products
    from stab3.named import NamedClasses

    e = ExteriorCohomology(p)
    return [e.dims_table(), e.euler_report(), e.duality_report(),
            classify_products(p, range(1, p + 1), nc=NamedClasses(e))]


def brackets():
    """{(p, k): digest of the bracket} for the (p, k) of `BRACKET_SHA256`,
    one `CobarEngine(p, weight_bound=p)` per p."""
    from stab3.hopf_cobar import CobarEngine, p_fold_massey_check

    engines = {p: CobarEngine(p, weight_bound=p) for p, _ in BRACKET_SHA256}
    return {(p, k): digest(p_fold_massey_check(p, k, engines[p])) for p, k in BRACKET_SHA256}


def record():
    """The four tables below, recomputed on the current code; prints to
    stderr what moved in each pinned file."""
    files, suites = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out"
        for command in FILE_SHA256:
            run(command, path)
            files[command] = file_digest(path)
            p = verify_prime(command)
            if p is not None:
                suites[p] = suite_digests(path)
            print(f"{command}: {mismatch(command, path) or 'unchanged'}", file=sys.stderr)
    return files, suites, brackets(), digest(exterior_record(31))


def render(files, suites, brackets, exterior_p31):
    """The source text of the four tables below; `suites` is {p: {suite:
    digest}}, and a suite with one digest at every p gets it unkeyed."""
    lines = ["#: sha256 of the file that `stab3 COMMAND` writes with `--output FILE`",
             "FILE_SHA256 = {"]
    for command, sha in files.items():
        lines += [f'    "{command}":', f'        "{sha}",']
    lines += ["}", "",
              "#: digest(record) of each suite record of `verify --prime p`, by p; one",
              "#: digest alone is the record's at every pinned p",
              "SUITE_SHA256 = {"]
    for name in {name: None for table in suites.values() for name in table}:
        by_p = {p: table[name] for p, table in suites.items() if name in table}
        if len(by_p) == len(suites) and len(set(by_p.values())) == 1:
            lines.append(f'    "{name}": "{by_p.popitem()[1]}",')
        else:
            lines += [f'    "{name}": {{', *(f'        {p}: "{sha}",' for p, sha in by_p.items()),
                      "    },"]
    lines += ["}", "",
              "#: digest(p_fold_massey_check(p, k, CobarEngine(p, weight_bound=p))), by (p, k)",
              "BRACKET_SHA256 = {"]
    lines += [f'    ({p}, {k}): "{sha}",' for (p, k), sha in brackets.items()]
    lines += ["}", "",
              "#: digest(exterior_record(31))",
              f'EXTERIOR_P31_SHA256 = "{exterior_p31}"']
    return "\n".join(lines) + "\n"


# -- the pins: `python tests/pins.py` prints this part -------------------------

#: sha256 of the file that `stab3 COMMAND` writes with `--output FILE`
FILE_SHA256 = {
    "verify --prime 7":
        "c83492158915d1d7c171d92057becf5a12f45fc00803bdefbfa01b9efc78bce7",
    "verify --prime 11":
        "8b82130c9965ac23b2052d8f301fa6d260c107a98ee697473b8b228cb772914b",
    "verify --prime 13":
        "cad6bd90e0cc97777be75a8758dead5fbe3224c4f5028b2ac8418c3e40dc9c2b",
    "verify --prime 17":
        "c474d317c2cc00eac913ee4e4af8190ceae4528f8534344cf0362b27744b69ab",
    "verify --prime 19":
        "24c27ce954a7a3da25f0a9156df633743f6d7ce86ee6e093270ff491fd6de7d3",
    "verify --prime 23":
        "bb216176ace793f5527b81c1c8af11f7e19dd38124d32692c513d4ca03d3912b",
    "table --model cobar --format json --prime 5 --may-bound 3 --max-s 2":
        "f2850a2bbf366fd0b25515ba654eb5e13d7e3c72942302ffcba1da2d6a76634f",
    "table --model cobar --format json --prime 7 --may-bound 6 --max-s 2":
        "bcc961d94aa97ce9e0593f999d26b8adaa4330d46730d79687027aed5d4551a6",
    "table --model cobar --format json --prime 11":
        "3e9ee75c2369b01fd97d099e9b12a09c60b73a6a7e2098cc5b4ae35a282d12e3",
    "table --model cobar --format json --prime 13 --may-bound 5":
        "a6ac76962505f1d8d98f8fa2a6779076fbb1347d6953daa9c17f799aeae6cb6a",
    "table --prime 7 --format json":
        "b16d03bea9c9e343bde0a88b2e00f3f20b08c35cc3bbb8d1ec8956e10f080753",
    "greek --prime 7 --format json":
        "066b009fd61db6cdda55ef9936620ce1883b9e7858bd58acf5a5699bbe92d6ae",
}

#: digest(record) of each suite record of `verify --prime p`, by p; one
#: digest alone is the record's at every pinned p
SUITE_SHA256 = {
    "exterior-dga": "2a968b08f2684bc421284ed71ebef0ae3e27981f67b07250db87369a43a045ec",
    "generator-classes": {
        7: "484e6c35afca4edd27679b18e819557ed0790d2b4d192da119a1386778db5c97",
        11: "5a674dd86cf4329e9ed4bbeda6415d598d23771c8f072b2e1a94f6647848ecfe",
        13: "bca249046fae2ba290e6ee5b919dc78d577bb38e9c6e37dc0df4f3bf0bae445e",
        17: "a862f4ba3c5adc915516dce1fe427a397183c8d750b177efdc224f2637e740b3",
        19: "350214f0b7d71180c2eeb4579193cf35f4ca641fca2a91f98a3b4cc9cc4e88bf",
        23: "b01344201f3aee29f7d85b45e9bdcbac9f48a7a74301676e1efa970ba5736a1c",
    },
    "trivial-lemma": {
        7: "32c3b6a5caedd86f2da86cf4456dca5be02c0ac9ba984bfa28c2c2cca92bfdad",
        11: "8fd82717d0d1978e0e45064983089f8218240f473cfc473c6e9e6815363f2e30",
        13: "c2733907a0a84f2be37f440dac766bb4ac98a2d2e988aa1227f08c218bd4d460",
        17: "a2934c02b514c51da7dc204617084e944113d7763277cd40ffaa62e5b24fad43",
        19: "9efb83379d7d169952bf3338d4a8faefb757c45508df6abf2de25d2f41dcd690",
        23: "30600debb8c144ea79eedd6ab15f83645fe22b8285ba99e35d7adcda73fecadd",
    },
    "b1-identity": {
        7: "ac3b85decf36f1832208a863c303e533c76737a21d7b22be7f137d679c3645e2",
        11: "7968afe019aadb739baac93465aa119e623a3547e47fd6ab332c0aa18400415a",
        13: "8657c0a0f849c2edc29725a9c8a3e754a70c487329c344762ed9eda35444897e",
        17: "6a3e4e85251902ee085697059931267df44cad832703a19bb4e1132c103c424d",
        19: "cc926369e8fd2a0275c6ec3c153dcce4c9133267a35a073c2be3d52a4615d4cf",
        23: "bd23779ba3ca85c077bd9b1882a525bf9dbfd44262b8748601ec7c2c09454990",
    },
    "shift-cycle": "2cbaf82e530447810b4e62e6d4e81deca0f0bd54ce458954cb88cc6acf280e17",
    "degree-coherence": {
        7: "2d808af115ff6d50923935a35551414e38b894591d73694e522c3a092a7d8d1e",
        11: "4bbbc42a2d8130ffa1a780f2a27ff4c6f4b3ae280eefdb59c82bbb3f08ab2c0a",
        13: "e129e88528117117b05b50f0ae4535a057171f08fc66aa02fb170fbc5262ca34",
        17: "55aafd08229489343cdf459e5e3e08c20b00e3ad174f502d18480edd68ef6a6c",
        19: "1a00322c5ca75decd6eee1402813af144cba319d6c6da8d1237993468fa498dd",
        23: "471cc3a75fd4a1276247fa139e4524ababda961217d6c4f7cb4a830aa1c833ee",
    },
    "product-table": {
        7: "e7a649aa9adff2097237d967bb22d8b20cbcffe0b9a34bde5ef4a74f1bee2b71",
        11: "8337d13d70759dcf1d0cd00aae364aad43e886c4831cd447c261914fcfc9853d",
        13: "461ade26b0a02bd3919740418019f418d2b812929da549a132d0177f9af4a243",
        17: "90c020e45ba027b7ff9d7c54c5a733cfaf0b7ef12de2bc1298b5524266b841b2",
        19: "a29aa23f2e1060a48c02e380663faa6f1eb0fac97f2cb87135feac1142dc15bc",
        23: "c44c57558cb679e2b39557afc7f3bec53bf8d73bb16a0ad400303b8b45bd616a",
    },
    "gamma1-expansion": {
        7: "e4312335c1165568659a4ae051847c4905260c0a2aa4110c08687030e5f588b4",
        11: "903ddd68bc66f61dd80f6eb8cdd1bc759202b84f5842156b11c632bb91aec877",
        13: "62dc866ac61f9185553f55850208bbff4ec1d24b0767f1717bb1324df9985472",
        17: "3a80d64490f049d68c1d48379d10b639d12c69b6a5c27b74015157fe34936668",
        19: "701151f93bf3bbdcdedf439bebf2543c7671f53aeb2d290d2783139d5e40ce64",
        23: "24c62f99eab5ac5f256e14646147ef966d7b62aae5195a5665eaae5052346346",
    },
    "massey-fourfold": {
        7: "eb7ca338b78cb7b59979b2567753364dffa18739a48d899699306ae5d52c5076",
        11: "2132a5a4d44eb395e74d14f138e4e96eed8a7eae10dc0a1e8bc07171891837e4",
        13: "a25e2d786d9b2d1b3064f4cfddbbc92a405fbd2c79698dd2dd4c061c27891d0a",
        17: "5c08d9c384a814581c5b606b973083e4499e50021da83fc93882cbf2acb774ae",
        19: "e18c8768ee89a49eb20fe2b44e80c6f2db5e55b6d22bd8a5d42651471284bddd",
        23: "5c6791d16863f535f39f6376f73a7355989f46f8df64fca871cb300c44e1ccd9",
    },
    "massey-p-fold": "710e710d7472b9e82001ee8771a5c09dfb2583611ab60510490af01f5e02f536",
    "cobar-collapse": "56f61011a7f7f6b08f906745a76fcfd7de56718aa52778639a2f202036b678ba",
    "euler": "2af1fb2ab0d8bb6d0607a8c895c291a9bf2629bbe897c1fd16fbdd15e4c4a67c",
    "duality": "a312a81539c19545370d8f2117b16c0f1d41735c41d1d1ee3ebe1f1db248d080",
    "bp-basics": "338883fd13cf095851608368274c9f0e4ae73f76b9611333e6ce80f9ce2c6fc1",
    "delta-chains": {
        7: "a5da29d8c29e6548fc4bdaed8e406bc890b512c44167985ccae49466b32ce739",
        11: "af13c3282271d672795a849a1f09916c730b65aa44b7194e12accce6eef8043b",
        13: "418dcd754c825f11873f43bd7684a8224a44d7fc6afb244f4b8f00a58d8b74d6",
        17: "720e5b6d371cf16b850d23ebc431b3f961650a514c9943acb894c0a7655dc485",
        19: "5c9f1159b975be866f52ccc42a74fd210011db4d401b325c1e7c7dc4d00636f4",
        23: "4bb03bdb09ee039c0acdd4b6a7c4873581a6f22506134aec39822127eb89bc90",
    },
    "beta-chain": {
        7: "80681005506df28133f5ae3fc80ccea0facb18aac4469331fa2c88db0ac01a3e",
        11: "8cc5ed94b30e4a833374e32e143f4d403244ff83773e7aeb3448fb9c8727ced3",
        13: "25f28838c3e2a72c56c03838354e7741352c112565b9877c30c3676e276fad51",
        17: "57c23cdff157b5fe95013913e40b6aabe6506ae3e4cc1db3d94f192739ae176b",
        19: "168f2cc71e5119f4cd4a764352cbdb6898a485d17e8a35275525d3e710577cf6",
        23: "71663702098c73e0e06c9cd1ea99585d02ca3a21beb69f05d882120013949df4",
    },
    "gamma-chain": {
        7: "76e280b42f78b3357f6fde8df0961624821bed99859e684c8e28f0ef9a9b5736",
        11: "c6cef24fae369640f568001b63575ddf3115a167481387b36488dc7f2685dc8d",
        13: "9a81cb5e6ee86aa4a0e1f558e42846584ed8de460de9746879787fb37edbe5e4",
        17: "f106417136acaab9bb785a9104eeda37b5be11bbb4500f45e6d15440214e3fe2",
        19: "79b6308d0b15c9f9935869e7a07ea1863eb96b5c4d1610fd75420b8844ec5a3c",
        23: "f061d69d1fd1d68aabda6cf550f1d27505de5ca3af3ac296b77f5207eff0db12",
    },
}

#: digest(p_fold_massey_check(p, k, CobarEngine(p, weight_bound=p))), by (p, k)
BRACKET_SHA256 = {
    (7, 0): "f29bc704998f8012981d1cce85f8ad658ccf5de5fe1c06a92199f0451e4f93d5",
    (7, 1): "3514976affb054911d7701806c16e93e3f53843f005566ff537c8acc388ad349",
    (11, 0): "e9000113ac47e1951dec0d79bfaebdd960da85eaaa349c3d0bc1bbbe0eb17d24",
    (11, 1): "faed344dc1eb6b4535490efa87150ca821a62cb89c2d36716a8d443491010dc7",
}

#: digest(exterior_record(31))
EXTERIOR_P31_SHA256 = "9af983b7d684004a7320f14954507e788c1b877a39f73bee32bc0129513abe27"


def main(argv):
    if not argv:
        print(render(*record()), end="")
        return 0
    if argv == ["--brackets"]:
        moved = [key for key, sha in brackets().items() if sha != BRACKET_SHA256[key]]
        print(f"brackets: moved at (p, k) = {', '.join(map(str, moved))}" if moved
              else "brackets: OK")
        return 1 if moved else 0
    path, *command = argv
    message = mismatch(" ".join(command), path)
    print(message or f"{path}: OK")
    return 1 if message else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
