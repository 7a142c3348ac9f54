"""Byte-identical CLI output for the reference code.

Each README invocation on 146928 (text and JSON, every stage, the cover
along e, the base, cover and filled Kirby documents, the four SVG panels,
the report directory and the trace), plus a few other codes (112124's
cycles of lengths 2 and 4, ef276c's base diagram and its cover along c), is
pinned by the sha256 of its stdout and of every file it writes; with ``-o
FILE`` each invocation writes exactly its stdout bytes to the file.  A change that moves
one byte of this output fails here; regenerate the digests only for an
intended output change, and say so in CHANGES.md.
"""

import hashlib
import os

import pytest

from cell24.cli import main

REF = "146928"

INVOCATIONS = {
    "validate": ["validate", REF],
    "pairings": ["pairings", REF],
    "cycles": ["cycles", REF],
    "presentation": ["presentation", REF],
    "presentation-fill": ["presentation", REF, "--fill"],
    "cusps": ["cusps", REF],
    "cover": ["cover", REF],
    "cover-alpha-e": ["cover", REF, "--alpha", "e"],
    "invariants": ["invariants", REF],
    **{
        f"invariants-{stage}": ["invariants", REF, "--stage", stage]
        for stage in ("base", "cover", "filled", "filled_cover", "degree2_of_filled_cover")
    },
    "kirby": ["kirby", REF],
    "kirby-fill": ["kirby", REF, "--fill"],
    "kirby-cover": ["kirby", REF, "--cover"],
    "kirby-cover-fill": ["kirby", REF, "--cover", "--fill"],
    **{
        f"kirby-svg-{panel}": ["kirby", REF, "--cover", "--fill", "--format", "svg",
                               "--panel", panel]
        for panel in ("xy", "xz", "yz", "off")
    },
    "trace": ["trace", REF, "--script", "m35-cover-fill"],
    "cusps-ef276c": ["cusps", "ef276c"],
    "cusps-2bec36": ["cusps", "2bec36"],
    "cycles-112124": ["cycles", "112124"],
    "kirby-ef276c": ["kirby", "ef276c"],
    "kirby-ef276c-cover": ["kirby", "ef276c", "--cover"],
    "cover-ef276c": ["cover", "ef276c"],
    "validate-a5e164": ["validate", "a5e164"],
    "invariants-a9e1d6-base": ["invariants", "a9e1d6", "--stage", "base"],
    "invariants-a9e1d6-cover": ["invariants", "a9e1d6", "--stage", "cover"],
}
JSON_VARIANTS = (
    "validate", "pairings", "cycles", "presentation", "presentation-fill", "cusps",
    "cover", "cover-alpha-e", "invariants", "invariants-base", "invariants-cover",
    "invariants-filled", "invariants-filled_cover", "invariants-degree2_of_filled_cover",
    "kirby", "kirby-fill", "kirby-cover", "kirby-cover-fill", "trace",
    "invariants-a9e1d6-base", "invariants-a9e1d6-cover", "cycles-112124", "kirby-ef276c",
    "kirby-ef276c-cover",
)
for _name in JSON_VARIANTS:
    INVOCATIONS[f"{_name}-json"] = INVOCATIONS[_name] + ["--format", "json"]

# sha256 of each invocation's stdout.
DIGESTS = {
    "cover": "5672d80e7140e5344afd9caef633c4c6d05fc77785634ffd799cb02765041cfb",
    "cover-alpha-e": "53548e318be76dc4449ffc9b3b8cf50e9fe58b40f1404fc23bd6f4d87df5128e",
    "cover-alpha-e-json": "6d90b96a0f3075fabe23a2a09a5a352dda12ff63443646908c9e11d91b333b16",
    "cover-ef276c": "55a7b5ef249dec8895ef9c9520074a69023acdca6f651c439d4ea08d63cf4741",
    "cover-json": "5250dce34d26b5034d8cb208985a136f29962df531c262d9cb782ce34240f2bb",
    "cusps": "d3d23324d54539ffe9ea6c01fc3dba1fa21596d1057ed4d8d544993847911489",
    "cusps-2bec36": "d4ce2a69a3e2a06ff9fd280dd82fa366ec8606dc3022318f50c4fd1f4476e233",
    "cusps-ef276c": "6ea422af20343f578b4680cf787efb532cf3e293ed2f338f814bba44a0e41dcc",
    "cusps-json": "6c6a630e7534a7883ff5d97a859b803ebf7f4e053bbc517bb8e66a5c64642cf4",
    "cycles": "32e404364fb08ec3d927905f769d0ddd4e222837af4879afbf6f8bd5bc6cd63d",
    "cycles-112124": "b68cf9447c478881033eac1390a6231df270321523de6d4055e727ddd080a586",
    "cycles-112124-json": "20337b9c04043d03bab6fde333514f005804ea783806acc45ae644164342b165",
    "cycles-json": "19e48159775b9bd26d25eb3ef7a4d2b27117f4029582fe894c3117fbac64a36c",
    "invariants-a9e1d6-base": "2d1547a045812d88f3d0eb1857de8ca6c5010d67ae2ae28e847414ec132e88ef",
    "invariants-a9e1d6-base-json": "6c1e961272dc24cab622e6324bbf5e8a933ae8bfd6009e7eec88968e5b729c47",
    "invariants-a9e1d6-cover": "8cc1535c59e6488b08ab1b1eceb6a2656acbcdf8943d6d037d1eeae856436220",
    "invariants-a9e1d6-cover-json": "b355863c89f06da1ad9128dcc2c28adf68bd0520fbdcd09b2ab804e03bf4ba9e",
    "invariants": "4f635a8c037168e5fdbad07754b70abdc44243f76b0b86d87db61a080019b90b",
    "invariants-base": "50f62ca34ff1807993cc53438d7b2a4a9f439836de5562c883170b2e6fb3c0d4",
    "invariants-base-json": "b81e1eb88f35f9984241772eb66d90378a16d300d614719f30fac0a57a9b3ab5",
    "invariants-cover": "ceef4d416ee8417729612e94220960b465f683a1c968ebd095880c58c44dc072",
    "invariants-cover-json": "deb5cb6d7d694c3c282f597814d274f1a1b759f0907a808ea5a1f46339186658",
    "invariants-degree2_of_filled_cover": "198f2a06a6346ee7c233891c32c43c88db161950f62e7f58eaf159d35f168bbe",
    "invariants-degree2_of_filled_cover-json": "237edb31fceb9ff556755dc7ae7419dbc1877967ca2cfb40820f40a00f05bc5f",
    "invariants-filled": "72625a6fdd81e8e55b362779ab78c605e800bbfbb1fc87595ac5b11c629ba530",
    "invariants-filled-json": "e691d4df7b484ef6c7057e155affa683e1fafcd4c93110699d2c7d38d6d43781",
    "invariants-filled_cover": "0c41bdafdf5152b2deffaa8b229689860532780e0c2d2087281294e164ff8fa7",
    "invariants-filled_cover-json": "afd6572b4d771d7acc33d851b580adc28fb80117be8350f6ee822a6e52b3dff9",
    "invariants-json": "e311481ca0355581d610d32da9d49192c1182544358962cb92f55f249d2fde1c",
    "kirby": "f05546e4d633a66495214cac6dcd8b057f204a454307ebfb09e6306cff547f9d",
    "kirby-cover": "a06db67764c6321d2c3f53a29b09c0e6607be686c34c8dc27a1a4af76a13e950",
    "kirby-cover-fill": "2c2966a7e9c5cebc019b768e4f628b9f256ac0c734b20cbbcae6d7a74aab07e8",
    "kirby-cover-fill-json": "aa7ba72752960af56dc3f3e898cfaa8755cbf4774bc86437ca42824ea3a537c6",
    "kirby-cover-json": "21a642af3f1edab1f65a56b8b6b788def556fae965a85876e1943df32194946c",
    "kirby-ef276c": "62f95e86ef8266cff258e3bc61df91999b6e2ca331d160d04d0872a00ec296d1",
    "kirby-ef276c-json": "7af54bccd5be57fa332488f6215e1f03c5baae77ebd8592cd6d24a6751ae41aa",
    # ef276c glues its cover along c: the JSON pins the order in which the
    # layout's signed permutation is chosen.
    "kirby-ef276c-cover": "d4e81838a53aff3c1a2447e2655ef95e92e14161ad3db0e0b8a4d8e574d47805",
    "kirby-ef276c-cover-json": "27139a6ea69308d48dbb4190ab9fe6338f8b686711df7d0f4a3249ae08370cf6",
    "kirby-fill": "9ca9dbb515b2a9db7efa6907caf68dcb19b3f187802c1546d44d96f6bd1689ef",
    "kirby-fill-json": "0ae4383bdf8702a55c53099fc66963d037c47813e7956b7f6c1419f52fce93ea",
    "kirby-json": "9eee43cf708981e3c704718f2de71d1a187b50a4f93f76024b0e814a8d789daf",
    "kirby-svg-off": "4a6b3b32f94704dfc7e01ac61fb72490678b3728009bafb57b586159867f5936",
    "kirby-svg-xy": "e2bec9c78b8c662cf22ad87192b4af680edbac0a67916987221269328d92d215",
    "kirby-svg-xz": "ff8f070b3a6d2a070dc8a8e1f92e0c3a754e6a0f6de3bb21f1ca56eb4ae8cc2f",
    "kirby-svg-yz": "4e69792238eb6fb2ab4988810ed6a2423e9fc342126cdc0fa4ab9827f58b6d16",
    "pairings": "943927cc17e75ed3930bd080130b32f630e2803874f70cd1b5e4cd479ffdd470",
    "pairings-json": "ba8f00e7b58150aef8d32d2b6ba966dbccbb4df2b95c36a76d1a9f77ab89f7f0",
    "presentation": "21fb66bde4191e605df85dd6405db0ce4de215f2f86547a5469822386d97f5d7",
    "presentation-fill": "445d6b37c01270fa563776cde9515e2fc693cca1f7e734f52439570f0088d460",
    "presentation-fill-json": "a1fa80afe8555713609c36c957454a1d2169a76cd4a453f0b9a012771f3ee53e",
    "presentation-json": "1dfac48c6d601793fb53cd93be1b8ef357533626943b2a23851b59fbd04298c4",
    "trace": "73c3b4b3bc3f550564c66d3220bf6d295d3848108e8b90fabeeb037e014f7f8d",
    "trace-json": "2932f07672d3de96da89b7763e9e6bce26db533467f4079f930c19485aaf1154",
    "validate": "25abb2fe61fc4db2b230f676fe03415f748f9c8a58925d1c73f4923840a6b4c5",
    "validate-a5e164": "fdc389249d52284f83597a6c74561f5ef151b8273c18777daade035cb1a1db9a",
    "validate-json": "b14b1718614faf216dbf4fcdebe8ff540f0b0a159a39a8a6820567768f3766c2",
}

# sha256 of each file ``kirby --panel all`` writes, and of its stdout.
REPORT_DIGESTS = {
    "diagram.json": "f9be328bc9524e8846d81d912990fc2ceac480d3859ae78380ed31d517a78455",
    "off.svg": "4a6b3b32f94704dfc7e01ac61fb72490678b3728009bafb57b586159867f5936",
    "xy.svg": "e2bec9c78b8c662cf22ad87192b4af680edbac0a67916987221269328d92d215",
    "xz.svg": "ff8f070b3a6d2a070dc8a8e1f92e0c3a754e6a0f6de3bb21f1ca56eb4ae8cc2f",
    "yz.svg": "4e69792238eb6fb2ab4988810ed6a2423e9fc342126cdc0fa4ab9827f58b6d16",
    "stdout": "7167d225183c8e5c7b1784d878dc8424d6908a1a76a6055d35d99ecb0a198fe6",
}


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_stdout_is_unchanged(capsys, name):
    code = main(INVOCATIONS[name])
    out = capsys.readouterr().out
    assert code == (1 if name.startswith("validate-a5e164") else 0)
    assert sha(out) == DIGESTS[name]


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_output_file_matches_stdout(capsys, tmp_path, name):
    # -o FILE holds exactly the bytes the same invocation prints.
    path = tmp_path / "out"
    assert main(INVOCATIONS[name] + ["-o", str(path)]) == (
        1 if name.startswith("validate-a5e164") else 0
    )
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(path.read_bytes()).hexdigest() == DIGESTS[name]


def test_report_directory_is_unchanged(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["kirby", REF, "--cover", "--fill", "--format", "svg", "--panel", "all",
            "-o", "report"]
    assert main(argv) == 0
    written = {
        name: sha((tmp_path / "report" / name).read_text(encoding="utf-8"))
        for name in sorted(os.listdir(tmp_path / "report"))
    }
    written["stdout"] = sha(capsys.readouterr().out)
    assert written == REPORT_DIGESTS
