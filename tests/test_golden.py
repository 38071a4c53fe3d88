"""Byte-identity of every subcommand's report on the frozen fixtures, in
both output formats.

Each case runs `main([..., "--format", fmt])` from inside a directory that
holds the fixture files under fixed names, so the reported input paths and
digests are the same on every machine.  The sha256 of standard output must
equal the digest recorded for the case and format: any change to a report,
down to the order of a basis or the spelling of a rational, is a change of
behaviour and shows up here.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

from tropctl import obstruction, residues
from tropctl.cli import main

import fixtures

LAURENT_534 = {"vertices": {"V": {"series": [[], [[-2, "1"]], [[-4, "1"], [-1, "1/2"]]]}}}
LAURENT_536 = {"vertices": {"V": {"series": [[], [[-3, "1"]], [[-5, "1"]]]}}}

FILES = {
    "square.json": fixtures.square_loop_doc(),
    "gamma1.json": fixtures.gamma1_doc(),
    "gamma2.json": fixtures.gamma2_doc(),
    "ex534.json": fixtures.ex534_doc(),
    "ex536.json": fixtures.ex536_doc(),
    "chains.json": fixtures.junction_chains_doc(),
    "ex534.config.json": {"vertices": {"V": {"coords": ["0", "1", "-2"]}}},
    "ex536.config.json": {"vertices": {"V": {"coords": ["0", "1", "2"]}}},
    "ex534.laurent.json": LAURENT_534,
    "ex536.laurent.json": LAURENT_536,
    "star.model.json": {
        "ambient_dim": 4,
        "edges": [
            {"label": "E1", "direction": [1, 0, 0, 0]},
            {"label": "E2", "direction": [0, 1, 0, 0], "weight": 2},
            {"label": "E3", "direction": [0, 0, 1, 0], "bounded": False},
            {"label": "E4", "direction": [0, 0, 0, 1]},
            {"label": "E5", "direction": [-1, -2, -1, -1]},
        ],
        "coords": ["0", "1/2", "-3", "5"],
    },
}

CURVES = ("square", "gamma1", "gamma2", "ex534", "ex536")


def _cases():
    for name in CURVES:
        f = f"{name}.json"
        yield (name, "validate"), ["validate", f]
        yield (name, "info"), ["info", f]
        yield (name, "obstruction-chain"), ["obstruction", f, "--method", "chain"]
        yield (name, "obstruction-xi"), ["obstruction", f, "--method", "xi"]
        yield (name, "classify"), ["classify", f]
        yield (name, "abundancy"), ["abundancy", f]
        yield (name, "genus1-check"), ["genus1-check", f]
    for name in ("ex534", "ex536"):
        f = f"{name}.json"
        yield (name, "obstruction-xi-config"), [
            "obstruction", f, "--method", "xi", "--config", f"{name}.config.json"]
        yield (name, "phylo"), ["phylo", f, "--laurent", f"{name}.laurent.json"]
        yield (name, "compare"), ["compare", f, "--laurent", f"{name}.laurent.json"]
        yield (name, "compare-t0"), [
            "compare", f, "--laurent", f"{name}.laurent.json", "--t0", "1/100"]
    # two junctions, a closed chain and a chain walked against its smallest edge
    yield ("chains", "obstruction-chain"), ["obstruction", "chains.json", "--method", "chain"]
    yield ("chains", "obstruction-xi"), ["obstruction", "chains.json", "--method", "xi"]
    yield ("chains", "classify"), ["classify", "chains.json"]
    yield ("chains", "abundancy"), ["abundancy", "chains.json"]
    yield ("all", "validate-batch"), ["validate"] + [f"{c}.json" for c in CURVES]
    yield ("star", "local-model"), ["local-model", "--model", "star.model.json"]
    yield ("seed3", "selftest"), ["selftest", "--seed", "3", "--cases", "4"]


CASES = dict(_cases())


def write_fixtures(directory):
    for name, doc in FILES.items():
        (directory / name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_digest(argv, fmt="json") -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv) + ["--format", fmt])
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


# (exit code, sha256 of stdout) per case
GOLDEN = {
    ('all', 'validate-batch'): (0, '227537d3039add195ac61d5b80046470d073740b4e7e9d3add44bbf305603fcd'),
    ('chains', 'abundancy'): (0, 'd924b47e81132bfe72e7ca642e836b6e73782d6335e6dedadf1dfad9d45a59d8'),
    ('chains', 'classify'): (0, 'ff1daed881603b331d35f9bfff4c25d37f501361a84c5d35b807089f0f562e6a'),
    ('chains', 'obstruction-chain'): (0, 'b165b76e7c3c61ad74e95d32dc85f0c58109625e4b13c7863b3bc679df0e3d99'),
    ('chains', 'obstruction-xi'): (0, '38c30dfbc6640e22ace348de7497ff5f4d777544ebd08f42e76b8a2dcac16250'),
    ('ex534', 'abundancy'): (0, '890c98bb83bdfd3319594c0081e66a477bf7c4517c75f8d6b2c4c473d51823ba'),
    ('ex534', 'classify'): (3, '67d04134f0281f41797c1ae05aff70602a3d80d4cc5a5522f91992bdaa6b4403'),
    ('ex534', 'compare'): (0, 'dcfb78ac707d41788ca68dac618bb5b500c33ea2b193c173d4c2437181b50c53'),
    ('ex534', 'compare-t0'): (0, '29ca18fe435a761dae3b6e8749e8a0e03f1f3930dba9c63aa738df8d941691a3'),
    ('ex534', 'genus1-check'): (0, '718914095c48d1339371d345b332e0e0b56964f8e86d32e03a181ab02d941daf'),
    ('ex534', 'info'): (0, '16da502a7bdbf4c34e326f4231df0292b1efabea194f098f52c8d3c11c6dbdae'),
    ('ex534', 'obstruction-chain'): (3, 'ad15783efac7557907c5783c08cc8012be34ada7b21f7fdb3e24d740552e83e5'),
    ('ex534', 'obstruction-xi'): (3, 'afe243b527966c94478a949ae56f06a33bd448ea7b1636d8de156c4c6b7cd08c'),
    ('ex534', 'obstruction-xi-config'): (0, '0ed15a53fe3da53da1353783d65faadbd59fb69b9255a395a43c2af065265b35'),
    ('ex534', 'phylo'): (0, '2559baa5b4e94388430c483dc562b508b2ce33b68c41ea902abb6bf2bf77805c'),
    ('ex534', 'validate'): (0, '6e774e3718d536ab84645e03b07dad022f2ab9c2dce426a9a89efe2ae2562e28'),
    ('ex536', 'abundancy'): (0, '5c430c1728b4cac9ebeb1683f0b8029e6124396bd143a9c9bf62a4bb01535528'),
    ('ex536', 'classify'): (3, '294a6373f5348509534c16c2e1e8153e4275460faef80b7708d6c1c04d9e68ca'),
    ('ex536', 'compare'): (0, 'fa601a7d4b26afbff24ad86d01a5fbb6d716940128a3ee971ec0c48465398a87'),
    ('ex536', 'compare-t0'): (0, '9bfa12aec43e8acca4b24268fb26f732506ca7f7e37fc52dd402a3444d4ebf4b'),
    ('ex536', 'genus1-check'): (3, 'ded78331036eba52361eea4327413ddf9966cef1da91a6557b28419637ea1227'),
    ('ex536', 'info'): (0, '2fda9ddc6add3bec975671f735e0c635ef34a0a1d881eee4b6e987c3d8932632'),
    ('ex536', 'obstruction-chain'): (3, '2e18a97f0daff781cc03384428e739ff2087948c97e23ba12232d729ffa74eaa'),
    ('ex536', 'obstruction-xi'): (3, '1847cae47a91a44cb7d759502c8ef906d12852b3bd0f5b18ddd28e130a92dece'),
    ('ex536', 'obstruction-xi-config'): (0, '949640f41984d01343edcb05f6ce6a22ca4d7429f860c8a013945e7060d30064'),
    ('ex536', 'phylo'): (0, '3dc0b19804933fdeed8d426bd223356130cf9977f4a90a7eee4ae407bbe9c79b'),
    ('ex536', 'validate'): (0, '9adba69067e70240535dd35bad2ece2fe10bb06c4a1594396f229630fe25bea7'),
    ('gamma1', 'abundancy'): (0, 'e8b83c3060bd03b6a4727d6f99a34a4f3ceace2d9958e3ea022443116df03372'),
    ('gamma1', 'classify'): (0, 'ffe7d0d0c08a5bd45c26e59a8302f1f5c840bb8a8954c5a2fb16534ee188cd61'),
    ('gamma1', 'genus1-check'): (3, 'fce377de6302d090b6fd4a372c667963396cb68620a95f402fb196d779f59c93'),
    ('gamma1', 'info'): (0, '49cd3601cc5788a26a4cf855d6ed57fc13a0f54d4afa1faf636715ca61557f55'),
    ('gamma1', 'obstruction-chain'): (0, 'bf93fc5d9bf6483e5b95639b438bcf8bfc80de64191ff098195f1cb84973dfff'),
    ('gamma1', 'obstruction-xi'): (0, 'c02e569f045afb9df2d22c030291cfcc2faae20605b5e03725e3f444766c8329'),
    ('gamma1', 'validate'): (0, '767f43745cd1dff8dd764d8626f0c7f57ef1ec1307dd0dcef4dfbc93ef02651c'),
    ('gamma2', 'abundancy'): (0, 'fdea1af344a007beb1bff950df0730f4ce59e80c62e0dbd8a7a58afc2ea2b268'),
    ('gamma2', 'classify'): (0, '80d9a6a765af53d513eeb941509be7504a7a4f9e403163d7ddf3d3611af176a0'),
    ('gamma2', 'genus1-check'): (3, 'ea3f3cb350a874c4828dd3ad90adc5ef853eb29ebb79648cd01e0b9b865f97bf'),
    ('gamma2', 'info'): (0, 'fdc9cdecbde69c8d5805bdaf2f875ba473f806e09419d7c022a394287ee227bc'),
    ('gamma2', 'obstruction-chain'): (0, 'b54179683e7a658ed048f6b9f418154933c43cf44c1315e5446a7327038980dc'),
    ('gamma2', 'obstruction-xi'): (0, '5c5112aad06a5ad388adde1b05a4aa9dbe620c5138a685761b4bdb260330a468'),
    ('gamma2', 'validate'): (0, '5a96a20724875524a053620877d8204ae00cbf1a57810cb282c565647d773888'),
    ('seed3', 'selftest'): (0, '59c70e07b2f50ea3720e544220d47ff749453125e6888309c1af8896d36ef827'),
    ('square', 'abundancy'): (0, 'd2771093f2e171b0be577c6423cce07b2478b2f4fa649300588323445e0de94b'),
    ('square', 'classify'): (0, 'bf57668efa9144dc1be73e74424e65cd5de010e86d28e7789133646cde094616'),
    ('square', 'genus1-check'): (0, '02ac7e83c12b7e81256e6a0fd450c495f2ef61b0a0a36b05bf320dfefa5acfc6'),
    ('square', 'info'): (0, 'b1ebbbc9636127254f55a25f45efe178f3494a6ba09ad5804a593b7fe63eb72d'),
    ('square', 'obstruction-chain'): (0, '2267864c9ee8891c4f6bb3a6a1e083409d2371f021e1f4b589e2b1eea701f753'),
    ('square', 'obstruction-xi'): (0, 'f309ac8164cf9d12094897a914efb292536bfb6c25952aab6bbba21a48231174'),
    ('square', 'validate'): (0, '01ae6afb2ea57a898dcd967053918a4f42041540849f7f98c35803036a67f7e8'),
    ('star', 'local-model'): (0, '65d7f4caf3b90ce4a11cc650361dfa0046644158a86eb2017b20de59908a9c15'),
}

# (exit code, sha256 of stdout) per case, with --format text
GOLDEN_TEXT = {
    ('all', 'validate-batch'): (0, '1a95ee5ff75b11caf779628b3680df156f1c93e30f09c557e4687acfc32a607c'),
    ('chains', 'abundancy'): (0, 'f843a4cbf4745f1a5a9855e8a0086121b0dfc551a51dc119727d3d97197b611a'),
    ('chains', 'classify'): (0, 'edc92e628d1cab80c4ef8d823d39f6253797dc0aaec2d360ed97a70ddac8f4be'),
    ('chains', 'obstruction-chain'): (0, '5fae21a982cd99e83fcf079b7ee73960d3482e23bf24959d0d018ca65880a69c'),
    ('chains', 'obstruction-xi'): (0, '71005b5c7c98b2940752e4f5556594b10b4f536ec6a8e8e3bb678dddabb33949'),
    ('ex534', 'abundancy'): (0, '60d2428a6ea76712eeddccd3521b0d40651b66e4749b9cfbd3b0a85a4bbd9473'),
    ('ex534', 'classify'): (3, '0dff004e39693e7d39b82e480c9236c2f349eaaad870bc7356eb978ed884fe6c'),
    ('ex534', 'compare'): (0, '66aac5b01737c37f4de2aa398ea64e301a109de709029635e17a830ef139b631'),
    ('ex534', 'compare-t0'): (0, '166d76e5ff3493b1b622cee78c71e77bdddecc5f5030fdb3e7dfc40fe07b1138'),
    ('ex534', 'genus1-check'): (0, 'c731d46e1e1344acb95a45e37f2823c7c29a6f3e21dfc4a7b8bff0b4ee9dcdb3'),
    ('ex534', 'info'): (0, '2a6aaa3135b57db1b039038c520d2e9a66a67f7253117ce45794e7c1ed87d741'),
    ('ex534', 'obstruction-chain'): (3, '16c302f733fcf1a11f2751f2c796d6f88b89c7d95a19b0f8773f863db51a4849'),
    ('ex534', 'obstruction-xi'): (3, 'b42017cdfd5d02819a4b80c79e8b96c640d93f347921d576705a4684ef7e4408'),
    ('ex534', 'obstruction-xi-config'): (0, '4da0169b55ebead04f81f625b419ee44ee0a673e3986a9b58909da838b661bea'),
    ('ex534', 'phylo'): (0, 'f4f4b9c6201bda1c914e13d8cbb4d0bad1612d59110421afa9beece948499b7c'),
    ('ex534', 'validate'): (0, '34c5bcafce4d1adfaaf51be3a600fde9d3bc70202308fcb571de35d6c3cd4379'),
    ('ex536', 'abundancy'): (0, 'cbde996878f76c7c425ca1d0a3012cf0127b74669b70c66d4f7fbc5f1259dae6'),
    ('ex536', 'classify'): (3, 'a3cd811998a9a3b29b0ccf97064cba3d09b03770c5c849d8bbdc2aad312729b6'),
    ('ex536', 'compare'): (0, 'ebbee072879ff8eb4d16bbaaf4497d4de0489a740229bf866260acbab228f84e'),
    ('ex536', 'compare-t0'): (0, 'b038448d097c60d9659b3e6e47acd7033ede7fd81f822041e89ac2c859480cbc'),
    ('ex536', 'genus1-check'): (3, '43ca2992050d5520f2b5dad4f83cf4059bf19cb1d6b882bba9a59c8d737f178f'),
    ('ex536', 'info'): (0, '1cae289e994e25a0ed703d6e07a6948c97d4124c99409e50da91d2b650d75021'),
    ('ex536', 'obstruction-chain'): (3, '6015c7b6181a1e4ad332252cdf8b1751d05a51b07583bdcca98ea8b01739d1f2'),
    ('ex536', 'obstruction-xi'): (3, 'e10ee377a1a1767caa6a546536556cc47600fb9f994cf0b4d5841d71e16f49b8'),
    ('ex536', 'obstruction-xi-config'): (0, 'c51ccb4abfcac0c5dc8a193fd68aa5061b450f0ced9e5e2e2435c22f59fc2b65'),
    ('ex536', 'phylo'): (0, '35cf619605fe2e0d71c98ddd53f0d1daa5f3ccc9e6d73af56ae4c05e78367efc'),
    ('ex536', 'validate'): (0, '5c439d73f5f683252e20b4066ea16d0fc90548e944dd6b17cb3f80ebaf659096'),
    ('gamma1', 'abundancy'): (0, '07034dd838da59671f0a8c7d5c75f73dffd80a1a496b9a1ef81e93092859423d'),
    ('gamma1', 'classify'): (0, '9a19afa6a5746719658117945d69dc8adda6a5f250cff7849dd88a8f7ce0b8f3'),
    ('gamma1', 'genus1-check'): (3, '90c8124d52aa0eff522f0533272adc20b7b62e103c95dd2bc960f0b739210cf7'),
    ('gamma1', 'info'): (0, 'f0d031214f9e29355cc136e67ba65f7ffdddf0402009f4cad07c302afd8d9c17'),
    ('gamma1', 'obstruction-chain'): (0, 'bb939ed57c17cb807dbb8c606b9e8cd53c33efb3312cb6507328fe86119690bb'),
    ('gamma1', 'obstruction-xi'): (0, '8865124e708d606a85723825fb4cc61972748dada44891318ba57af82923d2a4'),
    ('gamma1', 'validate'): (0, 'c1b6332500e727495a1503306243d4a8865e5eda3c321f8c0a66b3619ac58c55'),
    ('gamma2', 'abundancy'): (0, '1c75a25af4f0e3e9e74373722d742fa925ebabe70c44973f88df84e35d5abb25'),
    ('gamma2', 'classify'): (0, 'b6daf87695117d41e0bea8d4ea2345f074b39858bf8dd3c331b956087429f5ec'),
    ('gamma2', 'genus1-check'): (3, '68c8695f631d71afb9043fd646d7be5cfca490f3726257749b679f6a8f3a7b68'),
    ('gamma2', 'info'): (0, '57ddcc27155e822b2da1b2f85dfb6b7caefdcc30f0abd5e1b72657871cda49a3'),
    ('gamma2', 'obstruction-chain'): (0, '6a2853a88df5eb6b77af6664e7f320b45e7405560c1cc172167646cbbc16f3c1'),
    ('gamma2', 'obstruction-xi'): (0, '7150a83750e1b724fa2a5450ff501053a7358252b3cb55477c42e05db3eecafb'),
    ('gamma2', 'validate'): (0, 'ac03ab45be218f7b30181fe6b25fa07d08b4b0e9f5251a4a65ad0f3bb39db0a6'),
    ('seed3', 'selftest'): (0, '253552b558a2acbfd951413ba39a31ac91ff167b2cc1795fb4921492b96b03e4'),
    ('square', 'abundancy'): (0, '951f6285d23224e9f51e9bc7b079775f20f6c4b77e70ad5ccd7048d911857f19'),
    ('square', 'classify'): (0, '12fe4a74fc7ef7719c87150f6b30d5ae7aced889fdc332382364c2ce44862ad4'),
    ('square', 'genus1-check'): (0, '363ec9bd41162d525c391dd9697c65d17cb3255e0e044516085eeb353bfe2d43'),
    ('square', 'info'): (0, '6a4e78ca3c9ea5490908457cad31c02105bc3982dd61db7a6ae63af66968fff5'),
    ('square', 'obstruction-chain'): (0, '51e0ff679dbf303a8573226adc02dd4f6c4458ffcb773fe153832b7c24f8b366'),
    ('square', 'obstruction-xi'): (0, '4518abf13b42252876b6c93f286f7763e69def3b50407a66f4b1fbfc5cc8ca5c'),
    ('square', 'validate'): (0, '8af1e1a2aebb84293fabecabed9543935f86e602e4cba6b82fb2219f07989e7a'),
    ('star', 'local-model'): (0, '17da1626445ae40f46d2fc7fb047f4992a984a826522c3bad1e72a51f30cdd11'),
}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    write_fixtures(d)
    return d


@pytest.mark.parametrize("key", sorted(CASES), ids=lambda k: "-".join(k))
def test_report_bytes_match_golden(key, fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    assert run_digest(CASES[key]) == GOLDEN[key]


# the commands that report dimensions only: they compute ranks and build no basis
RANK_ONLY = sorted(key for key in CASES if key[1] in ("classify", "abundancy", "compare", "compare-t0"))


@pytest.mark.parametrize("key", RANK_ONLY, ids=lambda k: "-".join(k))
def test_dimension_reports_build_no_basis(key, fixture_dir, monkeypatch):
    def no_basis(*args, **kwargs):
        raise AssertionError("a dimension-only report built a basis")

    for module in (obstruction, residues):
        monkeypatch.setattr(module, "flag_system", no_basis)
    monkeypatch.chdir(fixture_dir)
    assert run_digest(CASES[key]) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(CASES), ids=lambda k: "-".join(k))
def test_text_report_bytes_match_golden(key, fixture_dir, monkeypatch):
    monkeypatch.chdir(fixture_dir)
    assert run_digest(CASES[key], "text") == GOLDEN_TEXT[key]
