"""Golden CLI output: sha256 digests of every subcommand's bytes.

The table digests pin every byte of the csv and json stirling/rstirling/
bell/rbell tables for lambdas that cover zero, a positive integer, a small
fraction and a large negative fraction, so any change to how rows are grown
or formatted must reproduce them exactly. The report digests pin the stdout
of each verify identity at its default grid, the classical-powers branch of
spivey-rbell, and oracle-check at its defaults, so a refactor of the
identities or the routes must keep every report byte, checked count included.
The help digests pin every --help text at a fixed 80-column width.
"""

import hashlib
from fractions import Fraction as F

import pytest

from degenbell import identities
from degenbell.cli import run
from degenbell.operators import OperatorWord
from degenbell.polyalg import Poly

MAX_N = "40"
EXTRA = {"stirling": [], "rstirling": ["--r", "3"], "bell": [], "rbell": ["--r", "3"]}

GOLDEN = {
    ("stirling", "csv", "0"): "145e1357cd0ad3022f39dbab1ec98977fc75a95c90098bbf8a7542d0a3165b1c",
    ("stirling", "csv", "3"): "fdea7138afacfc3142666e2395f056c324e4a925636a4215fd98a0695c9e9d6b",
    ("stirling", "csv", "-2/3"): "4e51033e701bd3bbf040baed74c511e8e828bf6bbf4ed4cc83d3c6c4ab6d94d1",
    ("stirling", "csv", "-10744/8077"): "6a447a58d9b66995cc8ca81e3c4ab64631414bfdd1b39c8b6ad1c7936380c234",
    ("stirling", "json", "0"): "c9fe786599b73386674a085c53bd9265773fbfd05b2c383ff9cd2fcbca291c13",
    ("stirling", "json", "3"): "39a30d96bcd758d8a6034bf85909d7b948426f6e1b5ff541ef68daf4f2a75928",
    ("stirling", "json", "-2/3"): "b42acc7d8f9035d03f348c0f425f2b25bf2bbfbb540cadfa611e2ad2c0066344",
    ("stirling", "json", "-10744/8077"): "d5135a658f893754d89ca747aedee876464140e8439d56e12821ea68fd7636e0",
    ("rstirling", "csv", "0"): "696036cce8c367678bd082e02c9b192682ba5a3ca3a237f5677cc3e70a482723",
    ("rstirling", "csv", "3"): "7417b918eb7b91f9536fba6a1e3d40f352e796533f0902258c3516955df3d540",
    ("rstirling", "csv", "-2/3"): "f1acab4f5c0868167e64e3831471a006f50021465bc719103104fc96d47b403e",
    ("rstirling", "csv", "-10744/8077"): "7c94a58de00e2011b5cc2392bbd935d82b5c50e9d0dfbf192d54dbe33f3a08bb",
    ("rstirling", "json", "0"): "b17bef69e132d3d972f7814b7a8677dfae635779ea28a8d0402953068458f5be",
    ("rstirling", "json", "3"): "c40c6d2673da3bc07cbd312477329de70fc58ce6a523c3b98cc6da5f6573354e",
    ("rstirling", "json", "-2/3"): "b2db2460027a39d543b4b90481bced0956cee5fafc00aa22f594d9c1191431e1",
    ("rstirling", "json", "-10744/8077"): "42b372820c638ea4af61b632c7c97d8e884725cee463d34d56c9f253b42bd08d",
    ("bell", "csv", "0"): "ea6a58e817e4d1ac26aba24da653c33873002d823b49827f4b9a7585f2a507be",
    ("bell", "csv", "3"): "87345b87b06b4d5fe935b31e25b1331a9412993061738741bb03732878e8d68a",
    ("bell", "csv", "-2/3"): "8e5df5646a94b81403d2644ecf0cc80b6008e35dc169b542b9482b80e12ed488",
    ("bell", "csv", "-10744/8077"): "131ce8e81a90f0578832ec7e9830b33d578fe2f1694fddbd955bbba6a1ece9fe",
    ("bell", "json", "0"): "1895a84c06ab760c423f4d64eb4a2bc9e4a31b3bfe232b7106651c5674b08738",
    ("bell", "json", "3"): "92eab43dc4d976ec00e605cd03a3ccca1d9edeea22e14c2d9ae710988692d10f",
    ("bell", "json", "-2/3"): "5d3623f140689b252907ccdd765fd8e3bdd2ab5931947827c5ac3ac67aefc45c",
    ("bell", "json", "-10744/8077"): "0a8eb27946efd4d699207a1d8fedca1a82431cce69fe16f7e64196ab95683f56",
    ("rbell", "csv", "0"): "1d7dc2967899eb2f35f97bfb33fe13b42a5f2b051c918134ba96f5c74ddade89",
    ("rbell", "csv", "3"): "aae4e62170b927bcb32e716064b13d6fd29c7d022c79639e9e61ecadfcdd37bd",
    ("rbell", "csv", "-2/3"): "d4a782b6f4dc8b56fa24761e98a2fbc0bb6aadc55930d153705afcc48aaedfa4",
    ("rbell", "csv", "-10744/8077"): "55f94522bc00175a89a60431acc47aac7f30f291415c9366c0844e9e5547b462",
    ("rbell", "json", "0"): "fe62c5a32ebd45c895ffb3fc4603ef7a6cc578ca48edb7817bd0bdf4158f1b9f",
    ("rbell", "json", "3"): "a87de9c2c124a57ff2dec4ed2f85449be88524be53ff862fb8f3a338000534c7",
    ("rbell", "json", "-2/3"): "d4acf0092ae58bb6294e69b1e44cde9ece25d34238557c17aa35512407da99e8",
    ("rbell", "json", "-10744/8077"): "b2832988a377217198ef8bd3833675ca4b34cc31b82b4943dfe1651533bb0036",
}


@pytest.mark.parametrize("command,fmt,lam", sorted(GOLDEN))
def test_table_output_matches_golden_digest(command, fmt, lam, tmp_path):
    path = tmp_path / "table"
    argv = [command, "--max-n", MAX_N, *EXTRA[command], f"--lambda={lam}", "--format", fmt]
    assert run(argv + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[(command, fmt, lam)]


REPORT_COMMANDS = {
    "spivey-bell": ["verify", "--identity", "spivey-bell"],
    "spivey-rbell": ["verify", "--identity", "spivey-rbell"],
    "normal-order": ["verify", "--identity", "normal-order"],
    "commutation": ["verify", "--identity", "commutation"],
    "spivey-rbell-classical": [
        "verify", "--identity", "spivey-rbell", "--max-m", "3", "--max-n", "4", "--r", "2",
        "--lambda=-2/3", "--lambda=0",
    ],
    "oracle-check": ["oracle-check"],
}

REPORT_GOLDEN = {
    ("spivey-bell", "csv"): "a68eedaab652757e20b10651f9ce46de54d95a8eb5ed34cf06796f6fa3628e6b",
    ("spivey-bell", "json"): "9d14ad7b800e8c647e489bd797a0a56a64e1ac5d9baaae8c14a00bc0e37f74de",
    ("spivey-rbell", "csv"): "62a4cb03398e111d7206687f3f4ca563c897e81e775e5941e93d8528be5bd5d9",
    ("spivey-rbell", "json"): "53b50e29512f3ad60d7e4eedbedbfec78e469af5d9e69e1330ba3372bdb423c9",
    ("normal-order", "csv"): "e5988ba9301bce400d8baa8eb862c4a8c79427ac23696deaf57d471473e8f703",
    ("normal-order", "json"): "5b4656c251eabaf14fa26e720f0503fa805992324bfffd7bf562f0fd31333a70",
    ("commutation", "csv"): "80747101cf9ae20eb2614a8a927a917586dcba1ef73361402bfe6b443c82e2a2",
    ("commutation", "json"): "71fde1a1243b3673db00847cf5972faba8b0d0818876383ee72c870c594d889e",
    ("spivey-rbell-classical", "csv"): "e9ba1d8d564aea363e4bab6df3d1c9b626b3257492553729227a0d8bd1818847",
    ("spivey-rbell-classical", "json"): "997b5cccc9ef2b9b6fa427a707eb9c77eaef40e558c46f1bc19a31aa7904116e",
    ("oracle-check", "csv"): "3259cf7b351f3a5e4866a42c7e2e769b31bdfa3d33f8a6089e46349a64060a7a",
    ("oracle-check", "json"): "b1882830bdc035c3978cdc4728a78071487ca4e13a739fb1af2470df765d2087",
}


@pytest.mark.parametrize("name,fmt", sorted(REPORT_GOLDEN))
def test_report_stdout_matches_golden_digest(name, fmt, capsys):
    assert run(REPORT_COMMANDS[name] + ["--format", fmt]) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPORT_GOLDEN[(name, fmt)]


HELP_GOLDEN = {
    "--help": "118bbb7327e390ecb4e7e73dbf7552c9bfb83dfb499b29f50a46b699693f6e9d",
    "stirling --help": "d56e4bde873f1ebd68b6811612e00c37e3678328dcf15952d3b6c1f5d2cd4e86",
    "rstirling --help": "801551da676bad4f71e83769c96bf1047ae14a4294ff79cd070adc2a9ae681c3",
    "bell --help": "64ed3575ab00e57d4f74f5910c90cc4edbbb88aebbf6c77f050c3d53aa37f113",
    "rbell --help": "962e8174eda7f4e8edf44899b5442b039e35f10ad44ec8206cd82772dc8a79d7",
    "verify --help": "c3bd8923648a497d466ec6e637cc66fc02abf4460fe8829965a62c8ddc14cc6c",
    "oracle-check --help": "db65c0625e147d2af8ae0c1ef3325e2f9896f0d48ae2c6321b6e36b0136d775f",
}


@pytest.mark.parametrize("argv", sorted(HELP_GOLDEN))
def test_help_matches_golden_digest(argv, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    with pytest.raises(SystemExit) as exc:
        run(argv.split())
    assert exc.value.code == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == HELP_GOLDEN[argv]


# Failing runs: a fault planted by monkeypatch on a name each suite reads at
# call time, so a few cells fail. The digests pin every byte of a real
# suite's failure output: the params of each failure and their key order,
# both sides, the checked count, and the order the failures appear in.
def _off_by_x(fn, hit):
    """fn, with x added to its result wherever hit(*args) holds."""
    return lambda *args: fn(*args) + Poly.X if hit(*args) else fn(*args)


def _shifted_product_with_fault(hit):
    """OperatorWord.shifted_product, with the shift raised by 1 wherever
    hit(n, lam, shift) holds."""
    original = OperatorWord.shifted_product

    def faulty(cls, n, lam, shift=0):
        return original(n, lam, shift + 1 if hit(n, lam, shift) else shift)

    return classmethod(faulty)


HALF = F(1, 2)

FAULTS = {
    "spivey-bell": (
        ["verify", "--identity", "spivey-bell", "--max-m", "2", "--max-n", "2", "--lambda=1/2", "--lambda=0"],
        lambda: (identities, "spivey_rhs_bell", _off_by_x(
            identities.spivey_rhs_bell, lambda m, n, lam: (m, n, lam) == (1, 2, HALF))),
    ),
    "spivey-rbell": (
        ["verify", "--identity", "spivey-rbell", "--max-m", "2", "--max-n", "2", "--r", "2",
         "--lambda=0", "--lambda=1/2"],
        lambda: (identities, "spivey_rhs_rbell", _off_by_x(
            identities.spivey_rhs_rbell, lambda m, n, r, lam: (m, n, r) == (1, 2, 2))),
    ),
    "normal-order": (
        ["verify", "--identity", "normal-order", "--max-n", "3", "--r", "1", "--lambda=1/2", "--lambda=3"],
        lambda: (OperatorWord, "shifted_product", _shifted_product_with_fault(
            lambda n, lam, shift: (n, lam, shift) == (2, HALF, 1))),
    ),
    "commutation": (
        ["verify", "--identity", "commutation", "--max-k", "1", "--max-m", "1", "--max-n", "5",
         "--lambda=3", "--lambda=1/2"],
        lambda: (OperatorWord, "shifted_product", _shifted_product_with_fault(
            lambda n, lam, shift: (n, lam, shift) == (3, HALF, -1))),
    ),
    "oracle-check": (
        ["oracle-check", "--max-n", "3", "--r", "1", "--lambda=1/2", "--lambda=-2/3"],
        lambda: (identities, "extract_rbell_via_operators", _off_by_x(
            identities.extract_rbell_via_operators, lambda n, r, lam: (n, lam) == (2, HALF))),
    ),
}

FAILURE_GOLDEN = {
    ("commutation", "csv"): "6108d23073b723b0992ee67c8f3c2ac6dc4ae7266f9258605695ef2e1f5b7068",
    ("commutation", "json"): "b0cd9e8aeb1316406674766fa1ea23ebc5ca4f92cac08701302add6c0eadece1",
    ("normal-order", "csv"): "4b8f388003b78b8a6fd71d5ee3ae305cf2b3b0b3e90f8875839532a6b59960d5",
    ("normal-order", "json"): "c820668327ca101a207d0e13844a920c3bf2fa9cdd906ce347f7b49c18dd29ab",
    ("oracle-check", "csv"): "9188f3e6eb424273ba93260d372efe15d8a937c2b7363358b09ea09cb3f71cbb",
    ("oracle-check", "json"): "addaeb371202b253a135d7989135488eef52a03dcbba854bb874535a2db1bbfa",
    ("spivey-bell", "csv"): "f9313df0f7a157fc6b0db7536a1590578caf9c37c6addfb58e7e70a2f1cccfee",
    ("spivey-bell", "json"): "53b2e0e12139b513790380d7ed710b5c06d7d6bf4b761ff82665339e16fabff2",
    ("spivey-rbell", "csv"): "cfd8e1891545ed82d5c2e9cbd80c0e19cf86217e19fb5b0c943f8a07fdf98f70",
    ("spivey-rbell", "json"): "c7a1011dd7dd77a19c6019be4c05143acdadc598253f1af0ffef49cea5fde907",
}


@pytest.mark.parametrize("name,fmt", sorted(FAILURE_GOLDEN))
def test_failing_report_stdout_matches_golden_digest(name, fmt, monkeypatch, capsys):
    argv, fault = FAULTS[name]
    monkeypatch.setattr(*fault())
    assert run(argv + ["--format", fmt]) == 1
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == FAILURE_GOLDEN[(name, fmt)]
