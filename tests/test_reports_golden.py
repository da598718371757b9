"""Golden digests of CLI reports.

Each entry is an argv (split on spaces), the expected exit status, the
sha256 of the report printed on stdout and, for ``--input -`` cases, the
payload read from stdin.  The digests pin every report byte for byte, so a
refactor that changes no behaviour must leave them all unchanged.
"""

import hashlib
import io

import pytest
from report_json import canonical_report

from indalg import cli

GOLDEN = [
    ("verify-counterexample", 0,
     "67ea7a13d3c44065099bd28aed4fb921b47f76396ae3d1fa08eeccbb62366e51"),
    ("classify", 0,
     "09cfae30ac75b1d174b6a715e3fc2860a7ada96a77aabf621a549e08a113af68"),
    # deep sampled terms: h-indices up to ~22,600 bits, so long divisions and
    # the chunked path of the h-map's encoding run
    ("verify-counterexample --samples 50 --terms 40 --depth 9 --seed 7", 0,
     "f11c76766a55ca71cd82d9229a8df0c14db78582a366c22fb7931d59de22e5f9"),
    ("catalog", 0,
     "7bd07561afa02f809cd688525d33772d303604040d95ed661d19f1d0b6de9503"),
    ("catalog --check witness", 0,
     "783113fca13abab84ebdb8bbd4611d03e3afad69a3e0fff6b68a1ce8d8f23e17"),
    ("catalog --check clone", 0,
     "ae48676dba8f061c2c2d33beec513a78c6f4d19af81861722f9251299fa682e1"),
    ("catalog --check endos", 0,
     "ce0170df2ffa798afb63798fa7e272a46bf5c865639abe4fa5d9e284f2614e61"),
    ("decompose", 0,
     "83941615f09576db551cd56feb451a8693df6d585e471f15fc9744b498ff451b"),
    ("greens", 0,
     "46ad2ab92a9383e42ce785d6cc167e38289eac57d4742d86d11c1bd6407c4a29"),
    ("quotient eq", 0,
     "d7e40ee0d4b15cc30bc9c296128f4c8c1463b122b7887cfc6fdeadfdda4929ee"),
    ("quotient embed", 0,
     "86898ebe924e83d660314c96c45aba7f03b41dc14decd8d0c617568103bc9c09"),
    ("ore-check", 0,
     "5a445eb8348a2f1f5d9fac4d7c16e45cd158d0f874b9a7dd36b8ead9d1f9f42e"),
    ("suite", 0,
     "d4f9ce63c26c0d2b0128a0af19ab0dc9ebf27ee917022861e56c05ee94baeef5"),
    ("greens --backend matrix --side R", 0,
     "46ad2ab92a9383e42ce785d6cc167e38289eac57d4742d86d11c1bd6407c4a29"),
    ("greens --backend matrix --side L", 0,
     "98e6a6cf9f2e7682d05248139bb687607ea894dd778420a57be49d33f65aeb76"),
    ("greens --backend matrix --side Rstar", 0,
     "cfca40355a14270f97f43a2a3633b003a9ff68a13dbd1d89f13002c7f53954d6"),
    ("greens --backend matrix --side Lstar", 0,
     "e79ea08e7705e41ab1d80ee6ee16c0df9bcb4065318c73a0c558a114bb896505"),
    ("greens --backend act --side R", 0,
     "ff500238af2e507a0932740fbaa338e53e173158e6e41fcf119452788024a0e3"),
    ("greens --backend act --side L", 0,
     "39684ee723fcef707c31d8bb17f24c4575392889af74fc8110beb0370492eaa0"),
    ("greens --backend act --side Rstar", 0,
     "96933123f039360c4c25eae41a0823db44c7ec8a6d3ec81fbc09c4c5cfe91168"),
    ("greens --backend act --side Lstar", 0,
     "1f30e87ef61fc73bb399ffcd2a75c6f27fdc24b6fdf35b77a73a56ca18d99d04"),
    ("decompose --backend matrix --mode left", 0,
     "83941615f09576db551cd56feb451a8693df6d585e471f15fc9744b498ff451b"),
    ("decompose --backend matrix --mode right", 0,
     "695196f1ac417dd40911a0df861c5b8606b4acf673c3d84eb8449ef7043f419d"),
    ("decompose --backend matrix --mode straight", 0,
     "6df904e63a5da5d113775ad95fb89706cd6c43dba529362c2cf02c85e74fdb10"),
    ("decompose --backend act --mode left", 0,
     "2c13a6c100334a00f9b5527e2b5cf542b6253333a922088cc72a3977f9a02074"),
    ("quotient eq --backend matrix", 0,
     "d7e40ee0d4b15cc30bc9c296128f4c8c1463b122b7887cfc6fdeadfdda4929ee"),
    ("quotient eq --backend act", 0,
     "25d40237a1396ab5c509bdfe18ac4cca875d2edbe6be620719682233978dc1a1"),
    ("quotient embed --backend matrix", 0,
     "86898ebe924e83d660314c96c45aba7f03b41dc14decd8d0c617568103bc9c09"),
    ("quotient embed --backend act", 0,
     "99c4ea42d89ebaf0af0fabe2cb81e8040a801a363a55c19eb2df5b4d1fe748df"),
    ("ore-check --monoid posint --depth 3", 0,
     "879e1dc422722859c0b1f53766b0b34d07b0c39ada973837683cb8b7cd5d37ff"),
    ("ore-check --monoid free2 --depth 3", 0,
     "91fc53dd68a2b5bc32c5ec4046d91f092a59dcad5f53ba2e1bc09716b5284603"),
    ("ore-check --monoid free2 --depth 5", 0,
     "c28627e39284c7ff08f48048a7d14c4f998198db46ae2b3c46022b0e97faa244"),
    ("ore-check --monoid posint --depth 8", 0,
     "c208ad1a81ff59a5861b88bac13c45a8bfa59d51e6bb630807ded0dfccd292b8"),
    ("suite --backend matrix --samples 20", 0,
     "b73b8b9479a33387a6e25f6305e20587811bed7b1a0b365cfcaa61f5a485b0a6"),
    ("suite --backend act --samples 20", 0,
     "897b628cb5890b5402e6d571f69cf8b16fa845549e476c2fa5ea4f6f09151ede"),
    ("suite --backend act --samples 20 --format text", 0,
     "966032b8f9472f4017674ab7eec7aa9026373d24522164342a218975b846f915"),
    ("catalog --format text", 0,
     "ab0e92369191622ae24b0648be094b2b8072aaa5d3f7061b31bb80888dca992d"),
    ("suite --backend matrix --n 4 --samples 20", 0,
     "0265515d1d0ac66d859350f466046e2c70cf7cc0a33b37a2465ecea16fe6cb29"),
    ("suite --backend act --n 3 --samples 20", 0,
     "d61754fd23a2aff6460e130c5350b18acac870ba49c667eb6f773cae126a274d"),
    # long seeded streams: 200 samples reach far into each suite's draws,
    # so a sampler that reads its random stream differently moves the report
    ("suite --backend matrix --n 4 --samples 200 --seed 11", 0,
     "0db362089888666d326e84f769eef0997eafc791b32222357f1928fadd6c1359"),
    ("suite --backend act --n 3 --samples 200 --seed 11", 0,
     "544154da940dd4d65a6163e0689a5a31467556d0749b029a0a3bc2f6c90a4deb"),
    # catalog instances beyond the default list: a witness check with
    # violations, the 5-element field, a 9-element affine clone and the
    # 25-element affine and linear spaces, whose 15,625-entry ternary tables
    # take the 16-bit lanes of the composition kernel (the linear witness
    # has 775 basic ops and is decided on its 10 gen ops)
    ('catalog --kind linear --params {"q":3,"dim":2,"a0":[[1,0]]} '
     "--check witness --variant plus", 0,
     "74bc2aec366a9cb0b7eeba95992d28dd6f6cadefe846b1e37f8795e40afbd6b2"),
    ('catalog --kind linear --params {"q":5,"dim":1,"a0":[[1]]} --check witness', 0,
     "c081a9e36b18e7e837e508d9f8f4b7de42eb3dbf1220f0e49304b7a32fcfcbba"),
    ('catalog --kind affine --params {"q":3,"dim":2,"a0":[[1,0]]} --check clone', 0,
     "0f2abe9916c7b6feec2c6cb83e00cc2c54dde90426d78d6e1fc7f59a2ffac692"),
    ('catalog --kind affine --params {"q":5,"dim":2,"a0":[[1,0]]} --check witness', 0,
     "d37db64de4b15120bd66d08419a72eb152654e93509f33417560421e6e2d40d3"),
    ('catalog --kind affine --params {"q":5,"dim":2,"a0":[[1,0]]} --check endos', 0,
     "314581eca4adf332b3b0c0331f86bc0cef1deea75d8d142934721987b960d7d1"),
    ('catalog --kind linear --params {"q":5,"dim":2,"a0":[[1,0]]} --check witness', 0,
     "4303ab019eaad5d2ef3ba034232b67087402b05e9e676ea2a31f2934e5ae0059"),
    ("greens --backend matrix --side R --input -", 0,
     "136d42cf1d49c270e69145c2cc5c2da09483def74e4ed46f9800f9f8563ac5df",
     '{"a": [["1/2", "0"], ["0", "0"]], "b": [[1, 0], [0, 1]]}'),
    ("greens --backend matrix --side Lstar --input -", 0,
     "3d0715791ddc770e342c0cb11384233c8ef8e72550531670d246636481247f2f",
     '{"a": [[2, 4], [1, 2]], "b": [[1, 0], [0, 3]]}'),
    ("decompose --mode straight --input -", 0,
     "79189c2eb3215f0b6bfe0b41e1aa2503ae587f2b8ab956e353c6935c95746714",
     '{"alpha": [["1/3", 2, 0], [0, 0, 0], [1, "-1/2", 5]]}'),
    ("quotient eq --input -", 0,
     "9cc9831674087723626025ebe3a694f95df32439fe446ca2f016d281c2e24f3d",
     '{"p": {"t": 3, "v": [2, 4]}, "q": {"t": 6, "v": [4, 8]}}'),
]


@pytest.mark.parametrize("case", GOLDEN, ids=[c[0] for c in GOLDEN])
def test_report_digest(case, capsys, monkeypatch):
    argv, code, digest, *stdin = case
    if stdin:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin[0]))
    assert cli.run(argv.split()) == code
    out = capsys.readouterr().out
    if "--format text" not in argv:  # a stray byte shows as a diff, not a digest
        canonical_report(out)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# Starred Green's comparisons on rank-deficient 3x3 integer pairs whose
# column lattices are not saturated: one comparable and one incomparable
# pair per side.  The comparable Lstar pair holds only up to saturation
# (a's column lattice is not inside b's), which the one integer kernel of
# Lstar must see.
STARRED = [
    ("Rstar comparable", "Rstar",
     "33ba327bdcdd665e401daee70c80126b10086ff1691c80603a8fe36b341333b0",
     '{"a": [[2, 4, 0], [4, 8, 0], [0, 0, 0]], "b": [[2, 4, 0], [1, 2, 0], [0, 0, 3]]}'),
    ("Rstar incomparable", "Rstar",
     "a855370686bd5ec8707f8a7b2b9a41a281355bc80a7fd1fe1f51a09821b00819",
     '{"a": [[1, 1, 0], [2, 2, 0], [0, 0, 0]], "b": [[2, 4, 0], [1, 2, 0], [0, 0, 3]]}'),
    ("Lstar comparable", "Lstar",
     "f2dbbdb3c48a793cf1fdcf67d8c7fd7af36f93706d0258461d904b29861c0f70",
     '{"a": [[2, 4, 0], [0, 0, 0], [2, 4, 0]], "b": [[3, 0, 0], [0, 0, 0], [0, 3, 0]]}'),
    ("Lstar incomparable", "Lstar",
     "6fe05c4fae134d7098b13b8e72673f5094e8b9557a7fb355676edff7b94bb795",
     '{"a": [[2, 0, 0], [2, 0, 0], [0, 0, 0]], "b": [[3, 0, 0], [0, 0, 0], [0, 3, 0]]}'),
]


@pytest.mark.parametrize("case", STARRED, ids=[c[0] for c in STARRED])
def test_starred_report_digest(case, capsys, monkeypatch):
    _, side, digest, payload = case
    test_report_digest(
        (f"greens --backend matrix --side {side} --input -", 0, digest, payload),
        capsys, monkeypatch,
    )


# Rational rank-deficient payloads, so the rational row reduction under
# the unstarred Green's orders and the straight decomposition meets
# denominators, zero rows and dependent rows.  a = g @ b for a rank-one g,
# so a <=_R b holds and a <=_L b does not.
RANK_DEFICIENT_PAIR = (
    '{"a": [["2/3", "1/14", "7/10"], ["4/3", "1/7", "7/5"], [0, 0, 0]], '
    '"b": [["2/3", 0, "1/5"], [0, "1/7", 1], ["2/3", "1/7", "6/5"]]}'
)
RATIONAL = [
    ("greens R rank-deficient", "greens --side R --input -",
     "dd708c16d0e7de80ec804978dfc4805c8f39e707752b0564a29c299f70e15bc8",
     RANK_DEFICIENT_PAIR),
    ("greens L rank-deficient", "greens --side L --input -",
     "b262bd972fafdc6f536a088be52d9c3077dcffcbd248e9be4770168222016f55",
     RANK_DEFICIENT_PAIR),
    ("decompose straight rank-deficient", "decompose --mode straight --input -",
     "16b4848569478e8c8a1f19b545930dc341adb0b4b87b80e88fbda8e1495b64d8",
     '{"alpha": [["1/2", "1/3", 0, "-2/5"], [1, "2/3", 0, "-4/5"], '
     '[0, "1/7", "3/4", 0], ["1/2", "10/21", "3/4", "-2/5"]]}'),
]


@pytest.mark.parametrize("case", RATIONAL, ids=[c[0] for c in RATIONAL])
def test_rational_report_digest(case, capsys, monkeypatch):
    _, argv, digest, payload = case
    test_report_digest((argv, 0, digest, payload), capsys, monkeypatch)
