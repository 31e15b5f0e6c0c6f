"""Golden coefficient output: `qlab coeffs` JSON at T=12, byte for byte.

The expected strings were recorded from the Fraction-per-coefficient
series implementation.  Together the sides run every QSeries kernel the
identity builders call (mul_binomial, div_binomial, the full product,
+, -, scale and shift), the Laurent extraction (R33) and a finite sum
(R20), so any change to the coefficient representation must reproduce
them exactly.  inverse, truncate and negation, which no builder calls,
are checked against the reference kernels in test_series.py.
"""

import pytest

from qlab.cli import main

GOLDEN = [
    (
        "coeffs --id R02 --side rhs_nested --order 12 --a 1/2 --b=-7/3 --c 2/5".split(),
        """\
{
  "id": "R02",
  "side": "rhs_nested",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "17/10",
    "697/300",
    "-29971/9000",
    "3818863/270000",
    "-259999819/8100000",
    "16361552947/243000000",
    "-1057248188011/7290000000",
    "78705771127243/218700000000",
    "-5684347750972459/6561000000000",
    "384712151060779867/196830000000000",
    "-26396510909296400971/5904900000000000",
    "1875721656995120197723/177147000000000000",
    "-132155118261170167486699/5314410000000000000"
  ]
}
""",
    ),
    (
        "coeffs --id R04 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7".split(),
        """\
{
  "id": "R04",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "17/550",
    "119/5500",
    "-6137/165000",
    "3825527/34650000",
    "-1989389657/7276500000",
    "911419881587/1528065000000",
    "-39184792625347/29172150000000",
    "216608552131799747/67387666500000000",
    "-108047723177926134377/14151409965000000000",
    "52309793972431149561707/2971796092650000000000",
    "-25405398303468365589294737/624077179456500000000000",
    "12516710606319935928364326467/131056207685865000000000000",
    "-6155113153289373948792810779897/27521803614031650000000000000"
  ]
}
""",
    ),
    (
        "coeffs --id R20 --side lhs --order 12 --c 2/5 --d=-7/3 --N 4".split(),
        """\
{
  "id": "R20",
  "side": "lhs",
  "env": {
    "c": "2/5",
    "d": "-7/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "0",
    "-41/15",
    "-697/75",
    "-32882/1125",
    "-430664/5625",
    "-4771703/28125",
    "-150482218/421875",
    "-1449425686/2109375",
    "-13257168247/10546875",
    "-37881529873/17578125",
    "-2830230637714/791015625",
    "-22498405978553/3955078125"
  ]
}
""",
    ),
    (
        "coeffs --id R33 --side lhs --order 12 --N 4".split(),
        """\
{
  "id": "R33",
  "side": "lhs",
  "env": {},
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "2",
    "3",
    "6",
    "8",
    "15",
    "20",
    "29",
    "38",
    "51",
    "66",
    "89"
  ]
}
""",
    ),
    (
        "coeffs --id R41 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7".split(),
        """\
{
  "id": "R41",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "37/12",
    "685/168",
    "6563/1176",
    "834289/82320",
    "38188571/2881200",
    "332575249/16807000",
    "199087110707/7058940000",
    "9523166198023/247062900000",
    "221803607276161/4323600750000",
    "21161605895016883/302652052500000",
    "1961718114885888349/21185643675000000",
    "89309827691312296261/741497528625000000",
    "678876421809820837109/4325402250312500000"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[f"{a[2]}-{a[4]}" for a, _ in GOLDEN])
def test_coeffs_json_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
