"""Golden coefficient output: `qlab coeffs` JSON at T=12, byte for byte.

The expected strings were recorded from the Fraction-per-coefficient
series implementation.  Together the sides run every QSeries kernel the
identity builders call (apply_ratio, with its single-factor wrappers
mul_binomial and div_binomial and the Pochhammer quotients of poch_ratio,
+, -, scale and shift), the Laurent extraction (R33, and R34 through
the rank's sum of Laurent terms) and a finite sum (R20), so any change
to the coefficient representation must reproduce them exactly.  The
full product is reached only by R38's left side, the denominator-cleared
inversion rule; its case was recorded when the Pochhammer prefactors of
the other sides were still multiplied in.
inverse, truncate and negation, which no builder calls, are checked
against the reference kernels in test_series.py.

The Lambert-type sides (R01, R12, R14, R19 right sides, R43 left side)
were recorded from the loops over their numerators with closed-form
tails, before they became sums over the powers of their denominators;
the R19 case, a = 5/2, lies outside the convergence domain |a| < 1.

The finite sides normalised by a Pochhammer symbol (x)_N (R05 right
side, with its explicit first term, bracket weight and prefactor; R14
left side, which divides by (1 - a)) and R08's right side, which is
R07's at c = 1/z, were recorded while those sums still started from
(x)_N and divided it back out, and R08 still had builders of its own.

The double sums whose inner index enters only through a power of q or a
summation bound (R02's nested side, first in GOLDEN, and the INTERCHANGED
cases: R20's harmonic-weighted left side, the square sum of R23's right
side and R36's left side) were recorded while each inner sum was still
run from every outer term, before the sums were interchanged.

The Lambert-bracket sums of R02's and R03's right sides (last in GOLDEN;
R04's and R05's are pinned above) were recorded while each term was
carried to order T, before the terms carried the bracket's q^m.

R34's left side was recorded while each Laurent series was still laid
out over its occupied z-range and re-laid before each z-division, before
every series of order T took the one layout of width 2T + 2.

The 2-phi-1 blocks (BLOCKS: R20's right side, R22's left side, and the
d-q blocks of R26's and R32's left sides) were recorded while every inner
2-phi-1 still ran to about T/k terms in its untransformed form and the
d-q block had a builder of its own, before each became the terminating
sum that Euler's transformation gives, the d-q block at cutoff N = 2T.

The sums that several stated sides share (SHARED: R16's sides, R25's and
R28's left sides, R28's right side, R13's and R21's left sides, R42's
right side and R44's right side) were recorded while each of those sides
still wrote its sum out for itself, R42 had builders of its own and R44's
right side carried its prefactor in the first term, before each side
called the one parametric sum it specialises.

The limit sides that are their finite form at N = T + 1 and that no case
above pins (LIMITS: R09's sides, R15's right side, R18's left side and
R31's left side, which holds M(c)) were recorded while each still had
step code of its own, before each became the finite sum at that cutoff.

R24's sides (ENUMERATED, at T = 12 and T = 1) were recorded while each
side still read a tuple of parts per partition of T and counted its ones
and its last part above 1 in it, before the sweep read running profiles.

The sums once written out twice (COPIED: both sides of R37 and R39 at
N = 5, and R40's right side) were recorded while R39's two terminating
sums and the 2-phi-1 of R40's right side still had step code of their
own, before they became R37's terminating sum at r = 2 and the 2-phi-1
of R40's left side.
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
        "coeffs --id R34 --side lhs --order 12 --N 4".split(),
        """\
{
  "id": "R34",
  "side": "lhs",
  "env": {},
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "0",
    "1",
    "2",
    "4",
    "7",
    "11",
    "16",
    "24",
    "32",
    "45",
    "58",
    "77"
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
    (
        "coeffs --id R01 --side rhs --order 12 --a 1/2 --b=-1/3".split(),
        """\
{
  "id": "R01",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-1/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "5/4",
    "5/6",
    "35/36",
    "215/216",
    "1325/1296",
    "6755/7776",
    "53585/46656",
    "235595/279936",
    "1723505/1679616",
    "10051235/10077696",
    "60982985/60466176",
    "302510075/362797056",
    "2609764145/2176782336"
  ]
}
""",
    ),
    (
        "coeffs --id R12 --side rhs --order 12 --a 2/5 --b=-1/2 --N 4".split(),
        """\
{
  "id": "R12",
  "side": "rhs",
  "env": {
    "a": "2/5",
    "b": "-1/2"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "1",
    "9/10",
    "81/100",
    "1089/1000",
    "-1269/10000",
    "4149/100000",
    "87471/1000000",
    "94509/10000000",
    "-4015089/100000000",
    "191215269/1000000000",
    "406182951/10000000000",
    "53022429/100000000000",
    "-48656363409/1000000000000"
  ]
}
""",
    ),
    (
        "coeffs --id R14 --side rhs --order 12 --a=-7/3 --N 4".split(),
        """\
{
  "id": "R14",
  "side": "rhs",
  "env": {
    "a": "-7/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "-21/100",
    "-7/3",
    "77/9",
    "-364/9",
    "10486/81",
    "-84035/243",
    "228683/243",
    "-5764801/2187",
    "46896332/6561",
    "-40436956/2187",
    "2804331985/59049",
    "-21750594173/177147",
    "55557684994/177147"
  ]
}
""",
    ),
    (
        "coeffs --id R19 --side rhs --order 12 --a 5/2".split(),
        """\
{
  "id": "R19",
  "side": "rhs",
  "env": {
    "a": "5/2"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "10/9",
    "5/2",
    "15",
    "395/8",
    "685/4",
    "15705/32",
    "48855/32",
    "547195/128",
    "396105/32",
    "17603405/512",
    "49085805/512",
    "537114495/2048",
    "734145235/1024"
  ]
}
""",
    ),
    (
        "coeffs --id R43 --side lhs --order 12 --a 1/2 --N 5".split(),
        """\
{
  "id": "R43",
  "side": "lhs",
  "env": {
    "a": "1/2"
  },
  "N": 5,
  "T": 12,
  "coeffs": [
    "0",
    "1/2",
    "5/4",
    "11/8",
    "35/16",
    "63/32",
    "167/64",
    "127/128",
    "687/256",
    "959/512",
    "3039/1024",
    "2047/2048",
    "15551/4096"
  ]
}
""",
    ),
    (
        "coeffs --id R38 --side lhs --order 12 --a 1/2 --b=-7/3 --N 4".split(),
        """\
{
  "id": "R38",
  "side": "lhs",
  "env": {
    "a": "1/2",
    "b": "-7/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "1/2",
    "1/4",
    "0",
    "-1/8",
    "-7/12",
    "7/24",
    "-11/48",
    "-7/48",
    "119/144",
    "-7/36",
    "-7/36",
    "49/72",
    "-49/108"
  ]
}
""",
    ),
    (
        "coeffs --id R05 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7 --N 4".split(),
        """\
{
  "id": "R05",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "17/550",
    "119/5500",
    "-6137/165000",
    "3825527/34650000",
    "-2281772657/7276500000",
    "921968160587/1528065000000",
    "-440395024957817/320893650000000",
    "222952233121508747/67387666500000000",
    "-110557813829592753377/14151409965000000000",
    "53393318919580352490707/2971796092650000000000",
    "-25965506110283712018633737/624077179456500000000000",
    "12802968658806885733659975467/131056207685865000000000000",
    "-6295201558471856047158000638897/27521803614031650000000000000"
  ]
}
""",
    ),
    (
        "coeffs --id R14 --side lhs --order 12 --a=-7/3 --N 4".split(),
        """\
{
  "id": "R14",
  "side": "lhs",
  "env": {
    "a": "-7/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "-21/100",
    "-7/3",
    "77/9",
    "-364/9",
    "10486/81",
    "-84035/243",
    "228683/243",
    "-5764801/2187",
    "46896332/6561",
    "-40436956/2187",
    "2804331985/59049",
    "-21750594173/177147",
    "55557684994/177147"
  ]
}
""",
    ),
    (
        "coeffs --id R08 --side rhs --order 12 --z 1/2 --N 3".split(),
        """\
{
  "id": "R08",
  "side": "rhs",
  "env": {
    "z": "1/2"
  },
  "N": 3,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "5/2",
    "21/4",
    "85/8",
    "341/16",
    "1413/32",
    "5637/64",
    "22885/128",
    "91749/256",
    "369445/512",
    "1478949/1024",
    "5938853/2048"
  ]
}
""",
    ),
    (
        "coeffs --id R02 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5".split(),
        """\
{
  "id": "R02",
  "side": "rhs",
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
        "coeffs --id R03 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --N 4".split(),
        """\
{
  "id": "R03",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "17/10",
    "697/300",
    "-29971/9000",
    "3818863/270000",
    "-287080819/8100000",
    "15627611947/243000000",
    "-1061821205011/7290000000",
    "77203619728243/218700000000",
    "-5571564936385459/6561000000000",
    "379269081839248867/196830000000000",
    "-26034304658632397971/5904900000000000",
    "1851061702792651858723/177147000000000000",
    "-130417137944782223179699/5314410000000000000"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", GOLDEN, ids=[f"{a[2]}-{a[4]}" for a, _ in GOLDEN])
def test_coeffs_json_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


INTERCHANGED = [
    (
        "coeffs --id R20 --side lhs --order 12 --c 2/5 --d=-7/3 --N 5".split(),
        """\
{
  "id": "R20",
  "side": "lhs",
  "env": {
    "c": "2/5",
    "d": "-7/3"
  },
  "N": 5,
  "T": 12,
  "coeffs": [
    "0",
    "0",
    "-41/15",
    "-697/75",
    "-32882/1125",
    "-430664/5625",
    "-4848578/28125",
    "-157093468/421875",
    "-1559126311/2109375",
    "-14782803872/10546875",
    "-132590407744/52734375",
    "-3447561718339/791015625",
    "-28858647905428/3955078125"
  ]
}
""",
    ),
    (
        "coeffs --id R23 --side rhs --order 12 --d 3/7".split(),
        """\
{
  "id": "R23",
  "side": "rhs",
  "env": {
    "d": "3/7"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "3",
    "43/7",
    "94/7",
    "170/7",
    "2274/49",
    "3847/49",
    "6641/49",
    "10800/49",
    "122637/343",
    "191259/343",
    "298502/343"
  ]
}
""",
    ),
    (
        "coeffs --id R36 --side lhs --order 12".split(),
        """\
{
  "id": "R36",
  "side": "lhs",
  "env": {},
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "0",
    "1",
    "3",
    "7",
    "14",
    "26",
    "45",
    "75",
    "120",
    "187",
    "284",
    "423"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", INTERCHANGED, ids=["R20-lhs-N5", "R23-rhs", "R36-lhs"])
def test_interchanged_double_sums_are_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


BLOCKS = [
    (
        "coeffs --id R20 --side rhs --order 12 --c 4/7 --d=-5/3 --N 4".split(),
        """\
{
  "id": "R20",
  "side": "rhs",
  "env": {
    "c": "4/7",
    "d": "-5/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "0",
    "-47/21",
    "-1175/147",
    "-73978/3087",
    "-1323050/21609",
    "-20494303/151263",
    "-887869856/3176523",
    "-11846185312/22235661",
    "-150231352955/155649627",
    "-599887472515/363182463",
    "-62435793344248/22880495169",
    "-693786721268761/160163466183"
  ]
}
""",
    ),
    (
        "coeffs --id R22 --side lhs --order 12 --c 4/7 --d=-5/3 --N 4".split(),
        """\
{
  "id": "R22",
  "side": "lhs",
  "env": {
    "c": "4/7",
    "d": "-5/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "-47/21",
    "-1175/147",
    "-85493/3087",
    "-1477351/21609",
    "-23884319/151263",
    "-346928150/1058841",
    "-14143439327/22235661",
    "-177824360551/155649627",
    "-2150420901635/1089547389",
    "-74600281961263/22880495169",
    "-275849376130403/53387822061",
    "-2962783146349081/373714754427"
  ]
}
""",
    ),
    (
        "coeffs --id R26 --side lhs --order 12 --d=-5/3".split(),
        """\
{
  "id": "R26",
  "side": "lhs",
  "env": {
    "d": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-2/3",
    "-2/3",
    "-32/9",
    "-10/9",
    "-52/9",
    "-64/9",
    "-236/27",
    "-178/27",
    "-134/9",
    "-1996/81",
    "-1120/81",
    "-808/27"
  ]
}
""",
    ),
    (
        "coeffs --id R32 --side lhs --order 12 --c 4/7 --d=-5/3".split(),
        """\
{
  "id": "R32",
  "side": "lhs",
  "env": {
    "c": "4/7",
    "d": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-47/21",
    "-1175/147",
    "-85493/3087",
    "-1477351/21609",
    "-24222860/151263",
    "-365660752/1058841",
    "-15553124051/22235661",
    "-209324584978/155649627",
    "-2721745852951/1089547389",
    "-102831006055843/22880495169",
    "-1256808660489691/160163466183",
    "-15017802662552393/1121144263281"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", BLOCKS, ids=["R20-rhs-N4", "R22-lhs-N4", "R26-lhs", "R32-lhs"])
def test_two_phi_one_blocks_are_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


SHARED = [
    (
        "coeffs --id R16 --side lhs --order 12 --a=-5/3".split(),
        """\
{
  "id": "R16",
  "side": "lhs",
  "env": {
    "a": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-5/3",
    "-5/3",
    "-40/9",
    "-5/3",
    "-40/9",
    "-170/27",
    "-40/9",
    "-5/3",
    "-245/27",
    "-760/81",
    "-40/9",
    "-170/27"
  ]
}
""",
    ),
    (
        "coeffs --id R16 --side rhs --order 12 --a=-5/3".split(),
        """\
{
  "id": "R16",
  "side": "rhs",
  "env": {
    "a": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-5/3",
    "-5/3",
    "-40/9",
    "-5/3",
    "-40/9",
    "-170/27",
    "-40/9",
    "-5/3",
    "-245/27",
    "-760/81",
    "-40/9",
    "-170/27"
  ]
}
""",
    ),
    (
        "coeffs --id R25 --side lhs --order 12".split(),
        """\
{
  "id": "R25",
  "side": "lhs",
  "env": {},
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "2",
    "5",
    "10",
    "19",
    "35",
    "60",
    "100",
    "163",
    "259",
    "402",
    "615"
  ]
}
""",
    ),
    (
        "coeffs --id R28 --side lhs --order 12 --d=-5/3".split(),
        """\
{
  "id": "R28",
  "side": "lhs",
  "env": {
    "d": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-5/3",
    "-5/9",
    "-185/27",
    "385/81",
    "-3500/243",
    "8860/729",
    "-76565/2187",
    "370270/6561",
    "-1875245/19683",
    "7796725/59049",
    "-43841195/177147",
    "224615155/531441"
  ]
}
""",
    ),
    (
        "coeffs --id R28 --side rhs --order 12 --d=-5/3".split(),
        """\
{
  "id": "R28",
  "side": "rhs",
  "env": {
    "d": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-5/3",
    "-5/9",
    "-185/27",
    "385/81",
    "-3500/243",
    "8860/729",
    "-76565/2187",
    "370270/6561",
    "-1875245/19683",
    "7796725/59049",
    "-43841195/177147",
    "224615155/531441"
  ]
}
""",
    ),
    (
        "coeffs --id R13 --side lhs --order 12 --a=-5/3 --N 4".split(),
        """\
{
  "id": "R13",
  "side": "lhs",
  "env": {
    "a": "-5/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "-5/3",
    "10/9",
    "-170/27",
    "715/81",
    "-3125/243",
    "14275/729",
    "-78125/2187",
    "459475/6561",
    "-2044250/19683",
    "9006250/59049",
    "-48828125/177147",
    "257171500/531441"
  ]
}
""",
    ),
    (
        "coeffs --id R21 --side lhs --order 12 --c 4/7 --d=-5/3 --N 4".split(),
        """\
{
  "id": "R21",
  "side": "lhs",
  "env": {
    "c": "4/7",
    "d": "-5/3"
  },
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "-47/21",
    "-517/147",
    "-24628/3087",
    "-255116/21609",
    "-2664806/151263",
    "-80792060/3176523",
    "-758306272/22235661",
    "-6230293445/155649627",
    "-53190362903/1089547389",
    "-1367329577161/22880495169",
    "-9830503678780/160163466183",
    "-73995692233124/1121144263281"
  ]
}
""",
    ),
    (
        "coeffs --id R42 --side rhs --order 12 --N 4".split(),
        """\
{
  "id": "R42",
  "side": "rhs",
  "env": {},
  "N": 4,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "2",
    "2",
    "3",
    "1",
    "3",
    "1",
    "3",
    "2",
    "2",
    "1",
    "4"
  ]
}
""",
    ),
    (
        "coeffs --id R44 --side rhs --order 12 --d=-5/3".split(),
        """\
{
  "id": "R44",
  "side": "rhs",
  "env": {
    "d": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "1/3",
    "28/9",
    "-59/27",
    "502/81",
    "-1268/243",
    "10768/729",
    "-52787/2187",
    "267013/6561",
    "-1104458/19683",
    "6184708/59049",
    "-31821668/177147"
  ]
}
""",
    ),
]


SHARED_IDS = ["R16-lhs", "R16-rhs", "R25-lhs", "R28-lhs", "R28-rhs", "R13-lhs-N4", "R21-lhs-N4",
              "R42-rhs-N4", "R44-rhs"]


@pytest.mark.parametrize("argv, expected", SHARED, ids=SHARED_IDS)
def test_shared_sums_are_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


LIMITS = [
    (
        "coeffs --id R09 --side lhs --order 12 --z 2/5 --c=-7/3".split(),
        """\
{
  "id": "R09",
  "side": "lhs",
  "env": {
    "c": "-7/3",
    "z": "2/5"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-14/15",
    "406/225",
    "-14714/3375",
    "556066/50625",
    "-19215854/759375",
    "654850126/11390625",
    "-23025982994/170859375",
    "815700580786/2562890625",
    "-28522029146534/38443359375",
    "992993128677046/576650390625",
    "-34772830546781474/8649755859375",
    "1220004971096404906/129746337890625"
  ]
}
""",
    ),
    (
        "coeffs --id R09 --side rhs --order 12 --z 2/5 --c=-7/3".split(),
        """\
{
  "id": "R09",
  "side": "rhs",
  "env": {
    "c": "-7/3",
    "z": "2/5"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-14/15",
    "406/225",
    "-14714/3375",
    "556066/50625",
    "-19215854/759375",
    "654850126/11390625",
    "-23025982994/170859375",
    "815700580786/2562890625",
    "-28522029146534/38443359375",
    "992993128677046/576650390625",
    "-34772830546781474/8649755859375",
    "1220004971096404906/129746337890625"
  ]
}
""",
    ),
    (
        "coeffs --id R15 --side rhs --order 12 --a 1/2 --b=-7/3".split(),
        """\
{
  "id": "R15",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "1",
    "-11/6",
    "22/9",
    "-913/108",
    "3443/162",
    "-45529/972",
    "617507/5832",
    "-2205379/8748",
    "31678097/52488",
    "-110011297/78732",
    "3048547711/944784",
    "-10717273193/1417176",
    "150772764571/8503056"
  ]
}
""",
    ),
    (
        "coeffs --id R18 --side lhs --order 12 --a=-5/3".split(),
        """\
{
  "id": "R18",
  "side": "lhs",
  "env": {
    "a": "-5/3"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "-5/3",
    "10/9",
    "-170/27",
    "715/81",
    "-3530/243",
    "13060/729",
    "-81770/2187",
    "448540/6561",
    "-2077055/19683",
    "9071860/59049",
    "-49123370/177147",
    "257761990/531441"
  ]
}
""",
    ),
    (
        "coeffs --id R31 --side lhs --order 12 --c 2/5".split(),
        """\
{
  "id": "R31",
  "side": "lhs",
  "env": {
    "c": "2/5"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "2/5",
    "24/25",
    "198/125",
    "1596/625",
    "10942/3125",
    "78884/15625",
    "504018/78125",
    "3390536/390625",
    "21087322/1953125",
    "135687144/9765625",
    "821468038/48828125",
    "5174936076/244140625"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", LIMITS, ids=[f"{a[2]}-{a[4]}" for a, _ in LIMITS])
def test_limit_sides_are_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


ENUMERATED = [
    (
        "coeffs --id R24 --side lhs --order 12".split(),
        """\
{
  "id": "R24",
  "side": "lhs",
  "env": {},
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "3",
    "5",
    "10",
    "14",
    "26",
    "35",
    "57",
    "80",
    "119",
    "161",
    "238"
  ]
}
""",
    ),
    (
        "coeffs --id R24 --side rhs --order 12".split(),
        """\
{
  "id": "R24",
  "side": "rhs",
  "env": {},
  "N": null,
  "T": 12,
  "coeffs": [
    "0",
    "1",
    "3",
    "5",
    "10",
    "14",
    "26",
    "35",
    "57",
    "80",
    "119",
    "161",
    "238"
  ]
}
""",
    ),
    (
        "coeffs --id R24 --side lhs --order 1".split(),
        """\
{
  "id": "R24",
  "side": "lhs",
  "env": {},
  "N": null,
  "T": 1,
  "coeffs": [
    "0",
    "1"
  ]
}
""",
    ),
    (
        "coeffs --id R24 --side rhs --order 1".split(),
        """\
{
  "id": "R24",
  "side": "rhs",
  "env": {},
  "N": null,
  "T": 1,
  "coeffs": [
    "0",
    "1"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", ENUMERATED, ids=[f"{a[2]}-{a[4]}-T{a[6]}" for a, _ in ENUMERATED])
def test_enumerated_sides_are_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


COPIED = [
    (
        "coeffs --id R37 --side lhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7 --z=-5/4 --N 5".split(),
        """\
{
  "id": "R37",
  "side": "lhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7",
    "z": "-5/4"
  },
  "N": 5,
  "T": 12,
  "coeffs": [
    "-146/29",
    "-233575/22736",
    "-1271975/139258",
    "-40191288325/873426176",
    "-526319491025/21398941312",
    "-2986928727821625/33553539977216",
    "-151573188247583625/1644123458883584",
    "-232694136808216972125/1288992791764729856",
    "-1491147878499367278375/15790161699117940736",
    "-14396272146409230311342625/49517947088433862148096",
    "-857075150863619858229366375/2426379407333259245256704",
    "-708027770255626932976367965125/1902281455349275248281255936",
    "-19868568378554680184724764734125/46605895656057243582890770432"
  ]
}
""",
    ),
    (
        "coeffs --id R37 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7 --z=-5/4 --N 5".split(),
        """\
{
  "id": "R37",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7",
    "z": "-5/4"
  },
  "N": 5,
  "T": 12,
  "coeffs": [
    "-146/29",
    "-233575/22736",
    "-1271975/139258",
    "-40191288325/873426176",
    "-526319491025/21398941312",
    "-2986928727821625/33553539977216",
    "-151573188247583625/1644123458883584",
    "-232694136808216972125/1288992791764729856",
    "-1491147878499367278375/15790161699117940736",
    "-14396272146409230311342625/49517947088433862148096",
    "-857075150863619858229366375/2426379407333259245256704",
    "-708027770255626932976367965125/1902281455349275248281255936",
    "-19868568378554680184724764734125/46605895656057243582890770432"
  ]
}
""",
    ),
    (
        "coeffs --id R39 --side lhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7 --N 5".split(),
        """\
{
  "id": "R39",
  "side": "lhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7"
  },
  "N": 5,
  "T": 12,
  "coeffs": [
    "37/12",
    "685/168",
    "6563/1176",
    "834289/82320",
    "38188571/2881200",
    "396070061/25210500",
    "131405921957/7058940000",
    "5306698068023/247062900000",
    "178364937466697/8647201500000",
    "2165057116272711/100884017500000",
    "457472390973260849/21185643675000000",
    "1715530267249038517/92687191078125000",
    "215595145925671422577/12976206750937500000"
  ]
}
""",
    ),
    (
        "coeffs --id R39 --side rhs --order 12 --a 1/2 --b=-7/3 --c 2/5 --d 3/7 --N 5".split(),
        """\
{
  "id": "R39",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-7/3",
    "c": "2/5",
    "d": "3/7"
  },
  "N": 5,
  "T": 12,
  "coeffs": [
    "37/12",
    "685/168",
    "6563/1176",
    "834289/82320",
    "38188571/2881200",
    "396070061/25210500",
    "131405921957/7058940000",
    "5306698068023/247062900000",
    "178364937466697/8647201500000",
    "2165057116272711/100884017500000",
    "457472390973260849/21185643675000000",
    "1715530267249038517/92687191078125000",
    "215595145925671422577/12976206750937500000"
  ]
}
""",
    ),
    (
        "coeffs --id R40 --side rhs --order 12 --a 1/2 --b=-2/3 --c 2/5 --d 3/7".split(),
        """\
{
  "id": "R40",
  "side": "rhs",
  "env": {
    "a": "1/2",
    "b": "-2/3",
    "c": "2/5",
    "d": "3/7"
  },
  "N": null,
  "T": 12,
  "coeffs": [
    "49/24",
    "145/112",
    "2119/1176",
    "384439/164640",
    "1459483/480200",
    "253049673/67228000",
    "68399647657/14117880000",
    "726042976487/123531450000",
    "42119727170049/5764801000000",
    "1343289444837077/151326026250000",
    "457072436185136999/42371287350000000",
    "4779067225114956059/370748764312500000",
    "808706580634647836179/51904827003750000000"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", COPIED, ids=[f"{a[2]}-{a[4]}" for a, _ in COPIED])
def test_sums_once_copied_are_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


# R34's left side at T = 16 = 4^2, N = 4, where the rank's Horner form keeps
# a level n = 4 with n^2 = T; recorded before term_sum became nested.  That
# level adds only q^T z^0, which the positive moment drops, so no coeffs
# output shows it: test_laurent.py checks the bivariate series itself
HORNER_CAP = [
    (
        "coeffs --id R34 --side lhs --order 16 --N 4".split(),
        """\
{
  "id": "R34",
  "side": "lhs",
  "env": {},
  "N": 4,
  "T": 16,
  "coeffs": [
    "0",
    "0",
    "1",
    "2",
    "4",
    "7",
    "11",
    "16",
    "24",
    "32",
    "45",
    "58",
    "77",
    "96",
    "123",
    "151",
    "188"
  ]
}
""",
    ),
]


@pytest.mark.parametrize("argv, expected", HORNER_CAP, ids=["R34-lhs-T16"])
def test_rank_horner_cap_is_byte_identical(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
