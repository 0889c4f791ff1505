"""Pinned transcripts: the exact stdout and exit code of the CHECK-emitting
commands.

Every CHECK and NOTE line of `paper-suite` (default and zero budget),
`coxeter` on every type it accepts (A1-A8, B2-B8, C2-C8, D4-D8,
E6-E8, F4 and G2), `steinberg` on each rank and check, and
`fold` on each tabled folding and the identity is compared byte for byte,
and so are the empty output and exit 2 of an unsupported type, rank or
folding, each with one `error:` line on stderr.  `fold` refuses a label with
a leading zero and a rank above 256; A20000 is refused before its
rank^2 Cartan rows are built.  The largest folds within that bound,
`fold A255 flip` (C128) and `fold D256 identity`, are pinned too.
The stderr line of four fold refusals is pinned as well: a source that is
not simply laced (`fold B3 identity`), a flip with no name (`fold D5 flip`),
an unsupported type (`fold E9 identity`) and an orbit of adjacent nodes
(`fold A4 flip`).
A8 also runs the braid and Coxeter-element checks one at a time, to pin the
`--check` selection.
"""

import pytest

from vancyc.cli import main

TRANSCRIPTS = {
    'paper-suite --notes': (0, """\
CHECK involutivity pass expected=0;0 got=0;0
CHECK discriminant-basic pass expected=gen=s1;mult=1 got=gen=s1;mult=1
CHECK discriminant-al6 pass expected=gen=s1^2*s2-s1*s2^2;mult=3 got=gen=s1^2*s2-s1*s2^2;mult=3
CHECK arnold-liouville-binomial pass expected=3,4,6 got=3,4,6
CHECK henon-heiles pass expected=mult=4 got=mult=4
CHECK milnor-baseline pass expected=1,2,non-isolated got=1,2,non-isolated
CHECK braid-relations pass expected=8/8 got=8/8
CHECK weyl-orders pass expected=6,8,12,24,192,1152,51840,2903040,696729600 got=6,8,12,24,192,1152,51840,2903040,696729600
CHECK picard-lefschetz pass expected=true got=true
CHECK variation-matrix pass expected=true got=true
CHECK folding-groups pass expected=D4>G2:6:S3;E6>F4:2;A3>C2:2;id:trivial;rank:ok got=D4>G2:6:S3;E6>F4:2;A3>C2:2;id:trivial;rank:ok
CHECK steinberg-suite pass expected=ranks=1,2;mults=1,2;casimirs=true;slice=true got=ranks=1,2;mults=1,2;casimirs=true;slice=true
NOTE arnold-liouville-binomial k=2 cases eliminated; k=3 value is C(4,2) by construction
NOTE henon-heiles eliminated discriminant s1^4*s2+16/27*s2^4; the literature prints the same line-plus-cusp curve as s2*(s2^3-s1^4)
NOTE weyl-orders orbit-stabilizer on fundamental weights; stabilizer chain on the roots cross-checks A2,B2,G2,A3,D4,F4
NOTE picard-lefschetz types A2,A3,D4
NOTE variation-matrix diagonals -1; dets 1,-1,1
NOTE folding-groups abelian flags: D4-full=nonabelian
NOTE steinberg-suite slice quadratic block rank 3
"""),
    'paper-suite --budget 0 --notes': (3, """\
CHECK involutivity pass expected=0;0 got=0;0
CHECK discriminant-basic skipped-budget expected=gen=s1;mult=1 got=none
CHECK discriminant-al6 skipped-budget expected=mult=3 got=mult=3
CHECK arnold-liouville-binomial skipped-budget expected=3,4,6 got=3,4,6
CHECK henon-heiles skipped-budget expected=mult=4 got=none
CHECK milnor-baseline pass expected=1,2,non-isolated got=1,2,non-isolated
CHECK braid-relations pass expected=8/8 got=8/8
CHECK weyl-orders pass expected=6,8,12,24,192,1152,51840,2903040,696729600 got=6,8,12,24,192,1152,51840,2903040,696729600
CHECK picard-lefschetz pass expected=true got=true
CHECK variation-matrix pass expected=true got=true
CHECK folding-groups pass expected=D4>G2:6:S3;E6>F4:2;A3>C2:2;id:trivial;rank:ok got=D4>G2:6:S3;E6>F4:2;A3>C2:2;id:trivial;rank:ok
CHECK steinberg-suite skipped-budget expected=ranks=1,2;mults=1,2;casimirs=true;slice=true got=none
NOTE discriminant-basic elimination stopped after 0 S-pairs
NOTE discriminant-al6 elimination stopped after 0 S-pairs; mult is C(3,1) by construction
NOTE arnold-liouville-binomial elimination budget exhausted; every value is C(n,k-1) by construction
NOTE henon-heiles elimination stopped after 0 S-pairs
NOTE weyl-orders orbit-stabilizer on fundamental weights; stabilizer chain on the roots cross-checks A2,B2,G2,A3,D4,F4
NOTE picard-lefschetz types A2,A3,D4
NOTE variation-matrix diagonals -1; dets 1,-1,1
NOTE folding-groups abelian flags: D4-full=nonabelian
NOTE steinberg-suite elimination stopped after 0 S-pairs
"""),
    'coxeter A1 --notes': (0, """\
CHECK braid-A1 pass expected=true got=true
CHECK order-A1 pass expected=2 got=2
CHECK coxeter-element-A1 pass expected=2 got=2
"""),
    'coxeter A2 --notes': (0, """\
CHECK braid-A2 pass expected=true got=true
CHECK order-A2 pass expected=6 got=6
CHECK coxeter-element-A2 pass expected=3 got=3
"""),
    'coxeter A3 --notes': (0, """\
CHECK braid-A3 pass expected=true got=true
CHECK order-A3 pass expected=24 got=24
CHECK coxeter-element-A3 pass expected=4 got=4
"""),
    'coxeter A4 --notes': (0, """\
CHECK braid-A4 pass expected=true got=true
CHECK order-A4 pass expected=120 got=120
CHECK coxeter-element-A4 pass expected=5 got=5
"""),
    'coxeter A5 --notes': (0, """\
CHECK braid-A5 pass expected=true got=true
CHECK order-A5 pass expected=720 got=720
CHECK coxeter-element-A5 pass expected=6 got=6
"""),
    'coxeter A6 --notes': (0, """\
CHECK braid-A6 pass expected=true got=true
CHECK order-A6 pass expected=5040 got=5040
CHECK coxeter-element-A6 pass expected=7 got=7
"""),
    'coxeter A7 --notes': (0, """\
CHECK braid-A7 pass expected=true got=true
CHECK order-A7 pass expected=40320 got=40320
CHECK coxeter-element-A7 pass expected=8 got=8
"""),
    'coxeter A8 --notes': (0, """\
CHECK braid-A8 pass expected=true got=true
CHECK order-A8 pass expected=362880 got=362880
CHECK coxeter-element-A8 pass expected=9 got=9
"""),
    'coxeter A8 --check braid --notes': (0, """\
CHECK braid-A8 pass expected=true got=true
"""),
    'coxeter A8 --check coxeter-element --notes': (0, """\
CHECK coxeter-element-A8 pass expected=9 got=9
"""),
    'coxeter B2 --notes': (0, """\
CHECK braid-B2 pass expected=true got=true
CHECK order-B2 pass expected=8 got=8
CHECK coxeter-element-B2 pass expected=4 got=4
"""),
    'coxeter B3 --notes': (0, """\
CHECK braid-B3 pass expected=true got=true
CHECK order-B3 pass expected=48 got=48
CHECK coxeter-element-B3 pass expected=6 got=6
"""),
    'coxeter B4 --notes': (0, """\
CHECK braid-B4 pass expected=true got=true
CHECK order-B4 pass expected=384 got=384
CHECK coxeter-element-B4 pass expected=8 got=8
"""),
    'coxeter B5 --notes': (0, """\
CHECK braid-B5 pass expected=true got=true
CHECK order-B5 pass expected=3840 got=3840
CHECK coxeter-element-B5 pass expected=10 got=10
"""),
    'coxeter B6 --notes': (0, """\
CHECK braid-B6 pass expected=true got=true
CHECK order-B6 pass expected=46080 got=46080
CHECK coxeter-element-B6 pass expected=12 got=12
"""),
    'coxeter B7 --notes': (0, """\
CHECK braid-B7 pass expected=true got=true
CHECK order-B7 pass expected=645120 got=645120
CHECK coxeter-element-B7 pass expected=14 got=14
"""),
    'coxeter B8 --notes': (0, """\
CHECK braid-B8 pass expected=true got=true
CHECK order-B8 pass expected=10321920 got=10321920
CHECK coxeter-element-B8 pass expected=16 got=16
"""),
    'coxeter C2 --notes': (0, """\
CHECK braid-C2 pass expected=true got=true
CHECK order-C2 pass expected=8 got=8
CHECK coxeter-element-C2 pass expected=4 got=4
"""),
    'coxeter C3 --notes': (0, """\
CHECK braid-C3 pass expected=true got=true
CHECK order-C3 pass expected=48 got=48
CHECK coxeter-element-C3 pass expected=6 got=6
"""),
    'coxeter C4 --notes': (0, """\
CHECK braid-C4 pass expected=true got=true
CHECK order-C4 pass expected=384 got=384
CHECK coxeter-element-C4 pass expected=8 got=8
"""),
    'coxeter C5 --notes': (0, """\
CHECK braid-C5 pass expected=true got=true
CHECK order-C5 pass expected=3840 got=3840
CHECK coxeter-element-C5 pass expected=10 got=10
"""),
    'coxeter C6 --notes': (0, """\
CHECK braid-C6 pass expected=true got=true
CHECK order-C6 pass expected=46080 got=46080
CHECK coxeter-element-C6 pass expected=12 got=12
"""),
    'coxeter C7 --notes': (0, """\
CHECK braid-C7 pass expected=true got=true
CHECK order-C7 pass expected=645120 got=645120
CHECK coxeter-element-C7 pass expected=14 got=14
"""),
    'coxeter C8 --notes': (0, """\
CHECK braid-C8 pass expected=true got=true
CHECK order-C8 pass expected=10321920 got=10321920
CHECK coxeter-element-C8 pass expected=16 got=16
"""),
    'coxeter D4 --notes': (0, """\
CHECK braid-D4 pass expected=true got=true
CHECK order-D4 pass expected=192 got=192
CHECK coxeter-element-D4 pass expected=6 got=6
"""),
    'coxeter D5 --notes': (0, """\
CHECK braid-D5 pass expected=true got=true
CHECK order-D5 pass expected=1920 got=1920
CHECK coxeter-element-D5 pass expected=8 got=8
"""),
    'coxeter D6 --notes': (0, """\
CHECK braid-D6 pass expected=true got=true
CHECK order-D6 pass expected=23040 got=23040
CHECK coxeter-element-D6 pass expected=10 got=10
"""),
    'coxeter D7 --notes': (0, """\
CHECK braid-D7 pass expected=true got=true
CHECK order-D7 pass expected=322560 got=322560
CHECK coxeter-element-D7 pass expected=12 got=12
"""),
    'coxeter D8 --notes': (0, """\
CHECK braid-D8 pass expected=true got=true
CHECK order-D8 pass expected=5160960 got=5160960
CHECK coxeter-element-D8 pass expected=14 got=14
"""),
    'coxeter E6 --notes': (0, """\
CHECK braid-E6 pass expected=true got=true
CHECK order-E6 pass expected=51840 got=51840
CHECK coxeter-element-E6 pass expected=12 got=12
"""),
    'coxeter F4 --notes': (0, """\
CHECK braid-F4 pass expected=true got=true
CHECK order-F4 pass expected=1152 got=1152
CHECK coxeter-element-F4 pass expected=12 got=12
"""),
    'coxeter G2 --notes': (0, """\
CHECK braid-G2 pass expected=true got=true
CHECK order-G2 pass expected=12 got=12
CHECK coxeter-element-G2 pass expected=6 got=6
"""),
    'coxeter E7 --notes': (0, """\
CHECK braid-E7 pass expected=true got=true
CHECK order-E7 pass expected=2903040 got=2903040
CHECK coxeter-element-E7 pass expected=18 got=18
"""),
    'coxeter E8 --notes': (0, """\
CHECK braid-E8 pass expected=true got=true
CHECK order-E8 pass expected=696729600 got=696729600
CHECK coxeter-element-E8 pass expected=30 got=30
"""),
    'coxeter A9 --notes': (2, ""),
    'steinberg --rank 1 --check casimir --notes': (0, """\
CHECK steinberg-casimir pass expected=true got=true
NOTE steinberg-casimir 1 component(s) against the Lie-Poisson bracket
"""),
    'steinberg --rank 1 --check rank --notes': (0, """\
CHECK steinberg-rank-subregular pass expected=0 got=0
CHECK steinberg-rank-regular pass expected=1 got=1
"""),
    'steinberg --rank 1 --check discriminant --notes': (0, """\
CHECK steinberg-discriminant pass expected=1 got=1
"""),
    'steinberg --rank 1 --check slice --notes': (2, ""),
    'steinberg --rank 3 --notes': (2, ""),
    'steinberg --rank 1 --check all --notes': (0, """\
CHECK steinberg-casimir pass expected=true got=true
CHECK steinberg-rank-subregular pass expected=0 got=0
CHECK steinberg-rank-regular pass expected=1 got=1
CHECK steinberg-discriminant pass expected=1 got=1
NOTE steinberg-casimir 1 component(s) against the Lie-Poisson bracket
"""),
    'steinberg --rank 2 --check casimir --notes': (0, """\
CHECK steinberg-casimir pass expected=true got=true
NOTE steinberg-casimir 2 component(s) against the Lie-Poisson bracket
"""),
    'steinberg --rank 2 --check rank --notes': (0, """\
CHECK steinberg-rank-subregular pass expected=1 got=1
CHECK steinberg-rank-regular pass expected=2 got=2
"""),
    'steinberg --rank 2 --check discriminant --notes': (0, """\
CHECK steinberg-discriminant pass expected=2 got=2
"""),
    'steinberg --rank 2 --check slice --notes': (0, """\
CHECK steinberg-slice pass expected=true got=true
NOTE steinberg-slice c2 block Hessian rank 3; differential rank 1
"""),
    'steinberg --rank 2 --check all --notes': (0, """\
CHECK steinberg-casimir pass expected=true got=true
CHECK steinberg-rank-subregular pass expected=1 got=1
CHECK steinberg-rank-regular pass expected=2 got=2
CHECK steinberg-discriminant pass expected=2 got=2
CHECK steinberg-slice pass expected=true got=true
NOTE steinberg-casimir 2 component(s) against the Lie-Poisson bracket
NOTE steinberg-slice c2 block Hessian rank 3; differential rank 1
"""),
    'fold A3 flip --notes': (0, """\
CHECK fold-type pass expected=C2 got=C2
CHECK fold-group-order pass expected=2 got=2
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0,2};{1}
NOTE fold-group-order group Z/2
"""),
    'fold A5 flip --notes': (0, """\
CHECK fold-type pass expected=C3 got=C3
CHECK fold-group-order pass expected=2 got=2
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0,4};{1,3};{2}
NOTE fold-group-order group Z/2
"""),
    'fold A7 flip --notes': (0, """\
CHECK fold-type pass expected=C4 got=C4
CHECK fold-group-order pass expected=2 got=2
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0,6};{1,5};{2,4};{3}
NOTE fold-group-order group Z/2
"""),
    'fold D4 flip --notes': (0, """\
CHECK fold-type pass expected=B3 got=B3
CHECK fold-group-order pass expected=2 got=2
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0};{1};{2,3}
NOTE fold-group-order group Z/2
"""),
    'fold D4 triality --notes': (0, """\
CHECK fold-type pass expected=G2 got=G2
CHECK fold-group-order pass expected=3 got=3
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0,2,3};{1}
NOTE fold-group-order group Z/3
"""),
    'fold D4 full --notes': (0, """\
CHECK fold-type pass expected=G2 got=G2
CHECK fold-group-order pass expected=6 got=6
CHECK fold-group-abelian pass expected=false got=false
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0,2,3};{1}
NOTE fold-group-order group S3
"""),
    'fold E6 flip --notes': (0, """\
CHECK fold-type pass expected=F4 got=F4
CHECK fold-group-order pass expected=2 got=2
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0,5};{1};{2,4};{3}
NOTE fold-group-order group Z/2
"""),
    'fold A3 identity --notes': (0, """\
CHECK fold-type pass expected=A3 got=A3
CHECK fold-group-order pass expected=1 got=1
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0};{1};{2}
NOTE fold-group-order group trivial
"""),
    'fold A5 identity --notes': (0, """\
CHECK fold-type pass expected=A5 got=A5
CHECK fold-group-order pass expected=1 got=1
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0};{1};{2};{3};{4}
NOTE fold-group-order group trivial
"""),
    'fold A7 identity --notes': (0, """\
CHECK fold-type pass expected=A7 got=A7
CHECK fold-group-order pass expected=1 got=1
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0};{1};{2};{3};{4};{5};{6}
NOTE fold-group-order group trivial
"""),
    'fold D4 identity --notes': (0, """\
CHECK fold-type pass expected=D4 got=D4
CHECK fold-group-order pass expected=1 got=1
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0};{1};{2};{3}
NOTE fold-group-order group trivial
"""),
    'fold E6 identity --notes': (0, """\
CHECK fold-type pass expected=E6 got=E6
CHECK fold-group-order pass expected=1 got=1
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
NOTE fold-type orbits {0};{1};{2};{3};{4};{5}
NOTE fold-group-order group trivial
"""),
    'fold A255 flip': (0, """\
CHECK fold-type pass expected=C128 got=C128
CHECK fold-group-order pass expected=2 got=2
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
"""),
    'fold D256 identity': (0, """\
CHECK fold-type pass expected=D256 got=D256
CHECK fold-group-order pass expected=1 got=1
CHECK fold-group-abelian pass expected=true got=true
CHECK fold-quotient-rank pass expected=true got=true
"""),
    'fold A1 flip --notes': (2, ""),
    'fold A2 flip --notes': (2, ""),
    'fold A07 flip': (2, ""),
    'fold A300 identity': (2, ""),
    'fold A20000 identity': (2, ""),
}


REFUSALS = {
    'fold B3 identity': "error: can only fold simply-laced types, not B3\n",
    'fold D5 flip': "error: no named flip for D5\n",
    'fold E9 identity': "error: unsupported type label 'E9'\n",
    'fold A4 flip': "error: orbit (1, 2) contains adjacent nodes 1, 2\n",
}


@pytest.mark.parametrize("command", list(TRANSCRIPTS))
def test_transcript(capsys, command):
    """stdout and the exit code match the pinned transcript exactly."""
    code = main(command.split())
    assert (code, capsys.readouterr().out) == TRANSCRIPTS[command]


@pytest.mark.parametrize("command", [c for c, (code, _) in TRANSCRIPTS.items() if code == 2])
def test_refusal_prints_one_error_line(capsys, command):
    """Every refused command explains itself in one error line on stderr."""
    main(command.split())
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("command", list(REFUSALS))
def test_fold_refusal_stderr(capsys, command):
    """A refused fold exits 2 with no stdout and the pinned error line."""
    code = main(command.split())
    assert (code, *capsys.readouterr()) == (2, "", REFUSALS[command])
