"""Accuracy of the Fock bits the verify goldens print, against 50 digits.

The golden test locks bytes, and bytes lock roundoff.  A numerics change
that moves a golden is accepted only when every changed value is within
``ULP_BOUND`` of the 50-digit reference of ``reference.py`` and no farther
from it than the value it replaces, plus the same bound.  ``PREVIOUS``
keeps the values the goldens held before the Fock spectra came from Schmidt
factors (dense blocks summed term by term, then ``eigvalsh``).
"""

import pytest

from bbcap import cli, fock
from bbcap.channel import BroadcastChannelSpec
from reference import verify_fock_bits
from test_golden import CASES

# about 10 ulp of the entropies (at most 4 bits) whose difference is printed
ULP_BOUND = 4e-15

PREVIOUS = {
    "verify.json": {
        "-H(B1|A,B2)": 0.2121856912704223,
        "-H(B2|A,B1)": 0.30595867676516963,
        "-H(B1,B2|A,-)": 0.47503363143933064,
        "purity H(A,B1,B2)=H(E)": 3.3306690738754696e-15,
    },
    "verify.csv": {
        "-H(B1|A,B2)": 0.19005752584754498,
        "-H(B2|A,B1)": 0.27471714148008675,
        "-H(B1,B2|A,-)": 0.42834188947975604,
        "purity H(A,B1,B2)=H(E)": 1.6653345369377348e-15,
    },
    "verify_m3_prec17.json": {
        "-H(B1|A,B2,B3)": 0.047042089089989886,
        "-H(B2|A,B1,B3)": 0.11199635274949635,
        "-H(B3|A,B1,B2)": 0.13243558476290793,
        "-H(B1,B2|A,B3)": 0.15235325175395456,
        "-H(B1,B3|A,B2)": 0.1717889394349574,
        "-H(B2,B3|A,B1)": 0.22752608451711417,
        "-H(B1,B2,B3|A,-)": 0.2628012959084689,
        "purity H(A,B1,B2,B3)=H(E)": 5.551115123125783e-17,
    },
    "verify_m2_ordering_prec17.json": {
        "-H(B1|A,B2)": 0.49140209419774983,
        "-H(B2|A,B1)": 0.6209306121280133,
        "-H(B1,B2|A,-)": 0.9482479412058017,
        "purity H(A,B1,B2)=H(E)": 1.3877787807814457e-14,
    },
}


@pytest.mark.parametrize("name", sorted(PREVIOUS))
def test_fock_bits_within_ulp_bound_of_reference(name):
    args = cli.parse_args(CASES[name][0])
    report = fock.verify_conditional_entropies(
        BroadcastChannelSpec(args.etas), args.ns, cutoff=args.cutoff, ordering=args.ordering
    )
    exact = verify_fock_bits(args.etas, args.ns, report.cutoff)
    assert sorted(c.case for c in report.cases) == sorted(exact) == sorted(PREVIOUS[name])
    for c in report.cases:
        err = abs(c.fock_bits - float(exact[c.case]))
        before = abs(PREVIOUS[name][c.case] - float(exact[c.case]))
        assert err <= ULP_BOUND, (c.case, err)
        assert err <= before + ULP_BOUND, (c.case, err, before)
