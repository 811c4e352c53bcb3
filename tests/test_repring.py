import itertools
import json

import pytest

from crystalk.errors import TableIntegrityError
from crystalk.repring import (
    CLASS_ORDER,
    DYADIC,
    MIN_MINUS,
    MIN_PLUS,
    ODD_MINUS,
    ODD_PLUS,
    load_tables,
    localize,
    module,
    rank,
    tensor,
    tor1,
)
from crystalk.oracle import resolution_module_class

FREE = module(FreeR=1)
TRIV = module(TrivZ=1)
SIGN = module(SignZ=1)
TOR = module(TorF2=1)
ZERO = module()

BASIS = {"FreeR": FREE, "TrivZ": TRIV, "SignZ": SIGN, "TorF2": TOR}

ALL_SITES = (MIN_PLUS, MIN_MINUS, DYADIC, ODD_PLUS, ODD_MINUS)
GOOD_SITES = tuple(s for s in ALL_SITES if s != DYADIC)


class TestModule:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="nonnegative"):
            module(FreeR=-1)

    def test_rejects_an_unknown_class(self):
        with pytest.raises(ValueError, match="unknown class 'free'"):
            module(free=1)

    def test_holds_every_class_in_order(self):
        assert module(SignZ=3) == {"FreeR": 0, "TrivZ": 0, "SignZ": 3, "TorF2": 0}
        assert list(module(TorF2=1, FreeR=2)) == list(CLASS_ORDER)


class TestSiteLabels:
    def test_labels(self):
        assert [localize(ZERO, s)["site"] for s in ALL_SITES] == [
            "MinPlus", "MinMinus", "Dyadic", "OddPlus(3)", "OddMinus(3)"
        ]

    def test_sites_are_the_table_keys(self):
        for cells in load_tables()["localize"].values():
            assert sorted(cells) == sorted(ALL_SITES)


class TestRank:
    def test_ring_has_rank_two(self):
        assert rank(FREE) == 2

    def test_free_factor_structure_at_codimension_one(self):
        # J^(2^0) + I^(2^1) for a one-dimensional free factor
        assert rank(module(TrivZ=1, SignZ=2)) == 3

    def test_torsion_has_rank_zero(self):
        assert rank(module(TorF2=3)) == 0


class TestTensorAndTor:
    def test_matches_resolution_verifier_everywhere(self):
        for x, y in itertools.product(CLASS_ORDER, repeat=2):
            assert tensor(BASIS[x], BASIS[y]) == module(**resolution_module_class(x, y, 0)), (x, y)
            assert tor1(BASIS[x], BASIS[y]) == module(**resolution_module_class(x, y, 1)), (x, y)

    def test_ring_acts_as_identity(self):
        for m in BASIS.values():
            assert tensor(FREE, m) == m

    def test_opposite_rank_one_classes_collide_in_torsion(self):
        assert tensor(TRIV, SIGN) == TOR

    def test_sign_squares_to_sign(self):
        # R/(t+1) (x) R/(t+1) = R/(t+1): t still acts by -1 on the product
        assert tensor(SIGN, SIGN) == SIGN

    def test_tor_vanishes_against_the_ring(self):
        for m in BASIS.values():
            assert tor1(FREE, m) == ZERO
            assert tor1(m, FREE) == ZERO

    def test_tor_of_trivial_with_itself(self):
        assert tor1(TRIV, TRIV) == TOR

    def test_tor_of_opposite_classes_vanishes(self):
        assert tor1(TRIV, SIGN) == ZERO

    def test_symmetry(self):
        for x, y in itertools.combinations(CLASS_ORDER, 2):
            assert tor1(BASIS[x], BASIS[y]) == tor1(BASIS[y], BASIS[x])

    def test_bilinearity(self):
        m = module(FreeR=2, TrivZ=1)
        n = module(SignZ=3, TorF2=1)
        expected = module()
        for name_x, mult_x in m.items():
            for name_y, mult_y in n.items():
                for name, mult in tensor(BASIS[name_x], BASIS[name_y]).items():
                    expected[name] += mult_x * mult_y * mult
        assert tensor(m, n) == expected


class TestLocalize:
    def test_sign_survives_on_its_branch(self):
        assert localize(SIGN, MIN_MINUS) == {
            "site": "MinMinus",
            "free_rank": 1,
            "torsion_flag": False,
        }

    def test_trivial_dies_on_the_opposite_branch(self):
        # and the sign class on the plus branch
        for module, site in ((TRIV, MIN_MINUS), (SIGN, MIN_PLUS)):
            assert localize(module, site)["free_rank"] == 0

    def test_torsion_dies_at_odd_sites(self):
        shape = localize(TOR, ODD_PLUS)
        assert (shape["free_rank"], shape["torsion_flag"]) == (0, False)

    def test_torsion_survives_only_at_the_dyadic_point(self):
        for site in ALL_SITES:
            flag = localize(TOR, site)["torsion_flag"]
            assert flag == (site == DYADIC)

    def test_dyadic_keeps_rank_one_classes_torsion_free(self):
        for m in (TRIV, SIGN, FREE):
            shape = localize(m, DYADIC)
            assert shape["free_rank"] == 1
            assert not shape["torsion_flag"]
        assert "Z-rank 2" in localize(FREE, DYADIC)["note"]

    def test_additive_over_sums(self):
        m = module(FreeR=2, TrivZ=3, SignZ=5, TorF2=7)
        for site in ALL_SITES:
            total = sum(
                m[name] * localize(BASIS[name], site)["free_rank"]
                for name in CLASS_ORDER
            )
            assert localize(m, site)["free_rank"] == total

    def test_kunneth_compatibility_at_good_sites(self):
        for x, y in itertools.product(CLASS_ORDER, repeat=2):
            for site in GOOD_SITES:
                product_rank = (
                    localize(BASIS[x], site)["free_rank"] * localize(BASIS[y], site)["free_rank"]
                )
                assert localize(tensor(BASIS[x], BASIS[y]), site)["free_rank"] == product_rank, (
                    x,
                    y,
                    site,
                )


class TestFrozenTableFile:
    def test_checksum_verified_on_load(self, tmp_path, monkeypatch):
        doc = {"spec_version": "1.0", "sha256": "0" * 64, "tables": load_tables()}
        bad = tmp_path / "tampered.json"
        bad.write_text(json.dumps(doc))
        monkeypatch.setattr("crystalk.repring._TABLE_FILE", str(bad))
        load_tables.cache_clear()
        try:
            with pytest.raises(TableIntegrityError):
                load_tables()
        finally:
            load_tables.cache_clear()


class TestKunnethFailureAtPlusSites:
    def test_transitive_orbit_counterexample(self):
        """The plain Kunneth sequence fails at sites containing (t - 1).

        For the free transitive orbit, the equivariant theory is the
        trivial rank-1 class; the product of two orbits is two orbits.
        At the plus branch the product theory has rank 2 while tensor
        and Tor contribute 1 + 0, so no such sequence can be exact
        there.  The assembly pipeline therefore switches to the
        submodule argument on that branch.
        """
        orbit = TRIV
        product_theory = module(TrivZ=2)  # two free orbits
        site = MIN_PLUS
        lhs = localize(product_theory, site)["free_rank"]
        tensor_part = localize(tensor(orbit, orbit), site)["free_rank"]
        tor_part = localize(tor1(orbit, orbit), site)["free_rank"]
        assert lhs == 2
        assert tensor_part + tor_part == 1
        assert lhs != tensor_part + tor_part
