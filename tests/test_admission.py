"""Caller arrays enter latsub exactly or not at all.

Every site that takes an index, frequency, generator, point or weight array
from a caller goes through ``index_sets._admit``: an owned, read-only int64
or float64 copy, refused with ``ValueError`` where the conversion would
truncate, wrap or cast.  Each site is run here against the inputs that were
once misread in silence.
"""

import numpy as np
import pytest

from latsub.fourier import DenseOperator, LatticeOperator
from latsub.index_sets import IndexSet, hyperbolic_cross, hyperbolic_cross_product, mixed_weight
from latsub.lattice import Rank1Lattice, SamplePlan, residues
from latsub.solver import least_squares
from latsub.subsampling import DensityWeights, SubsampleSelection
from latsub.testfunctions import kink_coeff_1d, kink_coefficients

LAT = Rank1Lattice(dimension=2, generator=[1, 12], size=31)
I = hyperbolic_cross(2, 1.0, 2.0)
POINT_PLAN = SamplePlan(points=LAT.points(), weights=np.full(31, 1 / 31))


def weights_for(rows):
    return np.full(np.size(rows), 1.0)


#: Sites that take an index list into a set of 31 (lattice points, rows of
#: a 31-row operator or plan), as functions of the list.
INDEX_SITES = {
    "Rank1Lattice.points": lambda k: LAT.points(k),
    "SamplePlan.lattice_rows": lambda k: SamplePlan(
        weights=weights_for(k), lattice=LAT, lattice_rows=k),
    "LatticeOperator.rows": lambda k: LatticeOperator(LAT, I, k),
    "LatticeOperator.masked": lambda k: LatticeOperator(LAT, I).masked(k),
    "LatticeOperator.masked.masked": lambda k: LatticeOperator(
        LAT, I, np.arange(31)[::-1]).masked(k),
    "DenseOperator.rows": lambda k: DenseOperator(LAT.points(), I, k),
    "DenseOperator.masked": lambda k: DenseOperator(LAT.points(), I).masked(k),
    "SubsampleSelection.indices": lambda k: SubsampleSelection(
        POINT_PLAN, k, weights_for(k), "random"),
}

#: Sites that take integers of any sign, as functions of a length-2 vector.
INTEGER_SITES = {
    **INDEX_SITES,
    "IndexSet.frequencies": lambda k: IndexSet(2, [k]),
    "hyperbolic_cross_product": lambda k: hyperbolic_cross_product(k, 1.0),
    "mixed_weight": lambda k: mixed_weight(k, 1.5),
    "Rank1Lattice.generator": lambda k: Rank1Lattice(2, k, 101),
    "residues": lambda k: residues(LAT, [k]),
    "kink_coeff_1d": lambda k: kink_coeff_1d(k),
    "kink_coefficients": lambda k: kink_coefficients([k]),
}

#: Inputs an int64 copy would truncate, wrap or cast.
NOT_INT64 = {
    "float": [0.5, 1.7],
    "bool": np.array([True, False]),
    "python-int-beyond-int64": [2**70, 1],
    "uint64-beyond-int64": np.array([2**63 + 5, 1], dtype=np.uint64),
}

#: Index lists outside [0, 31) or not 1-d.
NOT_AN_INDEX_LIST = {"negative": [0, -1], "beyond": [0, 31], "2-d": [[0, 1]]}


@pytest.mark.parametrize("case", NOT_INT64)
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_sites_refuse_what_int64_cannot_hold(site, case):
    with pytest.raises(ValueError, match="must be integers|must fit in int64"):
        INTEGER_SITES[site](NOT_INT64[case])


@pytest.mark.parametrize("case", NOT_AN_INDEX_LIST)
@pytest.mark.parametrize("site", INDEX_SITES)
def test_index_sites_refuse_indices_outside_the_list(site, case):
    with pytest.raises(ValueError, match="out of range|1-d index list"):
        INDEX_SITES[site](NOT_AN_INDEX_LIST[case])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.int64])
@pytest.mark.parametrize("site", INDEX_SITES)
def test_index_sites_take_any_integer_type_and_empty_lists(site, dtype):
    INDEX_SITES[site](np.array([3, 0, 30], dtype=dtype))
    INDEX_SITES[site]([])


@pytest.mark.parametrize("dtype", [np.int32, np.uint8])
@pytest.mark.parametrize("site", [s for s in INTEGER_SITES if s not in INDEX_SITES])
def test_integer_sites_take_narrow_integer_types(site, dtype):
    k = np.array([1, 0], dtype=dtype)
    got, want = INTEGER_SITES[site](k), INTEGER_SITES[site](k.astype(np.int64))
    if isinstance(want, Rank1Lattice):
        assert got == want
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("entry", ["99999999999999999999", "-99999999999999999999"])
def test_index_set_text_beyond_int64_is_refused(entry):
    with pytest.raises(ValueError, match="must fit in int64"):
        IndexSet.from_text(f"d=2 count=1\n{entry} 0\n")


def test_membership_of_a_non_integral_vector_is_false():
    J = IndexSet(2, [[0, 1], [1, 0]])
    assert [0.9, 1.2] not in J
    assert [True, False] not in J
    assert np.array([2**63 + 1, 0], dtype=np.uint64) not in J
    assert [1, 0] in J and np.array([1, 0], dtype=np.uint8) in J
    assert [1, 0, 0] not in J


def plain_operator():
    return LatticeOperator(LAT, I)


#: Sites that take weights for the 31 points of ``LAT``.
WEIGHT_SITES = {
    "SamplePlan.weights": lambda w: SamplePlan(weights=w, lattice=LAT),
    "SamplePlan.points": lambda w: SamplePlan(points=w[:, None], weights=np.ones(31)),
    "DenseOperator.points": lambda w: DenseOperator(np.column_stack((w, w)), I),
    "SubsampleSelection.reweights": lambda w: SubsampleSelection(
        POINT_PLAN, np.arange(31), w, "random"),
    "SubsampleSelection.bss_weights": lambda w: SubsampleSelection(
        POINT_PLAN, np.arange(31), np.ones(31), "bss_weighted", bss_weights=w),
    "DensityWeights.rho": lambda w: DensityWeights(rho=w),
    "LatticeOperator.normal": lambda w: plain_operator().normal(w),
    "LatticeOperator.real_gram": lambda w: plain_operator().real_gram(w),
    "LatticeOperator.real_normal": lambda w: plain_operator().real_normal(w),
    "DenseOperator.real_normal": lambda w: DenseOperator(LAT.points(), I).real_normal(w),
    "least_squares": lambda w: least_squares(plain_operator(), w, np.ones(31)),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("site", WEIGHT_SITES)
def test_weight_sites_refuse_non_finite_values(site, bad):
    w = np.full(31, 0.5)
    w[3] = bad
    with pytest.raises(ValueError, match="finite"):
        WEIGHT_SITES[site](w)


@pytest.mark.parametrize("site", WEIGHT_SITES)
def test_weight_sites_refuse_booleans(site):
    with pytest.raises(ValueError, match="must be real numbers"):
        WEIGHT_SITES[site](np.ones(31, dtype=bool))


#: Sites that store a caller's array, and how to read back what they stored.
STORING_SITES = {
    "IndexSet.frequencies": (
        lambda a: IndexSet(1, a[:, None]), lambda s: s.frequencies[:, 0], np.int64),
    "Rank1Lattice.generator": (
        lambda a: Rank1Lattice(4, a, 31), lambda s: s.generator, np.int64),
    "SamplePlan.lattice_rows": (
        lambda a: SamplePlan(weights=np.ones(4), lattice=LAT, lattice_rows=a),
        lambda s: s.lattice_rows, np.int64),
    "SamplePlan.weights": (
        lambda a: SamplePlan(weights=a, lattice=LAT, lattice_rows=[0, 1, 2, 3]),
        lambda s: s.weights, np.float64),
    "SamplePlan.points": (
        lambda a: SamplePlan(points=a[:, None], weights=np.ones(4)),
        lambda s: s.points[:, 0], np.float64),
    "LatticeOperator.rows": (
        lambda a: LatticeOperator(LAT, I, a), lambda s: s.rows, np.int64),
    "DenseOperator.points": (
        lambda a: DenseOperator(a[:, None], hyperbolic_cross(1, 1.0, 2.0)),
        lambda s: s.points[:, 0], np.float64),
    "SubsampleSelection.indices": (
        lambda a: SubsampleSelection(POINT_PLAN, a, np.ones(4), "random"),
        lambda s: s.indices, np.int64),
    "SubsampleSelection.reweights": (
        lambda a: SubsampleSelection(POINT_PLAN, [0, 1, 2, 3], a, "random"),
        lambda s: s.reweights, np.float64),
    "SubsampleSelection.bss_weights": (
        lambda a: SubsampleSelection(POINT_PLAN, [0, 1, 2, 3], np.ones(4), "bss_weighted",
                                     bss_weights=a),
        lambda s: s.bss_weights, np.float64),
    "DensityWeights.rho": (
        lambda a: DensityWeights(rho=a), lambda s: s.rho, np.float64),
}


@pytest.mark.parametrize("site", STORING_SITES)
def test_stored_arrays_are_owned_copies(site):
    build, read, dtype = STORING_SITES[site]
    base = np.array([1, 3, 4, 7, 9, 2] if dtype is np.int64 else [0.25] * 4 + [9.0, 2.0])
    arg = base[:4]  # a view: the caller still holds its base
    stored = read(build(arg))
    before = stored.copy()
    base[:] = 0
    np.testing.assert_array_equal(stored, before)
    assert base.flags.writeable and arg.flags.writeable  # the caller's stay writable
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = stored[0]
