import functools

import pytest

from ivfkit.catalog import catalog, check_function_entry, check_sequence_entry
from ivfkit.catalog import get_function, get_sequence, sequence_catalog
from ivfkit.ivf import ProbeParams, SampleGrid, argmin_over
from ivfkit.sequences import LimitKind, check_convergence, is_bounded_above
from ivfkit.sequences import is_monotone_increasing, monotone_limit

PARAMS = ProbeParams()
ENTRIES = catalog()
SEQ_ENTRIES = sequence_catalog()


@functools.cache
def function_records(label):
    return check_function_entry(get_function(label), PARAMS)


@functools.cache
def sequence_records(label):
    return check_sequence_entry(get_sequence(label))


def records_pass(records_of, *names):
    """Test that no record of the shared checker named ``names`` failed for the
    entry; an entry without that expectation has no such record."""

    def test(self, entry):
        picked = [r for r in records_of(entry.label) if r["check"].rsplit("/", 1)[1] in names]
        failed = [r for r in picked if not r["ok"]]
        assert not failed, failed

    return test


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.label)
class TestFunctionEntries:
    test_semicontinuity_flags = records_pass(function_records, "semicontinuity")
    test_liminf_value = records_pass(function_records, "liminf")
    test_endpoint_equivalence_agrees = records_pass(function_records, "endpoint-equivalence")
    test_properness = records_pass(function_records, "proper")
    test_infimum = records_pass(function_records, "infimum")
    test_level_bounded_evidence = records_pass(function_records, "level-bounded")
    test_argmin = records_pass(function_records, "argmin")
    test_derivative_cases = records_pass(function_records, "derivative")
    test_stationary_points = records_pass(function_records, "stationary")


class TestCatalogShape:
    def test_twelve_functions(self):
        assert len(ENTRIES) == 12
        assert len({e.label for e in ENTRIES}) == 12

    def test_lookup(self):
        assert get_function("quadratic").ivf.dim == 1
        with pytest.raises(KeyError):
            get_function("nope")
        assert get_sequence("paper-seq-harmonic").horizon == 2000
        with pytest.raises(KeyError):
            get_sequence("nope")

    def test_minimum_attained_for_passing_entries(self):
        # entries whose proper/lsc/level-bounded probes all pass must attain
        # their sampled minimum
        for entry in ENTRIES:
            grid = SampleGrid(entry.box, entry.min_grid_resolution)
            if not entry.expect_proper or not entry.expect_lsc:
                continue
            if entry.expect_level_bounded is not True:
                continue
            assert len(argmin_over(entry.ivf, grid, tol=1e-6)) >= 1, entry.label


@pytest.mark.parametrize("entry", SEQ_ENTRIES, ids=lambda e: e.label)
class TestSequenceEntries:
    test_convergence = records_pass(sequence_records, "converges")
    test_liminf_limsup = records_pass(sequence_records, "liminf", "limsup")
    test_divergence = records_pass(sequence_records, "diverges")

    def test_monotonicity(self, entry):
        if entry.monotone is None:
            pytest.skip("no monotonicity expectation")
        assert is_monotone_increasing(entry.seq, min(entry.horizon, 500)) == entry.monotone

    def test_monotone_limit_agrees(self, entry):
        if not entry.monotone or entry.bounded_above_by is None:
            pytest.skip("not a bounded monotone entry")
        assert is_bounded_above(entry.seq, entry.bounded_above_by, min(entry.horizon, 500))
        got = monotone_limit(entry.seq, entry.horizon, tol=1e-6)
        v = check_convergence(entry.seq, got, eps=max(1e-6, entry.convergence_eps), horizon=entry.horizon)
        assert v.kind is LimitKind.CONVERGES


@pytest.mark.parametrize("entry", SEQ_ENTRIES, ids=lambda e: e.label)
def test_sequence_checks_read_the_terms_once(entry, monkeypatch):
    # every check of an entry reads its horizon: the terms are read once,
    # and the records are those of checks that each read them again
    import ivfkit.sequences as sequences

    reads = []
    endpoint_arrays = sequences._endpoint_arrays

    def counted(seq, horizon):
        reads.append(horizon)
        return endpoint_arrays(seq, horizon)

    monkeypatch.setattr(sequences, "_endpoint_arrays", counted)
    records = check_sequence_entry(entry)
    assert reads == [entry.horizon]
    monkeypatch.setattr(sequences, "_terms", endpoint_arrays)
    assert check_sequence_entry(entry) == records
