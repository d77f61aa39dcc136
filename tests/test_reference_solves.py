"""Every reference solve reproduces its committed record (``reference_solves.py``).

The integers (status, iterations, branch counts, counters, the terminating
oracle's iterations) are compared in every environment.  The hashes of traces,
``x_final``, ``lambda_final`` and ``probability_bound`` are compared only in the
environment the record was written in; elsewhere each hash test is a skip that
names both environments, so no run reports a comparison it did not make.
"""
import functools

import pytest

import reference_solves

RECORD = reference_solves.read_record()
NAMES = list(reference_solves.SOLVES)


@functools.cache
def observed(name: str) -> dict:
    return reference_solves.outcome(name)


def skip_unless_recorded_environment() -> None:
    here = reference_solves.environment()
    if here != RECORD["environment"]:
        pytest.skip(f"hashes recorded in {RECORD['environment']}; this run is in {here}")


def test_the_record_lists_every_reference_solve():
    assert list(RECORD["solves"]) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_integers(name):
    assert observed(name)["integers"] == RECORD["solves"][name]["integers"]


@pytest.mark.parametrize("name", NAMES)
def test_hashes(name):
    skip_unless_recorded_environment()
    assert observed(name)["hashes"] == RECORD["solves"][name]["hashes"]


def test_instance_set_hash():
    skip_unless_recorded_environment()
    assert reference_solves.instance_set_hash() == RECORD["instance_set_sha256"]
