import json

import pytest

from faults import FAULTS, SKIPS, check, inject
from rookorder import verify


@pytest.mark.parametrize("fault_id", [fault.id for fault in FAULTS])
def test_fault(fault_id):
    check(fault_id)


def test_fault_ids_are_unique():
    assert len({fault.id for fault in FAULTS}) == len(FAULTS)


def test_every_check_is_flagged_by_a_fault():
    # each label of ``verify._CHECKS`` names a failing report of some row
    flagged = {report["name"].split(" n=")[0] for fault in FAULTS
               for _, out in check(fault.id).values()
               for report in json.loads(out)["reports"] if report["violations"]}
    assert flagged >= {label for checks in verify._CHECKS.values() for label, _ in checks}


def test_every_skip_equals_its_full_path_on_a_fault_it_flags():
    # each skip or certificate is turned off on some row that its suite
    # flags, where the reports of its orbit must then be the same
    for name, ((suite, *_), *_) in SKIPS.items():
        assert any(name in fault.same and fault.verify.get(suite, "").startswith("1 ")
                   for fault in FAULTS), name


# a change of each target that changes nothing
UNCHANGED = {**dict.fromkeys(("R", "R'", "H", "Bar"), lambda packing, columns: None),
             "mobius": lambda mu, gap: mu, "action": lambda actions: actions,
             "descents": lambda sets: sets}


@pytest.mark.parametrize("target", UNCHANGED)
def test_a_fault_that_changes_nothing_fails(target, fresh_orbits):
    with pytest.raises(pytest.fail.Exception, match=f"a fault of {target} on R_3 k=1"):
        with inject(target, 3, 1, UNCHANGED[target]):
            verify.run_suite("all", 3)
