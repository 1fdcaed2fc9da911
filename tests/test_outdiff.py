"""``tools/outdiff.py`` names each changed output row with its old and new values and their ulp distance."""

import importlib.util
import math
import os

import pytest

_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "outdiff.py")
_spec = importlib.util.spec_from_file_location("outdiff", _PATH)
outdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(outdiff)


def _table(values):
    return "D,E\n" + "".join("%.17g,%.17g\n" % (0.1 * k, v) for k, v in enumerate(values))


def test_diff_names_exactly_the_planted_row_and_its_ulp_distance():
    values = [0.5 / (k + 1) for k in range(50)]
    planted = list(values)
    planted[17] = math.nextafter(math.nextafter(math.nextafter(values[17], 1.0), 1.0), 1.0)
    old = {"fig1.csv": _table(values), "verify": '{\n  "max-abs-error": 2e-16\n}\n'}
    new = {"fig1.csv": _table(planted), "verify": old["verify"]}
    old_row, new_row = _table(values).splitlines()[18], _table(planted).splitlines()[18]
    assert outdiff.diff_outputs(old, new) == [
        "fig1.csv:19",
        f"  - {old_row}",
        f"  + {new_row}",
        f"    {'%.17g' % values[17]} -> {'%.17g' % planted[17]}: 3 ulp",
    ]
    assert outdiff.diff_outputs(old, old) == []


@pytest.mark.parametrize(
    "old,new,distance",
    [(1.0, 1.0, 0), (0.0, -0.0, 0), (0.0, 5e-324, 1), (-5e-324, 5e-324, 2), (1.0, math.nextafter(1.0, 0.0), 1)],
)
def test_ulps_counts_the_floats_between_two_values(old, new, distance):
    assert outdiff.ulps(old, new) == outdiff.ulps(new, old) == distance


def test_diff_lists_rows_added_or_dropped_and_outputs_on_one_side():
    old = {"sweep": "D,E\n0,1\n", "gone": "x\n"}
    new = {"sweep": "D,E\n0,1\n1,0.5\n", "added": "y\n"}
    assert outdiff.diff_outputs(old, new) == [
        "added: only in the new tree",
        "gone: only in the old tree",
        "sweep: no old row, new rows 3-3",
        "  + 1,0.5",
    ]


def test_the_pinned_commands_are_read_from_the_cli_tests():
    tests = os.path.dirname(os.path.abspath(__file__))
    commands = outdiff.pinned_commands(os.path.join(tests, "test_cli.py"))
    assert commands["verify-full"] == ["verify", "--grid", "full"]
    assert len(commands) == 9
