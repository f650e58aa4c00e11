"""The one record type every verify check returns."""
import pytest

from glnq import Report


class TestReport:
    def test_passed_iff_no_witness(self):
        assert Report("mackey", {"q": 2}).passed
        assert not Report("mackey", {"q": 2}, "tensors differ").passed
        assert not Report("mackey", {"q": 2}, "").passed

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Report("mackey", {}).witness = "x"

    @pytest.mark.parametrize("name", ["mackey", "psh-positivity"])
    def test_json_keeps_witness_key(self, name):
        assert Report(name, {"q": 2}).to_json() == {
            "name": name, "params": {"q": 2}, "passed": True, "witness": None}
        assert Report(name, {"q": 2}, "w").to_json() == {
            "name": name, "params": {"q": 2}, "passed": False, "witness": "w"}

    @pytest.mark.parametrize("name", ["nilpotent-count", "orbit-oracle",
                                      "antipode-involutive", "antipode-on-primitives",
                                      "steinberg-constituents"])
    def test_json_bare_when_passed(self, name):
        assert Report(name, {"q": 2, "n": 1}).to_json() == {
            "name": name, "params": {"q": 2, "n": 1}, "passed": True}
        assert Report(name, {"q": 2, "n": 1}, "w").to_json() == {
            "name": name, "params": {"q": 2, "n": 1}, "passed": False, "witness": "w"}

    def test_lines(self):
        assert Report("mackey", {"q": 2, "s": 1}).lines() == ["[PASS] mackey q=2 s=1"]
        assert Report("witness", {}).lines() == ["[PASS] witness"]
        assert Report("mackey", {"q": 2}, "tensors differ").lines() == [
            "[FAIL] mackey q=2", "       witness: tensors differ"]
