import pytest

from repro.util.timing import PIPELINE_MODULES, ModuleTimes


class TestModuleTimes:
    def test_known_modules_prepopulated(self):
        mt = ModuleTimes()
        assert list(mt.times) == list(PIPELINE_MODULES)
        assert mt.modelled == dict.fromkeys(PIPELINE_MODULES, 0.0)

    def test_add_unknown_module_rejected(self):
        mt = ModuleTimes()
        with pytest.raises(KeyError):
            mt.add("nonsense", 1.0, 0.1)

    def test_add_accumulates_both_clocks(self):
        mt = ModuleTimes()
        mt.add("equation_solving", 2.0, 0.5)
        mt.add("equation_solving", 1.0, 0.25)
        mt.add("contact_detection", 1.0, 0.0)
        assert mt.times["equation_solving"] == pytest.approx(3.0)
        assert mt.modelled["equation_solving"] == pytest.approx(0.75)
        assert mt.modelled["contact_detection"] == 0.0
