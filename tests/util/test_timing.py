import pytest

from repro.util.timing import PIPELINE_MODULES, ModuleTimes


class TestModuleTimes:
    def test_known_modules_prepopulated(self):
        mt = ModuleTimes()
        assert set(mt.times) == set(PIPELINE_MODULES)

    def test_add_unknown_module_rejected(self):
        mt = ModuleTimes()
        with pytest.raises(KeyError):
            mt.add("nonsense", 1.0)

    def test_total(self):
        mt = ModuleTimes()
        mt.add("equation_solving", 2.0)
        mt.add("contact_detection", 1.0)
        assert mt.total == pytest.approx(3.0)

    def test_as_rows_order_and_total(self):
        mt = ModuleTimes()
        rows = mt.as_rows()
        assert [r[0] for r in rows[:-1]] == list(PIPELINE_MODULES)
        assert rows[-1][0] == "total"
