import pytest

from repro.util.tables import Table


class TestTable:
    def test_render_contains_cells(self):
        t = Table("Demo", ["name", "value"])
        t.add_row(["alpha", 1.5])
        t.add_row(["beta", 2])
        text = t.render()
        assert "Demo" in text
        assert "alpha" in text
        assert "1.5" in text

    def test_row_width_mismatch(self):
        t = Table("Demo", ["a", "b"])
        with pytest.raises(ValueError, match="cells"):
            t.add_row([1])

    def test_empty_header_rejected(self):
        with pytest.raises(ValueError):
            Table("Demo", [])

    def test_float_formatting_large(self):
        t = Table("Demo", ["v"], precision=3)
        t.add_row([1.23456789e12])
        assert "e+" in t.render()

    def test_zero_formats_plain(self):
        t = Table("Demo", ["v"])
        t.add_row([0.0])
        assert "| 0" in t.render()

    def test_str_is_render(self):
        t = Table("Demo", ["a"])
        t.add_row([1])
        assert str(t) == t.render()

    def test_alignment_consistent(self):
        t = Table("Demo", ["long-column-name", "b"])
        t.add_row(["x", "yyyyyyyyyyyy"])
        lines = t.render().splitlines()
        widths = {len(line) for line in lines[1:]}
        assert len(widths) == 1
