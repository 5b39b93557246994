import pytest

from apcomposites.errors import CapacityError, first


class TestFirst:
    def test_least_match(self):
        assert first(lambda n: n % 7 == 0, 1, 100, "none") == 7

    def test_match_at_the_start(self):
        assert first(lambda n: True, 5, 10, "none") == 5

    def test_match_exactly_at_the_cap_is_returned(self):
        assert first(lambda n: n == 10, 0, 10, "none") == 10

    def test_no_match_up_to_the_cap_is_refused(self):
        seen = []
        with pytest.raises(CapacityError, match="^no n <= 10$"):
            first(lambda n: seen.append(n), 0, 10, "no n <= 10")
        assert seen == list(range(11))

    def test_start_past_the_cap_is_refused_untested(self):
        seen = []
        with pytest.raises(CapacityError, match="^past the cap$"):
            first(seen.append, 11, 10, "past the cap")
        assert seen == []
