import pytest

from eeopt.cli import (
    parse_db,
    parse_dbm,
    parse_dbm_per_hz,
    parse_distance,
    parse_frequency,
    parse_power,
    parse_rate,
    parse_scalar,
    watts_to_dbm,
)
from eeopt.errors import DomainError
from eeopt.scenario import db_to_linear, dbm_to_watts


class TestConversions:
    def test_23_dbm_round_trip(self):
        w = dbm_to_watts(23.0)
        assert w == pytest.approx(0.1995262315, rel=1e-9)
        assert watts_to_dbm(w) == pytest.approx(23.0, rel=1e-9)

    def test_noise_floor_is_thermal_density_times_bandwidth_times_figure(self):
        # -174 dBm/Hz over 500 kHz with a 3 dB noise figure
        density = dbm_to_watts(-174.0)
        assert density == pytest.approx(3.9810717055349695e-21, rel=1e-9)
        noise = density * 5e5 * db_to_linear(3.0)
        assert noise == pytest.approx(3.971641173621418e-15, rel=1e-9)
        assert watts_to_dbm(noise) == pytest.approx(-114.0103, abs=1e-4)

    def test_db_round_trip(self):
        for x in (0.5, 1.0, 2.0, 123.4):
            assert dbm_to_watts(parse_dbm(f"{x} W")) == pytest.approx(x, rel=1e-12)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            watts_to_dbm(0.0)
        with pytest.raises(DomainError):
            parse_dbm("-1 W")


class TestParsers:
    def test_power_units(self):
        assert parse_power("23 dBm") == pytest.approx(0.1995262315, rel=1e-9)
        assert parse_power("0.5 W") == 0.5
        assert parse_power("200 mW") == pytest.approx(0.2)
        assert parse_power(0.25) == 0.25
        assert parse_power("-10 dBW") == pytest.approx(0.1)

    def test_frequency_units(self):
        assert parse_frequency("5 GHz") == 5e9
        assert parse_frequency("500 kHz") == 5e5
        assert parse_frequency("500 KHz") == 5e5
        assert parse_frequency(1e6) == 1e6

    def test_ratio_units(self):
        assert parse_db("3 dB") == 3.0
        assert parse_db("3") == parse_db(3) == 3.0
        assert db_to_linear(parse_db(".5 dB")) == pytest.approx(1.1220184543019633)
        with pytest.raises(DomainError):
            parse_db("2 W")

    def test_dbm_levels(self):
        # a bare number, quoted or not, is already dBm; other power units convert
        assert parse_dbm("23") == parse_dbm(23) == parse_dbm("23 dBm") == 23.0
        assert parse_dbm("200 mW") == pytest.approx(23.0103, abs=1e-4)
        assert parse_dbm("-10 dBW") == pytest.approx(20.0)
        with pytest.raises(DomainError):
            parse_dbm("3 dB")

    def test_noise_density(self):
        assert parse_dbm_per_hz("-174 dBm/Hz") == parse_dbm_per_hz("-174") == -174.0
        assert dbm_to_watts(parse_dbm_per_hz(-174)) == pytest.approx(3.9810717055349695e-21)
        with pytest.raises(DomainError):
            parse_dbm_per_hz("1e-20 W/Hz")

    def test_distance_and_rate(self):
        assert parse_distance("20 m") == 20.0
        assert parse_distance("1.5 km") == 1500.0
        assert parse_rate("2 Mbit/s") == 2e6
        assert parse_rate(100.0) == 100.0

    def test_scalar_rejects_units(self):
        assert parse_scalar("42") == 42.0
        with pytest.raises(DomainError):
            parse_scalar("42 m")

    def test_unknown_unit_rejected(self):
        with pytest.raises(DomainError):
            parse_power("3 parsec")
        with pytest.raises(DomainError):
            parse_frequency("abc")
