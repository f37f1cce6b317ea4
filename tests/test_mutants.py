"""Every mutant of tests/mutants.py still finds its site, so a refactor that moves a site's text
fails here in seconds; scoring the mutants is the separate, slow `python tests/mutants.py`."""

from mutants import MUTANTS, check_sites


def test_every_mutant_site_is_found_exactly_once():
    check_sites(list(MUTANTS))
