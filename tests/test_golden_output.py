"""Golden output: SHA-256 digests of the CLI's stdout, frozen.

Any change to a printed number, a row order, a format or a verdict
changes a digest, so "byte-identical output" is checked here instead of
by hand.  Every command below exits 0.  To re-freeze after a deliberate
output change, print `hashlib.sha256(out.encode()).hexdigest()` for the
failing command and paste it in, saying why in the commit message.
"""

import hashlib

import pytest

from fanogw.cli import main

DIGESTS = {
    "compute --ambient 5 --degrees 3 --format json":
        "d5afc2a0d32b92cc4f09c7fe0bf84c07b8fed944450957473439357baba9a017",
    "compute --ambient 5 --degrees 3 --format csv":
        "724119388a8d3daff1ec131f70038dde41dc81eff3b979579a63eb80f4edbdfa",
    "compute --ambient 5 --degrees 3 --format text":
        "1f4bf562fcc202c97c61be4e8ca37574d198b836a730f72ab992287cba7fbf93",
    "compute --ambient 6 --degrees 3 --format json":
        "95deecbbe869d99588c52bdbf7d6053d93dc88f4d610bf4efea04e23ca789e7c",
    "compute --ambient 6 --degrees 3 --format csv":
        "300a36a5a8372aba15f4f695606f1049651d90c05e84695bb14b3258315d5194",
    "compute --ambient 6 --degrees 3 --format text":
        "3c5cb15810b0be5d405abd345e4b773ec6a6bd6ea19a06cb9bbc49c6ca6b6c9e",
    "compute --ambient 7 --degrees 3 --format json":
        "a588cf21648177edf871c3f65d86f260fbed84295122b275890df519b07440d2",
    "compute --ambient 7 --degrees 3 --format csv":
        "34120166b6321c630e96dd3746df53ec5275acb687b521498659fa655b8613f9",
    "compute --ambient 7 --degrees 3 --format text":
        "3f02b35585ee691079070acf326c912b791f5151175ddd13683091c273f1c9f6",
    "compute --ambient 7 --degrees 2,2 --format json":
        "dfe60f44bddb67323536a77a7b05687d624def7e7bd39a3928eb6a316f854ec8",
    "compute --ambient 7 --degrees 2,2 --format csv":
        "c749ffee0c2dfba2b65c49ea2c0425898cef4aa10cbde1e67251e19eb08c219e",
    "compute --ambient 7 --degrees 2,2 --format text":
        "3c358fad55ed05f4ec5633b0840f329f7abf83fb52eaf63c1eedabeb7cfbe9ba",
    "compute --ambient 9 --degrees 2,2 --format json":
        "d2928da5af886586f041f808231e37965e257d1e4ca6c3d781d9b5e11b1a8ca4",
    "compute --ambient 9 --degrees 2,2 --format csv":
        "085b91ec4e26e2a88eb92bb24617f13c97a9832ef55607ca454068c7e92def75",
    "compute --ambient 9 --degrees 2,2 --format text":
        "75aa703876d545c52427cbf0b8c8451a209b016dcd9a1cd210311b0abdd90ed7",
    "compute --ambient 6 --degrees 2,3 --format json":
        "b7de1c0f67981b47a53bbc731eaed5286dbf3ce078ee091a6b2c49cd661ffde3",
    "compute --ambient 6 --degrees 2,3 --format csv":
        "ce5501b4e4a0b0cc4975720abfee615a77d58f51255dea3deda6f233f7d67e3d",
    "compute --ambient 6 --degrees 2,3 --format text":
        "5d7660d0d521d0c67d7525e5a77f72f354ecc564da5bd652b54fb12666c88444",
    "compute --ambient 8 --degrees 7 --format json":
        "888e83d9297df4db7b11d7df32e55ef7609e09119c1c8ed5f24c1632ef96526a",
    "compute --ambient 8 --degrees 7 --format csv":
        "9d1fe66f7cd608b8e44b2f1b198216d518b74eeebe5ad4618bd3915fc3633429",
    "compute --ambient 8 --degrees 7 --format text":
        "df6a70ce3f9b30978593a051b82e812437af36dc4edfa1dbf268e37a6380a03b",
    "check --format csv":
        "30ae59653a06934c2e0d4d0d2e0ce40c6ff661e9de7fb52e0d8d610311b58b74",
    "check --ambient 6 --degrees 2,3 --format text":
        "e13e291f2fb43b117742d1d16dd6c05d6cc0652a87a6828785662be395c8f1db",
    "check --ambient 6 --degrees 2,3 --format json":
        "14fa88d5bccd62329235d5388227e42dd34dbb148547c63a5091687a0e4a0b38",
    "check --ambient 7 --degrees 2,2 --format json":
        "f953b6e981ee4bf50782d186e20461e65bd6511a1d1714d8dc32451078b78729",
    "conjectures --format json":
        "4bbf3e09201e3f8c54185853567b3ce41bb68e6dee02d8a1bb54d7b57bdebf02",
    "conjectures --format csv":
        "edb4fe35269a68c7bd2b1bbb1b5294bbf118600e1682423729fc3367af8969ae",
    "conjectures --format text":
        "11616420cddb1dd6d518b1069c4746b13a8cc445f24a6842aabb3b09d84de46d",
}


@pytest.mark.parametrize("command", DIGESTS)
def test_stdout_digest(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0, f"fanogw {command}: exit {code}"
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DIGESTS[command], f"fanogw {command}: stdout changed"
