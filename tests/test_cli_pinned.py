"""The CLI's observable surface, pinned.

Two pins guard any rework of :mod:`repro.cli`:

* every subcommand's parsed defaults, ``vars(parse_args([cmd]))``;
* for a fixed matrix of cheap invocations covering every command, in
  text form and in ``--json`` form where the command has one, the
  sha256 of stdout and the exit code.

``profile --hotspots`` is left out: its output carries host timings.
Commands that print a path (``trace``, ``explain --out``) run inside
``tmp_path`` with a relative path, so stdout does not depend on it.
"""

import hashlib

import pytest

from repro.cli import build_parser, main

#: attributes the parser may set only to dispatch, not compared
DISPATCH_KEYS = {"handler"}

DEFAULTS = {
    "info": {"command": "info"},
    "table1": {"command": "table1"},
    "breakdown": {"command": "breakdown"},
    "speedup": {"command": "speedup", "app": None, "gigabytes": 25.0},
    "dse": {"command": "dse"},
    "cache": {
        "command": "cache", "distribution": "zipf", "alpha": 0.7,
        "entries": 512, "intents": 2000, "queries": 1200,
        "threshold": 0.1, "scan_ms": 30.0,
    },
    "plan": {
        "command": "plan", "app": "tir", "features": 10_000_000, "qps": 1.0,
    },
    "scorecard": {"command": "scorecard", "gigabytes": 25.0, "json": False},
    "faults": {
        "command": "faults", "app": "tir", "features": 20_000, "queries": 5,
        "seed": 0, "retry_rate": 0.02, "crc_rate": 0.0, "chip_rate": 0.0,
        "fail_accels": "", "max_pages": None, "json": False,
    },
    "trace": {
        "command": "trace", "app": "tir", "features": 20_000,
        "max_pages": 64, "top": 8, "json": False, "out": "trace.json",
        "bins": 40,
    },
    "profile": {
        "command": "profile", "app": "tir", "features": 20_000,
        "max_pages": 64, "top": 8, "json": False, "hotspots": False,
        "pstats_out": "",
    },
    "serve": {
        "command": "serve", "app": "tir", "features": 400_000,
        "queries": 240, "qps": None, "queue_bound": 32, "policy": "reject",
        "deadline_ms": None, "max_batch": 8, "servers": 1,
        "cache_entries": 0, "threshold": 0.1, "intents": 200,
        "fail_accels": "", "fidelity": "analytic", "seed": 0, "bins": 40,
        "scorecard": False, "leg": "serving", "json": False,
    },
    "cluster": {
        "command": "cluster", "app": "tir", "features": 20_000,
        "shards": 4, "replicas": 1, "hedge": 0.0, "straggler": 0.0,
        "fail_shards": "", "placement": "range", "level": "channel",
        "k": 10, "queries": 3, "seed": 0, "cache_threshold": 0.0,
        "scorecard": False, "leg": "cluster", "json": False,
    },
    "ingest": {
        "command": "ingest", "app": "textqa", "base": 1024, "rounds": 3,
        "queries": 6, "k": 10, "seed": 0, "scorecard": False,
        "leg": "ingest", "json": False,
    },
    "index": {
        "command": "index", "app": "textqa", "features": 65536,
        "lists": 32, "k": 10, "queries": 4, "seed": 7, "scorecard": False,
        "leg": "index", "json": False,
    },
    "chaos": {
        "command": "chaos", "seed": 0, "duration": 1.0, "crashes": 3,
        "kills": 4, "queries": 24, "track": "both", "scorecard": False,
        "leg": "recovery", "json": False,
    },
    "explain": {
        "command": "explain", "query_id": 0, "app": "tir", "features": 2000,
        "shards": 3, "replicas": 2, "hedge": 0.3, "straggler": 0.5,
        "fail_shards": "1:0", "k": 5, "queries": 8, "seed": 0, "out": "",
        "json": False,
    },
    "slo": {
        "command": "slo", "seed": 0, "duration": 1.0, "kills": 4,
        "queries": 24, "json": False,
    },
    "tenants": {
        "command": "tenants", "seed": 0, "day": 86_400.0,
        "features": 32_000_000, "trace": False, "no_isolation": False,
        "scorecard": False, "leg": "tenancy", "json": False,
    },
    "demo": {
        "command": "demo", "app": "tir", "level": "channel",
        "features": 10_000, "seed": 0,
    },
}


@pytest.mark.parametrize("command", sorted(DEFAULTS))
def test_parsed_defaults(command):
    parsed = vars(build_parser().parse_args([command]))
    for key in DISPATCH_KEYS:
        parsed.pop(key, None)
    assert parsed == DEFAULTS[command]
    # float-valued defaults stay floats, int-valued ones ints
    for key, value in DEFAULTS[command].items():
        assert type(parsed[key]) is type(value), key


#: argv -> (exit code, sha256 of stdout)
STDOUT = {
    "breakdown": (
        0, "05008b20a77f6141e5c9dd0474a30cb11f42019b4890cd72f9c4330c2278e34e",
    ),
    "cache --entries 64 --queries 200 --intents 200 --distribution uniform": (
        0, "1cb02bbf12ab7236e0bc1d4f75244391b4da74274c6abc53795879b49a8c1081",
    ),
    "chaos --crashes 1 --kills 1 --queries 6": (
        0, "888f9e5a5ec1c11859b07c528e17db438a86162800253276c1c9591f652daa5d",
    ),
    "chaos --crashes 1 --kills 1 --queries 6 --json": (
        0, "6c9a0152bfe8671f58d45eb155d9b93fcdb007977dc260b07ba1df414da0f3e8",
    ),
    "chaos --crashes 1 --kills 1 --queries 6 --track durability": (
        0, "7d1dc50d8c954b8ec06531ad9dddcfa2780da5ebe50327f5a4b595922ef33bb4",
    ),
    "chaos --scorecard": (
        0, "7f9689578f628d5bb940cee16a34e52c9bb915b62542c912879c9bf9b7262b3b",
    ),
    "cluster --features 600 --queries 2 --k 4 --shards 2 --fail-shards 0": (
        0, "662817090ffb662c64ba9c7d3782c33dc29b397f94cd9d329974ae75f11750ff",
    ),
    "cluster --features 600 --queries 2 --k 4 --shards 2 --fail-shards 0,1": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "cluster --features 600 --queries 2 --k 4 --shards 2 --json": (
        0, "2c96e0c2633cf5c47eccb22df7b7b57996ab7415e4c9fb67418cf7790091c064",
    ),
    "cluster --features 600 --queries 2 --k 4 --shards 2 --replicas 2 --fail-shards 0:0 --hedge 0.3": (
        0, "9d32032777c76f34542d32b0573ea1319f96511abfeca37954a101a8726f1cf9",
    ),
    "cluster --features 600 --queries 2 --k 4 --shards 3": (
        0, "14e80c3888b853aaf57b88d20ed416210565e29e75ac6d75962f1eef5372b479",
    ),
    "cluster --scorecard": (
        0, "25e290743f1f4ec6973582850d6dc882c5004ed545ab0039e49ed6984ae6cf03",
    ),
    "demo --app textqa --features 2000 --seed 0": (
        0, "2ae2990f216c3861fa2be6fae14576a4e0fc5693fdd32653027b26a54344e983",
    ),
    "dse": (
        0, "366dae14baa477b795878790e40affc88e8ce8881d95110fe010e0728cdf369b",
    ),
    "explain --features 600 --queries 4 --json": (
        0, "76b089459c7f8d61bb974fd4881bbd6c254630f01ead0050656ce420b711d254",
    ),
    "explain --features 600 --queries 4 --out dtrace.json": (
        0, "52d8bd9c2fef4d72d10dc5a49545a6b3e90ad46ed206dd0920877ed0a06630e3",
    ),
    "explain --features 600 --queries 4 2": (
        0, "3b7ff4482ea9448a8280b1c4736b1a2d52425a1229934a51e8b7b468984bc118",
    ),
    "explain --features 600 --queries 4 99": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "faults --features 2000 --queries 1 --crc-rate 0.1 --json": (
        0, "d25a5e41eac25e9a3d0738c38ecb16157db9ea87e621138406d7278f254d1b0f",
    ),
    "faults --features 2000 --queries 2 --retry-rate 0.05 --fail-accels 2": (
        0, "98e21804a2ef877e33d4d6083c3dbd8bc1bf6e598c33eca38946e6552fba21dc",
    ),
    "faults --features 5000 --queries 2 --max-pages 16": (
        0, "b667f95cb69b031157bad42f3524d3f29f18b495a16f29b8f8f336dd0c4d1dfe",
    ),
    "faults --features 5000 --queries 2 --max-pages 16 --json": (
        0, "276990b9d2814a9b7ebe2177a5e797ba375ca2d7ee4e48d283f6ae935edfc613",
    ),
    "index --features 4096 --lists 8 --queries 2": (
        0, "c12090467224a1779c43f2e9eb85ede520afc0664fb5b7768584f8ea22dc45dd",
    ),
    "index --features 4096 --lists 8 --queries 2 --json": (
        0, "18292e88797214bf62ffe05f826caa59155e822adc189f0114b36672b874abe0",
    ),
    "index --scorecard": (
        0, "bc3e205067b569d1752ef530fb8b9588efd51911b40d475ebc8af599c5ad9328",
    ),
    "info": (
        0, "6ed5f14fd0ca558505249b311ff04b06b8ebe73591c708366fec3ff07e8c2d05",
    ),
    "ingest --base 512 --rounds 2 --queries 4": (
        0, "4948ef02a5974da085b57fefd13aadbba31c9de220e537867ee95273238a6e00",
    ),
    "ingest --base 512 --rounds 2 --queries 4 --json": (
        0, "c131da1d00efb2cb31f4b7e9cc180901c197f907fdf95f34ca0687551cc3f667",
    ),
    "ingest --scorecard": (
        0, "332dc78dd1665327d3ae412b856ef77a5358397bab07c7cdd78701fa1b8df7f0",
    ),
    "plan --app reid --features 2000000000 --qps 1.0": (
        1, "0442b76f6cb71872af11ae8cbdb31b86e1529851a329f027cba19f50d38963e9",
    ),
    "plan --app tir --features 1000000 --qps 0.5": (
        0, "732f59b91143cd27b89933f41c440fe242e1c21f8f3458a64bd677d0f82e713d",
    ),
    "profile --features 5000 --max-pages 16 --top 4": (
        0, "c33ad90d806da0390a4d1909be5a03d312874e3f6a19b24f5a1d1e6ed569f5be",
    ),
    "profile --features 5000 --max-pages 16 --top 4 --json": (
        0, "d70093aeadb24d5023eb623a3d1531197cb2178c0e04b7552d1eca082781b8ee",
    ),
    "scorecard --gigabytes 1": (
        0, "f1b3bef009b892d478d0c895f7d4905c4e6448ccfde31f9616ee9a862749c909",
    ),
    "scorecard --gigabytes 1 --json": (
        0, "8dd105c4affcabee908765d4a8bd0be0784d940b2043fd169b47d59f3b83285a",
    ),
    "serve --features 50000 --queries 40": (
        0, "23114179132e631222c006f6781d79c92eb9a577ffe8ed818fe1779b4fb87ef1",
    ),
    "serve --features 50000 --queries 40 --cache-entries 32 --qps 2": (
        0, "96c68f88d21f933abf7e0643ddec879e9b54a5cfdcec57a3d31b76937b9a174f",
    ),
    "serve --features 50000 --queries 40 --fail-accels 0,1 --qps 1 --json": (
        0, "4b8215cf243f7553557f6aa58b13e2aebfbf792aeb5a19afdeff3c4ca25be82e",
    ),
    "serve --features 50000 --queries 40 --policy deadline --deadline-ms 200 --bins 20": (
        0, "ef5c303bba5606fad1a6b8003f494a1246bf4fde52e12eeacacb53dbf23aebb7",
    ),
    "serve --features 50000 --queries 40 --qps 5 --json": (
        0, "478a57fa90decdb0d686560d4e4f26576d2332d8f517346bd6742dee81b29930",
    ),
    "serve --scorecard": (
        0, "952e9b4f7b489997e2c739d4f74c9fffd703c15d85f40d4cc747521059753686",
    ),
    "slo": (
        0, "f756d061d1e3dd810c46ce33a9572bf6116133046dae0f68ef82677bd11fdc80",
    ),
    "slo --duration 0": (
        1, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "slo --json": (
        0, "db4958960c2ccff2338bdfd1a496cc5a02b513ce96ef08c52d351e8f834fa19a",
    ),
    "speedup --app textqa --gigabytes 1": (
        0, "f684d95e41277ee14f68bb4e21fe139d575abfe9b5a7bf8871f42acf1110f12f",
    ),
    "table1": (
        0, "af897e2513b5c3b1bedad87c3a8659bc7a3a113ae7232fe55077b3c845f839bc",
    ),
    "tenants --day 4000 --features 2000000": (
        0, "172822cda1990773163efbafa955b9d6eaeb684a7534b2384d903e8046b4aa53",
    ),
    "tenants --day 4000 --features 2000000 --json": (
        0, "3f45860dfe09447d43c7ed6cd7126890877ff0a4679353605a20c1713a0c0717",
    ),
    "tenants --day 4000 --features 2000000 --no-isolation --json": (
        0, "a31e691811e2ab6fdd969e08fb1d91a94a7295a055471bd2defbe5ff122ba3e0",
    ),
    "tenants --day 4000 --features 2000000 --trace": (
        0, "82c4f8853e2baf53cf0434302c1f89fead2cb7abccd48c44f3b12dbb9ab671ee",
    ),
    "tenants --day 4000 --features 2000000 --trace --json": (
        0, "dafa3c498115a69eeca41eadb16bc0550c487e2e14a9fd3469d47bd2d50f7eea",
    ),
    "tenants --scorecard": (
        0, "e2c43d1fdd766235449c0d403527e540033591669e5bc73300c622f2c29a9720",
    ),
    "trace --app reid --features 2000 --max-pages 8 --top 3 --bins 10 --out t.json": (
        0, "d90f62d77ef6ccf94853afb68f2f04a37d8c634c866d43bc533899f7cbe938e5",
    ),
    "trace --features 5000 --max-pages 16 --out trace.json": (
        0, "dc73e69f943160327d959d4094b1201e1318d5bf0b678cfcfafb14921883e1e4",
    ),
    "trace --features 5000 --max-pages 16 --out trace.json --json": (
        0, "67b854169929b5261eed99b0cec7666b086773363d4fde19b6344fa8552cab6d",
    ),
}


@pytest.mark.parametrize("argv", sorted(STDOUT), ids=str)
def test_stdout_and_exit_code(argv, capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code = main(argv.split())
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert (code, digest) == STDOUT[argv]


def test_matrix_covers_every_command():
    commands = {argv.split()[0] for argv in STDOUT}
    assert commands == set(DEFAULTS)
