"""Golden corpus: small CLI runs whose outputs are pinned byte for byte.

Each digest is the sha256 of a run's exit code, its stdout and every file
it writes.  A change that alters any output of these runs fails here; one
that means to must say so and re-pin the digest.
"""

import hashlib

from grouporders import (
    HEISENBERG,
    ball,
    build_extension_system,
    default_generators,
    heisenberg_element,
    lex_functional,
    quadrant_order,
    uniform_order,
    window_from_elements,
    zn,
    zn_element,
)
from grouporders import serialize as ser
from grouporders.cli import main
from grouporders.constraints import ConstraintSystem
from grouporders.groups import interval_window

W2 = ["w2.json"]  # ball z2 --radius 2, written by the first run
W1 = ["w1.json"]  # ball z1 --radius 6
SL3 = ["--q", "1", "--n", "2", "2", "2", "2", "2", "2", "--trunc", "3"]
COSET = ["--sampler", "coset", "--inner-order", "inner.json", "--subgroup-zero-coords", "0"]

# (name, argv, files the run writes)
RUNS = [
    ("ball_z2", ["ball", "z2", "--radius", "2", "-o", "w2.json"], ["w2.json"]),
    ("ball_z1", ["ball", "z1", "--radius", "6", "-o", "w1.json"], ["w1.json"]),
    ("check_extend_sat", ["check-extend", "sat.json"], []),
    ("check_extend_unsat", ["check-extend", "unsat.json"], []),
    ("verify_sl3", ["verify-sl3", *SL3, "--certificate-out", "sl3cert.json"], ["sl3cert.json"]),
    ("sample_uniform", ["sample", *W2, "-N", "3", "--seed", "11"], []),
    ("sample_coset", ["sample", *W2, "-N", "3", "--seed", "11", *COSET], []),
    ("sample_rotation", ["sample", *W1, "-N", "3", "--seed", "11", "--sampler", "rotation"], []),
    ("sample_pairs", ["sample", *W2, "-N", "2", "--seed", "11", "--encoding", "pairs"], []),
    ("estimate", ["estimate", *W2, "--cylinder", "cyl.json", "-N", "200", "--seed", "3"], []),
    ("estimate_coset", ["estimate", *W2, "--cylinder", "cyl.json", "-N", "60", "--seed", "3",
                        *COSET], []),
    ("chisq", ["chisq", *W2, "--probe", "d3.json", "-N", "120", "--seed", "3"], []),
    ("chisq_coset", ["chisq", *W2, "--probe", "d3.json", "-N", "60", "--seed", "3", *COSET], []),
    ("invariance", ["invariance", *W2, "--element", "[1,0]", "--probe", "d2.json",
                    "-N", "200", "--seed", "3"], []),
    ("realize_bernoulli", ["realize", *W2, "--action", "bernoulli", "--point-seed", "1",
                           "-o", "b1.json"], ["b1.json"]),
    ("realize_bernoulli_2", ["realize", *W2, "--action", "bernoulli", "--point-seed", "2",
                             "-o", "b2.json"], ["b2.json"]),
    ("glue", ["glue", "b1.json", "b2.json", "--k-file", "k.json", "--d-file", "d2.json",
              "-o", "glued.json", "--report-out", "rep.json"], ["glued.json", "rep.json"]),
    ("realize_rotation", ["realize", *W1, "--action", "rotation", "--x", "3/10",
                          "-o", "rot.json"], ["rot.json"]),
    ("realize_torus", ["realize", *W2, "--action", "torus", "--alphas", "0,1;1/3,-1",
                       "--x", "1/7,2/9"], []),
    ("reconstruct", ["reconstruct", "rot.json", "--n", "1,3,5", "--true-x", "3/10"], []),
    ("levels", ["levels", "rect.json"], []),
    ("ball_heis", ["ball", "heis", "--radius", "3", "-o", "wh.json"], ["wh.json"]),
    ("ball_sl3", ["ball", "sl3", "--radius", "2", "-o", "ws.json"], ["ws.json"]),
    ("ball_z3", ["ball", "z3", "--radius", "3", "-o", "w3.json"], ["w3.json"]),
    ("sample_far", ["sample", "far.json", "-N", "3", "--seed", "11"], []),
    ("realize_bernoulli_far", ["realize", "far.json", "--action", "bernoulli",
                               "--point-seed", "1", "-o", "bfar.json"], ["bfar.json"]),
    ("reconstruct_box", ["reconstruct", "b1.json", "--scheme", "box", "--n", "1,2"], []),
    ("reconstruct_box_rect", ["reconstruct", "rect.json", "--scheme", "box", "--n", "1,2,3"],
     []),
    ("invariance_rotation", ["invariance", *W1, "--element", "[2]", "--probe", "d1.json",
                             "-N", "60", "--seed", "3", "--sampler", "rotation"], []),
    ("invariance_coset", ["invariance", *W2, "--element", "[1,0]", "--probe", "d2.json",
                          "-N", "60", "--seed", "3", *COSET], []),
    ("realize_bernoulli_heis", ["realize", "wh.json", "--action", "bernoulli",
                                "--point-seed", "1", "-o", "bh1.json"], ["bh1.json"]),
    ("realize_bernoulli_heis_2", ["realize", "wh.json", "--action", "bernoulli",
                                  "--point-seed", "2", "-o", "bh2.json"], ["bh2.json"]),
    ("glue_heis", ["glue", "bh1.json", "bh2.json", "--k-file", "kh.json", "--d-file", "dh.json",
                   "-o", "gluedh.json", "--report-out", "reph.json"],
     ["gluedh.json", "reph.json"]),
]

# pinned at the outputs of the commit before OrderMatrix.induced
GOLDEN = {
    "ball_z2": "48bdef9f7a42e1a77422ea17c19bfcabba202eaa7b4255eb9e755d8d93134605",
    "ball_z1": "3d8610f60bc5190aff9bbe562c7a5a1ba6a87a7a56fc53800da671e2f39f4876",
    "check_extend_sat": "bb206ba569844047ad9bb2286e8ec7c86093d40ee05887fd391a8d97e57cb047",
    "check_extend_unsat": "109ae4118916cbce5ce6a977a43c629914abf662050adf1c45b80ad21fc1fd7b",
    "verify_sl3": "47ffd3dcd51908a06402ba0a67738421ca660c08cebbc272281c50c23c7a089b",
    "sample_uniform": "3ae274b62bf31c91f2a70185eb8a9d9093b9ba7dba3d05a7cf582f54afce55ed",
    "sample_coset": "5dc13e80f3786d43476361a13db8eb900ac2eb74a21581475a93d7fab8f14a1b",
    "sample_rotation": "dc0a2e6e3977c55909b778c136e2404646e197c3b7f2124f2a4461fdfa2f4323",
    "sample_pairs": "e21855f970996ad634dfce4638f66b44e39e097b37ec75622187a8b0856dd4bf",
    "estimate": "538a01ee4b5db267fd499c40c7c4167cb03d67aef77fd7b636becfd5fd8ba10c",
    "estimate_coset": "f80bcaca4bb228411b1fb5c674be72ebeb4d076dbd70b3eb70337182a13d084a",
    "chisq": "5f7f84d33bfad1c5e5c4d0490e470cd706bd86c5e6d2d56b2919f186bb1b56ad",
    "chisq_coset": "4c58f485be31d0f2612d13c319511cfbfa6880a5acb6160320c0b7dccb525924",
    "invariance": "bdd31133975a62b5a8929c1348c5dcb141bec355d64adcf5428e947fd6b2cae1",
    "realize_bernoulli": "be767e38b18dbe31296c8d772f68614807c3b10a77cc39b9abf0125c42178ba2",
    "realize_bernoulli_2": "ee9e59380504986fd2c7624faf904688ef015ec2c0697e97c8a359e21fe086a7",
    "glue": "17b24b91c06b61577ba12b0217777551fef63004a9c12424dc5c1c835bb43c27",
    "realize_rotation": "a1c80e6fb9a09fe26d84d9f9d8c2b535d80888e94212ad8b96a2f5edf41b324f",
    "realize_torus": "ebed47f3c1cca1083d5034376d89fc50803b392cca9bf1a0070132ca92f222f7",
    "reconstruct": "9237a2b27afee15dc8a4a0afeb5e08c51d04ddf2b4a115043d1bffed2c09ed8f",
    "levels": "f599f08a010a2cec27033e2685e29b3e002d1a3a4110a41fd24a167a76bc24c1",
    # pinned at the outputs of the commit before Window.from_payloads
    "ball_heis": "0f70e6e437b287d00e710f4c3fdb749fdaef8fdf8bc9be5ec6a5400381f067f0",
    "ball_sl3": "94f289104f8739412392f23e38a364eb9475772c817753b08a2f79d58897a4c7",
    "ball_z3": "223f40e5cf96aeb9018544a9125da763f3ea931f60eea9179bd3ea532f984977",
    "sample_far": "bb37d5e7024a9955d636a1d597b37e326bebeb3c8b8f3cb4cb83c7cfc3b35521",
    "realize_bernoulli_far": "efcbeebeae96ec46095fabd1cfa6c37ccf6edcc82686f7916e0e380470852942",
    "reconstruct_box": "aed3fd93b83eda2ad4e4abb9e9f18d10b63cb4f34355163e7c684e0cb8524aa0",
    "reconstruct_box_rect": "938e2899c668f4efb1c345b880fef34e41c142efef925da9b1f42727a575b039",
    # pinned at the outputs of the commit before payload-level Window.preimages
    "invariance_rotation": "7de6176c63f91d4c73ee29828c03d8d332fd03d914a20b33a0475db97f26c68a",
    "invariance_coset": "9df7de20a224adecd184b5d9845dfbca6787f83f2d75d1c29da03bdbec72cc33",
    "realize_bernoulli_heis": "b6484e91f5ec493ca9d0b1ff226777c4916198c61e53a5b0e9df7ede8857bc6a",
    "realize_bernoulli_heis_2": "43edaeda59ef6cf6e1fd74864896642baa990c280ff1047256e2db4c0a4dca21",
    "glue_heis": "817db778b0531d2f5d7b30b6f79d9c1c4b27d5b1482e962d1814884a084af0c2",
}


def _write(name, payload):
    with open(name, "w", encoding="utf-8") as fh:
        fh.write(ser.canonical_dumps(payload))


def _inputs():
    """The input files no run writes, built from small fixed objects."""
    w3 = ball(default_generators(zn(2)), 3)
    _write("sat.json", ser.system_to_json(build_extension_system(w3, quadrant_order(2))))
    cyc = ConstraintSystem(interval_window(0, 3), ((0, 1), (1, 2), (2, 0)))
    _write("unsat.json", ser.system_to_json(cyc))
    axis = window_from_elements(zn(2), [zn_element(0, y) for y in range(-2, 3)])
    _write("inner.json", ser.order_to_json(uniform_order(axis, 4)))
    D2 = window_from_elements(zn(2), [zn_element(1, 0)])
    D3 = window_from_elements(zn(2), [zn_element(1, 0), zn_element(0, 1)])
    _write("d2.json", ser.window_to_json(D2))
    _write("d3.json", ser.window_to_json(D3))
    _write("cyl.json", {
        "format": 1,
        "window": ser.window_to_json(D2),
        "pattern": {"format": 1, "closed": True, "perm": [1, 0]},
    })
    _write("k.json", {"format": 1, "group": {"kind": "zn", "n": 2}, "elements": [[0, 1]]})
    D1 = window_from_elements(zn(1), [zn_element(1), zn_element(-2)])
    _write("d1.json", ser.window_to_json(D1))
    # x^-1 y and y x^-1 differ in the Heisenberg group, so K^-1 D pins the side
    _write("kh.json", {"format": 1, "group": {"kind": "heis"}, "elements": [[1, 0, 0]]})
    _write("dh.json", ser.window_to_json(
        window_from_elements(HEISENBERG, [heisenberg_element(0, 1, 0)])))
    rect = window_from_elements(zn(2), [zn_element(x, y) for x in range(4) for y in range(3)])
    _write("rect.json", ser.order_to_json(lex_functional(2).window_order(rect)))
    big = 1 << 62
    far = [(big, -big), (-big, big), (big - 1, 0), (0, 1 - big), (big + 7, big + 7),
           (-big - 7, -big - 7), (1, 1), ((1 << 63) - 1, -(1 << 63))]
    far_window = window_from_elements(zn(2), [zn_element(*p) for p in far])
    _write("far.json", ser.window_to_json(far_window))


def corpus_digests(capsys):
    """Run the corpus in the current directory; one digest per run."""
    _inputs()
    digests = {}
    for name, argv, written in RUNS:
        code = main(list(argv))
        out = capsys.readouterr().out
        h = hashlib.sha256(f"{code}\n{out}".encode())
        for path in written:
            with open(path, "rb") as fh:
                h.update(fh.read())
        digests[name] = h.hexdigest()
    return digests


def test_golden_cli_corpus(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert corpus_digests(capsys) == GOLDEN
