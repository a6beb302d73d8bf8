"""Golden report digests: the sha256 of each report is pinned, so a change to
elimination, ordering or serialization that alters any report byte fails
here.  A reduced-echelon kernel basis is unique for its free columns, and the
free columns are fixed by the matrix, so any correct elimination engine must
reproduce these bytes.
"""

import hashlib
import itertools

import pytest

from usinv.cli import run
from usinv.limits import cocharacter_grid
from usinv.rootsys import positive_roots
from usinv.subsets import enumerate_closed, transitive_closure
from helpers import oracle_roots_closed

D3_BOREL = "L1-L2,L1+L2,L1-L3,L1+L3,L2-L3,L2+L3"
B3_BOREL = D3_BOREL + ",L1,L2,L3"
C3_BOREL = D3_BOREL + ",2L1,2L2,2L3"

GOLDEN = [
    ("point --pairs corpus:boundary-example --weighted minimal",
     "8b9d7c136640d7c00651ac87e60c9eaddafb341a3bd385a806985f9ab6a020e7"),
    ("stab --pairs corpus:boundary-example --weighted minimal",
     "07c1b38b644b171d7297546778ad19fe79de142dd82ab6fca8ec118b3c9d73da"),
    ("point --pairs corpus:full-borel --weighted minimal",
     "268498aba6d0100ca0f8ef73116ef06a85a5e602b255dc64afcce6c6b100221a"),
    ("stab --pairs corpus:full-borel --weighted minimal",
     "c3f6e48ae7463046d14b7a6636b4f6e06204bacceb69a40cd404e393756f739b"),
    ("point --pairs corpus:regularsubgroup --weighted minimal",
     "a3212dee1ed0561d68529fb2217543492ce223e1da75f4f0c3943f063a9e0ef7"),
    ("stab --pairs corpus:regularsubgroup --weighted minimal",
     "de4bbfb4c13e56e5c758300f154ca1cf2cfb40370d3f4c10c03827faf632ec4d"),
    ("point --pairs corpus:so4-borel --weighted minimal",
     "4951e9ffe4f2624f8c4fedd55361e13ef8c0463896f404460a76766dde64f5fc"),
    ("stab --pairs corpus:so4-borel --weighted minimal",
     "5dc1e3593553c03d37cd99f50ee47633b4bc36c9923c914f43fa307ed88ac5f0"),
    ("point --pairs corpus:sp4-closed --weighted minimal",
     "6d30c773603ba838f8fb495d5d2fec44b670a3b0854c809d3c603a8c3456fde5"),
    ("stab --pairs corpus:sp4-closed --weighted minimal",
     "49b08b6c6f2e15c605bee145a8a2004b8d8a8524bf2219a45ba7838c39a0a950"),
    ("point --pairs corpus:trivial --weighted minimal",
     "aa25f9745f5dca46fa666f645fb5e5ecfe6f35f54cfaec4cbf19e0259807fb6b"),
    ("stab --pairs corpus:trivial --weighted minimal",
     "920f7133139230e590f76c4e53db565bd12b404a9efa575896526638f76f0bc8"),
    ("closed check --pairs corpus:regularsubgroup",
     "068c015e5b22f6db3a10baae4e32573dd7ceed1978c8cc1bb0c88c168d20d96e"),
    ("limit --pairs corpus:boundary-example --cochar 1,-1,-1,1",
     "3d5384979a92fae8d66f0bd978562d211c27f96a9b37c5e3876d10bc81b66d18"),
    ("screen --pairs corpus:boundary-example --alpha none --radius 1",
     "a31aa56a212fdbd70aecf4708c1d4f366504bd3a12a992fad285594a1b756868"),
    ("invariants --pairs corpus:full-borel --degree 2",
     "6fbff30a9630b2192f20f791f150a6ed48900eb92ea4190334545f40b2d19f8b"),
    ("corpus",
     "218f13a75ff44f55cfada78c5008664e410e75835969f07b21c70e657a79686d"),
    ("invariants --pairs corpus:full-borel --degree 3",
     "74c12fe46c61a3b5a53818f8f1cd4a7a3c72af3e67f9090f6d479ed391a1d42d"),
    ("check-generation --pairs corpus:regularsubgroup --degree 2",
     "4c39c1e49cd8bd259d5be24e26e5a443ee16ce13959fe25f95be0c2faea7f6c5"),
    (f"stab --family D --l 3 --roots {D3_BOREL} --weighted minimal",
     "b5a3f630ec05967830976fcc393e501de1b28b5355b57424f1290c535b0fc115"),
    (f"stab --family B --l 3 --roots {B3_BOREL} --weighted minimal",
     "74457c1e12dd17b45ff4b8cf3d37da50810a00416291051538f595b1df1389e5"),
    (f"stab --family C --l 3 --roots {C3_BOREL} --weighted minimal",
     "35bc16c66f14786ee4c790401e599549b795ec7f3f42d69e3ca178145eda8549"),
    (f"screen --family B --l 3 --roots {B3_BOREL} --alpha minimal --radius 2",
     "5a00c0beb13ad15ed5bfffaeafab7f9ecf1fda2ee44208451efbb9b2e7596486"),
    ("invariants --n 4 --pairs 1:2,2:3,1:3 --degree 3",
     "4480f191c08ef85c724651315503830a5d24f78056f7f9061474e9123e76974f"),
    ("stab --n 6 --pairs 1:3,1:5,2:4,2:6,3:5,4:6 --weighted minimal",
     "5c4191c10b0c3eef06df41f9669fddd183e9024488587fb75d65c28399202d42"),
    ("stab --n 6 --pairs 1:2,1:3,1:4,1:5,1:6,2:3,4:5 --weighted minimal",
     "e99f4e27223615f5c1c16efee3a50d648e0aaa14cf9e4e901644b9bdace242ba"),
    ("stab --family B --l 3 --roots L1+L2,L1+L3,L1,L1-L3 --weighted minimal",
     "1af648c15fd8fa6d69b0894d94b44afaac6e0dfb9e0bf8f1453ccd7137f57091"),
    ("stab --family C --l 3 --roots 2L1,L1+L2,L1+L3,L1-L3 --weighted minimal",
     "ee770d4fb251e2fe5569c9c448041647c906dd3076ea3d5d10c59998c1d05cc1"),
    ("stab --family D --l 3 --roots L1+L2,L1+L3,L1-L3,L2+L3 --weighted minimal",
     "f20da61b5d2d027200bce55d8a266ebb6ca18b0f85b6a6d6aac58487dc353537"),
    ("stab --n 4 --pairs 1:3,2:4",
     "c5ce42a1a54da7faf2e309279ab6969372417f450dea4076bc76017be006ce2a"),
    (f"stab --family D --l 3 --roots {D3_BOREL}",
     "0768f04a5f290745b085f203c1be51f8702cf1d6a84d957935d35ec468a345f0"),
    ("limit --pairs corpus:boundary-example --cochar 1,-1,-1,1 "
     "--weighted minimal",
     "ee1be352ee7bfec1eb8ec614f65b8ed7e6f9c5c38fb0725ae414d70f49a20077"),
    ("limit --pairs corpus:regularsubgroup --cochar 1,-1,-1,1",
     "31eac2c50743a53b6646d0d4572c7f63abef5c130a9a2fbf2ecad24076fe317b"),
    ("limit --pairs corpus:full-borel --cochar 1,0,-1 --weighted minimal",
     "4f237589746787840db046769af458249119d5516490d7f4fcd7aa5904732a29"),
    ("limit --pairs corpus:so4-borel --cochar 1,0,-1,0 --weighted minimal",
     "40ec2f279407b120945d6be7ebc754b16dbaca30ca3d9b4bec28d55cec9622e5"),
    ("screen --n 4 --pairs 1:2,3:4 --alpha minimal --radius 2",
     "75528861b2d29cbeff2dbfc8aa6eb3ca9f20f9dee15adcaac3b00b89b9b46fbd"),
    ("closed enumerate --n 5",
     "c34e26e7b23f44f416568c8a50179d89314e7fe02a11cd219c1d6f3305b0d437"),
    ("closed enumerate --n 6",
     "a739741d26d9717de26e17eb7ff281844777b81040dfa9a72e25066500cf9b75"),
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_digest(capsys, command, digest):
    run(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def _cochar_args(weights) -> list:
    text = ",".join(str(x) for x in weights)
    # the joined form is the one that parses with a negative first weight
    # at every version of the parser, so the pinned echo never changes
    return [f"--cochar={text}"] if weights[0] < 0 else ["--cochar", text]


def _limit_sweep(family: str, rank: int, sets) -> list:
    """limit argv lists for every set in `sets` (each a list of subset
    arguments) and every cocharacter of radius 2, plain and weighted."""
    out = []
    for subset_args in sets:
        for lam in cocharacter_grid(family, rank, 2):
            for weighted in ([], ["--weighted", "minimal"]):
                out.append(["limit"] + subset_args
                           + _cochar_args(lam.weights) + weighted)
    return out


def _closed_sets(n: int) -> list:
    return [["--n", str(n), "--pairs",
             ",".join(f"{i}:{j}" for i, j in pairs)]
            for pairs in enumerate_closed(n)]


def _root_sets(rank: int) -> list:
    """Every non-empty closed root set of B_rank, C_rank and D_rank."""
    out = []
    for family in "BCD":
        pos = list(positive_roots(family, rank).positive_roots)
        for size in range(1, len(pos) + 1):
            for combo in itertools.combinations(pos, size):
                if oracle_roots_closed(combo, pos):
                    out.append((family, ["--family", family, "--l", str(rank),
                                         "--roots",
                                         ",".join(r.name() for r in combo)]))
    return out


def _sweep_digest(capsys, commands) -> str:
    capsys.readouterr()
    for argv in commands:
        run(argv)
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_sl3_limit_sweep_digest(capsys):
    commands = _limit_sweep("A", 2, _closed_sets(3))
    assert len(commands) == 266
    assert _sweep_digest(capsys, commands) == (
        "98fbb43a6832401001a8efd1c10d3c78e4cc0035fff58e92c58a972fe2a9d035")


def test_rank2_root_set_limit_sweep_digest(capsys):
    commands = [argv for family, args in _root_sets(2)
                for argv in _limit_sweep(family, 2, [args])]
    assert len(commands) == 1250
    assert _sweep_digest(capsys, commands) == (
        "53a41e8779d810f6e2c1b2c6a4bdf6e8cf563430a4f61317b2bd130739a826d5")


def test_stab_sweep_digest(capsys):
    """Every closed SL_5 set, plain and weighted, and every non-empty closed
    B_3/C_3/D_3 root set, weighted: the stabilizer equations and elimination
    at the sizes the stab-sweep benchmark runs."""
    weighted = ["--weighted", "minimal"]
    commands = [["stab"] + args + extra for args in _closed_sets(5)
                for extra in ([], weighted)]
    commands += [["stab"] + args + weighted for _, args in _root_sets(3)]
    assert len(commands) == 1095
    assert _sweep_digest(capsys, commands) == (
        "cc3196f95b3e5085be6624e54910eb9304dd22112c8940c42fd1369f53e19709")


def test_invariants_sweep_digest(capsys):
    """Every closed SL_4 set at degrees 2 and 3 and every closed SL_3 set at
    degree 3: the invariant equations, their elimination and the kernel
    basis order.  At SL_4 degree 3 the rows the presolve leaves fall into
    several blocks of columns that share no row for all but two sets."""
    commands = [["invariants"] + args + ["--degree", "2"]
                for args in _closed_sets(4)]
    assert len(commands) == 40
    assert _sweep_digest(capsys, commands) == (
        "bc2dd53087c9392ef64e4f9c1867801e8f8d53c10135ede9d5f76d3b2a5895c7")
    commands = [["invariants"] + args + ["--degree", "3"]
                for args in _closed_sets(4)]
    assert len(commands) == 40
    assert _sweep_digest(capsys, commands) == (
        "0defaa1e8e254f81100fd172757db6e62e0ec934c2d6b2ecd1980ba4ccadf48e")
    commands = [["invariants"] + args + ["--degree", "3"]
                for args in _closed_sets(3)]
    assert len(commands) == 7
    assert _sweep_digest(capsys, commands) == (
        "5e14bb5bc6419ad1189a24aea7a18b76b349d5e66dc931305e4afb54a23f3eaf")


def _pairs_arg(subset) -> str:
    return ",".join(f"{i}:{j}" for i, j in sorted(subset.pairs))


def test_interleaved_families_digest(capsys):
    """Weighted SL_6, B_3, C_3 and D_3 stab commands interleaved with SL_4
    screens in one process, with the first round repeated at the end.  Each
    Lie algebra is built once per process and shared, so one family's
    algebra leaking into another's command, or a caller mutating a shared
    algebra, changes these bytes; the one-family sweeps cannot see either."""
    weighted = ["--weighted", "minimal"]
    gens = [[(1, 2)], [(1, 3), (2, 4)], [(1, 2), (3, 4), (5, 6)], [(1, 6)],
            [(2, 5), (1, 3)], [(1, 2), (2, 3), (4, 5)], [(3, 6), (1, 4)],
            [(k, k + 1) for k in range(1, 6)]]
    sl6 = [["--n", "6", "--pairs", _pairs_arg(transitive_closure(6, g))]
           for g in gens]
    roots = {f: [args for fam, args in _root_sets(3) if fam == f] for f in "BCD"}
    sl4 = [args for args in _closed_sets(4) if args[-1]]
    commands = []
    for k in list(range(len(gens))) + [0]:
        commands.append(["stab"] + sl6[k] + weighted)
        for f in "BCD":
            commands.append(["stab"] + roots[f][5 * k] + weighted)
        commands.append(["screen"] + sl4[4 * k]
                        + ["--alpha", "minimal", "--radius", "1"])
    assert len(commands) == 45
    assert _sweep_digest(capsys, commands) == (
        "66fc5137095dfdfcf6caaf3e88a45c1b995d1680e43cd4e6d1f0025a811f3754")


def test_plain_point_sweep_digest(capsys):
    """`point` on every closed SL_4 set and every non-empty closed rank-2
    B/C/D root set: plain, the `shape`/`components` schema of a point with
    no flag levels; weighted, the `sigma`, `flag_levels` and `alpha` each
    family gives its point."""
    sets = _closed_sets(4) + [args for _, args in _root_sets(2)]
    commands = [["point"] + args for args in sets]
    assert len(commands) == 65
    assert _sweep_digest(capsys, commands) == (
        "899633717bef6bb6a43d05f8615cb65e5ff0b32f29b8f7354cd34b8938a62961")
    commands = [["point"] + args + ["--weighted", "minimal"] for args in sets]
    assert _sweep_digest(capsys, commands) == (
        "98af062d7fbf9312b4702fbf3494f22fd3bbcf53e24f6b8ee9c51192bf437137")


def test_plain_screen_sweep_digest(capsys):
    """Plain `screen` at radius 2 on every closed SL_3 set: limits of points
    with no flag levels and the stabilizers of those limits."""
    commands = [["screen"] + args + ["--alpha", "none", "--radius", "2"]
                for args in _closed_sets(3)]
    assert len(commands) == 7
    assert _sweep_digest(capsys, commands) == (
        "925abcd268e27279eac2563a8e8cfc2a3393dae6b0a9fd168e508e1f757e8b9a")
