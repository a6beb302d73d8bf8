"""Golden report digests: the sha256 of each report is pinned, so a change to
elimination, ordering or serialization that alters any report byte fails
here.  A reduced-echelon kernel basis is unique for its free columns, and the
free columns are fixed by the matrix, so any correct elimination engine must
reproduce these bytes.
"""

import hashlib

import pytest

from usinv.cli import run

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
]


@pytest.mark.parametrize("command,digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_report_digest(capsys, command, digest):
    run(command.split())
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
